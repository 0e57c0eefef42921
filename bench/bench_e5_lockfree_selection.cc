// Experiment E5 — lock-free vs locked selection (paper §1/§3.1, DESIGN D3).
//
// Paper claim: "Introducing locks to avoid failures is not a desirable
// option: locking the runqueue of the third core prevents that core from
// scheduling work and may impact the whole system performance. We think that
// it is desirable to allow cores to look at the other cores' states and take
// optimistic decisions based on these observations, without locks."
//
// Reproduction (real threads): the work-stealing executor drains an
// imbalanced work set with (a) the paper's lock-free selection over the
// published loads and (b) a selection phase that locks every runqueue to get
// an exact snapshot. We report wall time and throughput (median and IQR over
// repeated drains), selection-phase latency percentiles and steal outcomes
// at worker counts up to the hardware threads minus one, so the caller's
// thread never competes with a worker for a CPU.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

using bench::F;

// Repetitions: a closed drain lasts a few milliseconds and one 100 ms open
// window is short too, so single runs swing more between runs than between
// the two modes.
constexpr int kDrainRepeats = 11;
constexpr int kWindowRepeats = 5;
// One arrival per gap in the open window: 20k items per 100 ms, the load a
// producer spinning 1500 iterations between submits offered while it shared
// the CPUs with four workers.
constexpr std::chrono::microseconds kArrivalGap{5};

struct RunResult {
  double wall_ms = 0;
  double throughput = 0;
  stats::LogHistogram selection_ns;
  uint64_t steals = 0;
  uint64_t failed_recheck = 0;
};

RunResult RunOnce(uint32_t workers, bool locked_selection, uint64_t seed) {
  runtime::ExecutorConfig config;
  config.num_workers = workers;
  config.locked_selection = locked_selection;
  config.spin_per_unit = 60;
  config.seed = seed;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  // Heavy imbalance: all work starts on worker 0, plus a trickle on worker 1
  // so balancing stays active.
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 3000; ++i) {
    items.push_back({.id = i, .work_units = 60, .weight = 1024});
  }
  executor.Seed(0, items);
  executor.Seed(1, std::vector<runtime::WorkItem>(items.begin(), items.begin() + 200));

  const auto report = executor.Run();
  RunResult out;
  out.wall_ms = static_cast<double>(report.wall_time_ns) / 1e6;
  out.throughput = report.throughput_items_per_ms();
  for (const auto& w : report.workers) {
    out.selection_ns.Merge(w.selection_latency_ns);
    out.steals += w.steals.successes;
    out.failed_recheck += w.steals.failed_recheck;
  }
  return out;
}

// Keeps every hardware thread busy for `seconds`. On a virtual machine whose
// CPUs sat idle, threads started right away lose much of their first second
// to stalls, which made a run's first rows read several times slower than
// the rest.
void WarmUpCpus(uint32_t threads, double seconds) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  const auto spin = [until] {
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  std::vector<std::thread> spinners;
  for (uint32_t i = 1; i < threads; ++i) {
    spinners.emplace_back(spin);
  }
  spin();
  for (std::thread& t : spinners) {
    t.join();
  }
}

// The q-quantile of `values` (nearest rank on a sorted copy).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5)];
}

// "median [q1, q3]"
std::string MedianIqr(const std::vector<double>& values, const char* fmt) {
  return F(fmt, Quantile(values, 0.5)) + " [" + F(fmt, Quantile(values, 0.25)) + ", " +
         F(fmt, Quantile(values, 0.75)) + "]";
}

}  // namespace
}  // namespace optsched

int main() {
  using namespace optsched;
  bench::Section("E5: lock-free vs locked selection phase, real threads");
  const uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  const uint32_t max_workers = std::max(2u, hw - 1);
  WarmUpCpus(hw, 1.0);
  std::vector<uint32_t> worker_counts;
  for (uint32_t workers : {2u, 4u, 8u, 16u}) {
    if (workers <= max_workers) {
      worker_counts.push_back(workers);
    }
  }
  if (worker_counts.back() != max_workers) {
    worker_counts.push_back(max_workers);
  }

  std::vector<std::vector<std::string>> rows;
  for (uint32_t workers : worker_counts) {
    for (const bool locked : {false, true}) {
      std::vector<double> wall_ms;
      std::vector<double> throughput;
      std::vector<double> steals;
      std::vector<double> failed_recheck;
      stats::LogHistogram selection_ns;
      for (int i = 0; i < kDrainRepeats; ++i) {
        const RunResult r = RunOnce(workers, locked, 100 + i);
        wall_ms.push_back(r.wall_ms);
        throughput.push_back(r.throughput);
        steals.push_back(static_cast<double>(r.steals));
        failed_recheck.push_back(static_cast<double>(r.failed_recheck));
        selection_ns.Merge(r.selection_ns);
      }
      rows.push_back({F("%u", workers), locked ? "locked-all-queues" : "lock-free",
                      MedianIqr(wall_ms, "%.2f"), MedianIqr(throughput, "%.0f"),
                      F("%.0f", selection_ns.Percentile(0.5)),
                      F("%.0f", selection_ns.Percentile(0.99)),
                      F("%.0f", Quantile(steals, 0.5)), F("%.0f", Quantile(failed_recheck, 0.5))});
    }
  }
  bench::PrintTable({"workers", "selection", "wall_ms [IQR]", "items/ms [IQR]", "sel_p50_ns",
                     "sel_p99_ns", "steals", "failed_recheck"},
                    rows);
  bench::Note(F("(%d drains per row: median and interquartile range; selection percentiles over "
                "every attempt of the row; steals and failed re-checks are per-drain medians)",
                kDrainRepeats));

  // The producer takes the CPU the closed drains leave to the caller.
  bench::Section(F("E5b: open system — arrivals every %lld us on one queue, 100ms window, %u "
                   "workers",
                   static_cast<long long>(kArrivalGap.count()), max_workers));
  {
    std::vector<std::vector<std::string>> rows;
    for (const bool locked : {false, true}) {
      std::vector<double> submitted;
      std::vector<double> executed;
      std::vector<double> left;
      std::vector<double> steals;
      for (int i = 0; i < kWindowRepeats; ++i) {
        runtime::ExecutorConfig config;
        config.num_workers = max_workers;
        config.locked_selection = locked;
        config.spin_per_unit = 60;
        config.seed = 200 + i;
        runtime::Executor executor(policies::MakeThreadCount(), config);
        // Paced arrivals, so the offered load does not depend on how much
        // CPU the producer gets beside the workers.
        const auto producer = [](runtime::Executor& e) {
          uint64_t id = 0;
          auto next = std::chrono::steady_clock::now();
          while (!e.stopped()) {
            if (std::chrono::steady_clock::now() >= next) {
              e.Submit(0, {.id = id++, .work_units = 60, .weight = 1024});
              next += kArrivalGap;
            }
          }
        };
        const auto report = executor.RunFor(100, producer);
        uint64_t ran = 0;
        for (const auto& w : report.workers) {
          ran += w.items_executed;
        }
        submitted.push_back(static_cast<double>(report.total_items));
        executed.push_back(static_cast<double>(ran));
        left.push_back(static_cast<double>(report.items_left_unexecuted));
        steals.push_back(static_cast<double>(report.Totals().steals.successes));
      }
      rows.push_back({locked ? "locked-all-queues" : "lock-free",
                      F("%.0f", Quantile(submitted, 0.5)), F("%.0f", Quantile(executed, 0.5)),
                      MedianIqr(left, "%.0f"), F("%.0f", Quantile(steals, 0.5))});
    }
    bench::PrintTable({"selection", "submitted", "executed", "left at deadline [IQR]", "steals"},
                      rows);
    bench::Note(F("(%d windows per row: medians, and the interquartile range of left items)",
                  kWindowRepeats));
  }

  bench::Note(F("\n(host has %u hardware threads; workers capped at %u)", hw, max_workers));
  bench::Note("Expected shape (paper): lock-free selection keeps the selection phase cheap\n"
              "and non-intrusive; locking every runqueue inflates selection latency and, as\n"
              "core count grows, stalls owners and hurts drain time. Failed re-checks are\n"
              "the price of optimism and stay a small fraction of steals.");
  return 0;
}
