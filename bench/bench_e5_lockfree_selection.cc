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
// an exact snapshot. We report wall time, throughput, selection-phase latency
// percentiles and steal outcomes as worker count grows.

#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

using bench::F;

struct RunResult {
  double wall_ms = 0;
  double throughput = 0;
  double sel_p50_ns = 0;
  double sel_p99_ns = 0;
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
  runtime::Executor* e = &executor;
  e->Seed(0, items);
  e->Seed(1, std::vector<runtime::WorkItem>(items.begin(), items.begin() + 200));

  const auto report = executor.Run();
  RunResult out;
  out.wall_ms = static_cast<double>(report.wall_time_ns) / 1e6;
  out.throughput = report.throughput_items_per_ms();
  stats::LogHistogram selection;
  for (const auto& w : report.workers) {
    selection.Merge(w.selection_latency_ns);
    out.steals += w.steals.successes;
    out.failed_recheck += w.steals.failed_recheck;
  }
  out.sel_p50_ns = selection.Percentile(0.5);
  out.sel_p99_ns = selection.Percentile(0.99);
  return out;
}

// Median-of-3 to tame scheduling noise.
RunResult RunMedian(uint32_t workers, bool locked_selection) {
  RunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = RunOnce(workers, locked_selection, 100 + i);
  }
  std::sort(std::begin(results), std::end(results),
            [](const RunResult& a, const RunResult& b) { return a.wall_ms < b.wall_ms; });
  return results[1];
}

}  // namespace
}  // namespace optsched

int main() {
  using namespace optsched;
  bench::Section("E5: lock-free vs locked selection phase, real threads");
  const uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<uint32_t> worker_counts{2, 4};
  if (hw >= 8) {
    worker_counts.push_back(8);
  }
  if (hw >= 16) {
    worker_counts.push_back(16);
  }

  std::vector<std::vector<std::string>> rows;
  for (uint32_t workers : worker_counts) {
    for (const bool locked : {false, true}) {
      const auto r = RunMedian(workers, locked);
      rows.push_back({F("%u", workers), locked ? "locked-all-queues" : "lock-free",
                      F("%.1f", r.wall_ms), F("%.0f", r.throughput), F("%.0f", r.sel_p50_ns),
                      F("%.0f", r.sel_p99_ns),
                      F("%llu", static_cast<unsigned long long>(r.steals)),
                      F("%llu", static_cast<unsigned long long>(r.failed_recheck))});
    }
  }
  bench::PrintTable({"workers", "selection", "wall_ms", "items/ms", "sel_p50_ns", "sel_p99_ns",
                     "steals", "failed_recheck"},
                    rows);
  bench::Section("E5b: open system — sustained arrivals on one queue, 100ms window");
  {
    std::vector<std::vector<std::string>> rows;
    for (const bool locked : {false, true}) {
      runtime::ExecutorConfig config;
      config.num_workers = std::min(4u, hw * 2);
      config.locked_selection = locked;
      config.spin_per_unit = 60;
      runtime::Executor executor(policies::MakeThreadCount(), config);
      const auto producer = [](runtime::Executor& e) {
        uint64_t id = 0;
        while (!e.stopped()) {
          e.Submit(0, {.id = id++, .work_units = 60, .weight = 1024});
          for (volatile int spin = 0; spin < 1500; ++spin) {
          }
        }
      };
      const auto report = executor.RunFor(100, producer);
      uint64_t executed = 0;
      for (const auto& w : report.workers) {
        executed += w.items_executed;
      }
      rows.push_back({locked ? "locked-all-queues" : "lock-free",
                      F("%llu", static_cast<unsigned long long>(report.total_items)),
                      F("%llu", static_cast<unsigned long long>(executed)),
                      F("%llu", static_cast<unsigned long long>(report.items_left_unexecuted)),
                      F("%llu", static_cast<unsigned long long>(report.Totals().steals.successes))});
    }
    bench::PrintTable({"selection", "submitted", "executed", "left at deadline", "steals"},
                      rows);
  }

  bench::Note(F("\n(host has %u hardware threads)", hw));
  bench::Note("Expected shape (paper): lock-free selection keeps the selection phase cheap\n"
              "and non-intrusive; locking every runqueue inflates selection latency and, as\n"
              "core count grows, stalls owners and hurts drain time. Failed re-checks are\n"
              "the price of optimism and stay a small fraction of steals.");
  return 0;
}
