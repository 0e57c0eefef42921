// Experiment E13 — model-checking coverage and interposition overhead
// (docs/model_checking.md).
//
//   E13a (coverage): exhaustive DFS over the real steal protocol (3 workers,
//                    thread-count policy) per preemption bound — schedules
//                    explored per second and the sleep-set pruning ratio
//                    (share of partial executions cut as provably redundant).
//   E13b (sampling): PCT randomized sampling rate on the same harness — the
//                    fast path for spaces exhaustion cannot cover.
//   E13c (overhead): the interposition seam's cost when the checker is NOT
//                    driving: uncontended SpinLock lock/unlock and published
//                    load reads, in ns/op. Build twice (-DOPTSCHED_MC_HOOKS=
//                    ON/OFF) and compare: the null-check seam must be free.
//
// A machine-readable JSON summary is printed at the end for plotting.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/str.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/spinlock.h"

#if OPTSCHED_MC_HOOKS
#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#endif

namespace optsched {
namespace {

using bench::F;
using bench::Section;
using bench::Timer;

#if OPTSCHED_MC_HOOKS
struct CoverageRow {
  uint32_t bound = 0;
  uint64_t explored = 0;
  uint64_t pruned = 0;
  double seconds = 0;
};

std::vector<CoverageRow> RunCoverage(uint32_t max_bound) {
  std::vector<CoverageRow> rows;
  for (uint32_t bound = 0; bound <= max_bound; ++bound) {
    mc::Schedule config;
    config.harness = "balance";
    config.policy = "thread-count";
    config.initial_loads = {0, 1, 2};
    config.attempts_per_worker = 2;
    mc::StealHarness harness(config);
    mc::DfsExplorer::Options options;
    options.max_preemptions = bound;
    mc::DfsExplorer explorer(options);
    Timer timer;
    const mc::ExploreStats stats =
        explorer.Explore(harness.Factory(), [](const mc::ExecutionResult&, uint32_t) {
          return true;
        });
    rows.push_back(CoverageRow{.bound = bound,
                               .explored = stats.schedules_explored,
                               .pruned = stats.schedules_pruned,
                               .seconds = timer.ElapsedMs() / 1000.0});
  }
  return rows;
}

double RunPctSampling(uint32_t samples, uint64_t* executed_out) {
  mc::Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 1, 2, 0};
  config.attempts_per_worker = 2;
  mc::StealHarness harness(config);
  mc::PctStrategy pct(4, 128, 3, 42);
  Timer timer;
  for (uint32_t i = 0; i < samples; ++i) {
    mc::Scheduler scheduler;
    (void)scheduler.Run(harness.MakeBodies(), pct);
    pct.Reset();
  }
  *executed_out = samples;
  return timer.ElapsedMs() / 1000.0;
}
#endif  // OPTSCHED_MC_HOOKS

// ns/op for an uncontended lock/unlock pair through the (possibly compiled-
// out) interposition seam. volatile sink defeats dead-code elimination.
double LockOverheadNs(uint64_t iters) {
  runtime::SpinLock lock;
  volatile uint64_t sink = 0;
  Timer timer;
  for (uint64_t i = 0; i < iters; ++i) {
    lock.lock();
    sink = sink + 1;
    lock.unlock();
  }
  return timer.ElapsedUs() * 1000.0 / static_cast<double>(iters);
}

double LoadReadOverheadNs(uint64_t iters) {
  runtime::ConcurrentRunQueue queue;
  const runtime::WorkItem item{.id = 1, .work_units = 1, .weight = 1024};
  queue.PushBatchExternal(&item, 1);
  volatile int64_t sink = 0;
  Timer timer;
  for (uint64_t i = 0; i < iters; ++i) {
    sink = sink + queue.ReadLoad().task_count;
  }
  return timer.ElapsedUs() * 1000.0 / static_cast<double>(iters);
}

}  // namespace
}  // namespace optsched

int main() {
  using namespace optsched;
  bench::Section(StrFormat("E13 — model-checker coverage and hook overhead (hooks %s)",
                           OPTSCHED_MC_HOOKS ? "ON" : "OFF"));

  std::string coverage_json = "[]";
  std::string pct_json = "null";
#if OPTSCHED_MC_HOOKS
  {
    bench::Section("E13a — exhaustive DFS coverage (3 workers, thread-count)");
    const auto rows = RunCoverage(2);
    std::vector<std::vector<std::string>> table;
    std::vector<std::string> parts;
    for (const CoverageRow& row : rows) {
      const double total = static_cast<double>(row.explored + row.pruned);
      const double rate = row.seconds > 0 ? total / row.seconds : 0;
      const double pruning = total > 0 ? static_cast<double>(row.pruned) / total : 0;
      table.push_back({StrFormat("%u", row.bound), StrFormat("%llu", (unsigned long long)row.explored),
                       StrFormat("%llu", (unsigned long long)row.pruned),
                       StrFormat("%.0f", rate), StrFormat("%.1f%%", pruning * 100.0)});
      parts.push_back(StrFormat(
          "{\"bound\":%u,\"explored\":%llu,\"pruned\":%llu,\"schedules_per_sec\":%.0f,"
          "\"pruning_ratio\":%.4f}",
          row.bound, (unsigned long long)row.explored, (unsigned long long)row.pruned, rate,
          pruning));
    }
    bench::PrintTable({"preemption bound", "explored", "pruned", "schedules/sec", "pruned share"},
                      table);
    coverage_json = "[" + Join(parts, ",") + "]";
  }
  {
    bench::Section("E13b — PCT randomized sampling (4 workers)");
    uint64_t executed = 0;
    const double seconds = RunPctSampling(512, &executed);
    const double rate = seconds > 0 ? static_cast<double>(executed) / seconds : 0;
    bench::Note(StrFormat("%llu samples in %.3f s = %.0f schedules/sec",
                          (unsigned long long)executed, seconds, rate));
    pct_json = StrFormat("{\"samples\":%llu,\"schedules_per_sec\":%.0f}",
                         (unsigned long long)executed, rate);
  }
#else
  bench::Note("model checker not built (-DOPTSCHED_MC_HOOKS=OFF): coverage sections skipped");
#endif

  bench::Section("E13c — interposition seam overhead (checker not attached)");
  constexpr uint64_t kIters = 2'000'000;
  const double lock_ns = LockOverheadNs(kIters);
  const double read_ns = LoadReadOverheadNs(kIters);
  bench::Note(StrFormat("uncontended lock+unlock: %.1f ns/op", lock_ns));
  bench::Note(StrFormat("published load read:     %.1f ns/op", read_ns));

  std::printf(
      "\nJSON: {\"experiment\":\"e13\",\"hooks\":%d,\"coverage\":%s,\"pct\":%s,"
      "\"lock_ns\":%.2f,\"load_read_ns\":%.2f}\n",
      OPTSCHED_MC_HOOKS ? 1 : 0, coverage_json.c_str(), pct_json.c_str(), lock_ns, read_ns);
  return 0;
}
