// Per-layer metric emitters shared by the workloads: executor and steal
// counters summed over many ExecutorReports, policy call counts, and the
// body/gap spans of a TracingRunner.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "shims.h"
#include "src/runtime/executor.h"
#include "src/stats/histogram.h"

namespace perfbench {

// Executor counters summed over every run of a phase.
struct ExecTotals {
  uint64_t runs = 0;
  uint64_t items = 0;
  uint64_t wall_ns = 0;
  std::vector<uint64_t> items_per_worker;
  optsched::runtime::StealCounters steals;
  uint64_t parks = 0;
  uint64_t park_spins = 0;
  uint64_t submit_wakeups = 0;
  uint64_t idle_loops = 0;
  uint64_t seqlock_retries = 0;
  optsched::stats::LogHistogram steal_ok_ns;
  optsched::stats::LogHistogram steal_fail_ns;
  optsched::stats::LogHistogram select_ns;

  void Add(const optsched::runtime::ExecutorReport& report);
};

// executor.{parks,park_spins,submit_wakeups,idle_loops,items_per_worker.*}
// and steal.* / select_ns / seqlock.* from the counters.
void EmitExecutorCounters(const ExecTotals& totals, Outcome& out);

// policy.* from a CountingPolicy, normalized by the steal counters of the
// same (traced) runs.
void EmitPolicyCounts(const CountingPolicy& policy, const ExecTotals& traced, Outcome& out);

// Sums and percentiles over a TracingRunner's spans.
struct SpanSummary {
  uint64_t bodies = 0;
  double body_sum_ns = 0;
  double inner_gap_sum_ns = 0;
  double body_p50_ns = 0;
  double body_p99_ns = 0;
  double gap_p50_ns = 0;
  double gap_p99_ns = 0;
};
SpanSummary SummarizeSpans(const TracingRunner& runner);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
