#include "layers.h"

#include <algorithm>

namespace perfbench {

void ExecTotals::Add(const optsched::runtime::ExecutorReport& report) {
  ++runs;
  wall_ns += report.wall_time_ns;
  items_per_worker.resize(std::max(items_per_worker.size(), report.workers.size()), 0);
  for (size_t i = 0; i < report.workers.size(); ++i) {
    const optsched::runtime::WorkerStats& w = report.workers[i];
    items += w.items_executed;
    items_per_worker[i] += w.items_executed;
    steals.attempts += w.steals.attempts;
    steals.successes += w.steals.successes;
    steals.items_stolen += w.steals.items_stolen;
    steals.failed_recheck += w.steals.failed_recheck;
    steals.failed_no_task += w.steals.failed_no_task;
    steals.empty_filter += w.steals.empty_filter;
    parks += w.backoff_events;
    park_spins += w.backoff_spins_total;
    submit_wakeups += w.submit_wakeups;
    idle_loops += w.idle_loops;
    steal_ok_ns.Merge(w.steal_latency_ns);
    steal_fail_ns.Merge(w.steal_fail_latency_ns);
    select_ns.Merge(w.selection_latency_ns);
  }
  seqlock_retries += report.seqlock_read_retries;
}

void EmitExecutorCounters(const ExecTotals& t, Outcome& out) {
  const double per_1k = t.items > 0 ? 1000.0 / static_cast<double>(t.items) : 0.0;
  out.Add("executor.parks", static_cast<double>(t.parks) * per_1k, "per_1k");
  out.Add("executor.park_spins", static_cast<double>(t.park_spins) * per_1k, "per_1k");
  out.Add("executor.submit_wakeups", static_cast<double>(t.submit_wakeups) * per_1k, "per_1k");
  out.Add("executor.idle_loops", static_cast<double>(t.idle_loops) * per_1k, "per_1k");
  double max_items = 0;
  double sum_items = 0;
  for (uint64_t n : t.items_per_worker) {
    max_items = std::max(max_items, static_cast<double>(n));
    sum_items += static_cast<double>(n);
  }
  const double mean = t.items_per_worker.empty()
                          ? 0.0
                          : sum_items / static_cast<double>(t.items_per_worker.size());
  out.Add("executor.items_per_worker.max_over_mean", mean > 0 ? max_items / mean : 0.0,
          "ratio");

  out.Add("steal.attempts", static_cast<double>(t.steals.attempts) * per_1k, "per_1k");
  out.Add("steal.successes", static_cast<double>(t.steals.successes) * per_1k, "per_1k");
  out.Add("steal.items_stolen", static_cast<double>(t.steals.items_stolen) * per_1k, "per_1k");
  out.Add("steal.failed_recheck", static_cast<double>(t.steals.failed_recheck) * per_1k,
          "per_1k");
  out.Add("steal.failed_no_task", static_cast<double>(t.steals.failed_no_task) * per_1k,
          "per_1k");
  out.Add("steal.empty_filter", static_cast<double>(t.steals.empty_filter) * per_1k, "per_1k");
  const double attempts = static_cast<double>(t.steals.attempts);
  out.Add("steal.success_ratio",
          attempts > 0 ? static_cast<double>(t.steals.successes) / attempts : 0.0, "ratio");
  out.Add("steal.ok_ns.p50", t.steal_ok_ns.Percentile(0.50), "ns");
  out.Add("steal.ok_ns.p99", t.steal_ok_ns.Percentile(0.99), "ns");
  out.Add("steal.fail_ns.p50", t.steal_fail_ns.Percentile(0.50), "ns");
  out.Add("steal.fail_ns.p99", t.steal_fail_ns.Percentile(0.99), "ns");
  out.Add("select_ns.p50", t.select_ns.Percentile(0.50), "ns");
  out.Add("select_ns.p99", t.select_ns.Percentile(0.99), "ns");
  out.Add("seqlock.retries_per_attempt",
          attempts > 0 ? static_cast<double>(t.seqlock_retries) / attempts : 0.0, "ratio");
}

void EmitPolicyCounts(const CountingPolicy& policy, const ExecTotals& traced, Outcome& out) {
  // Every selection round (an attempt, or a round whose filter came back
  // empty) runs the filter once per core.
  const double rounds =
      static_cast<double>(traced.steals.attempts + traced.steals.empty_filter);
  out.Add("policy.can_steal.per_attempt",
          rounds > 0 ? static_cast<double>(policy.can_steal_calls()) / rounds : 0.0, "calls");
  out.Add("policy.select_core.calls", static_cast<double>(policy.select_calls()), "count");
  out.Add("policy.should_migrate.accept_ratio",
          policy.migrate_calls() > 0 ? static_cast<double>(policy.migrate_accepts()) /
                                           static_cast<double>(policy.migrate_calls())
                                     : 0.0,
          "ratio");
}

SpanSummary SummarizeSpans(const TracingRunner& runner) {
  SpanSummary s;
  std::vector<double> bodies;
  std::vector<double> gaps;
  for (uint32_t w = 0; w < runner.num_workers(); ++w) {
    const TracingRunner::WorkerTrace& trace = runner.worker(w);
    s.bodies += trace.bodies;
    s.body_sum_ns += static_cast<double>(trace.body_sum_ns);
    s.inner_gap_sum_ns += static_cast<double>(trace.inner_gap_sum_ns);
    for (const BodySpan& span : trace.spans) {
      bodies.push_back(span.body_ns);
      if (span.gap_ns != kHeadGap) {
        gaps.push_back(span.gap_ns);
      }
    }
  }
  s.body_p50_ns = Quantile(bodies, 0.50);
  s.body_p99_ns = Quantile(bodies, 0.99);
  s.gap_p50_ns = Quantile(gaps, 0.50);
  s.gap_p99_ns = Quantile(std::move(gaps), 0.99);
  return s;
}

}  // namespace perfbench
