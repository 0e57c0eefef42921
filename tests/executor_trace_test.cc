// Real-thread executor observability: trace rings wired through WorkerMain
// and the supervisor, failed-steal latency attribution, metrics export, and
// executor reuse semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace optsched {
namespace {

using runtime::Executor;
using runtime::ExecutorConfig;
using runtime::ExecutorReport;
using runtime::WorkItem;
using trace::EventType;
using trace::TraceEvent;

std::vector<WorkItem> Items(uint64_t count, uint32_t units) {
  std::vector<WorkItem> items;
  for (uint64_t i = 0; i < count; ++i) {
    items.push_back(WorkItem{.id = i + 1, .work_units = units, .weight = 1024});
  }
  return items;
}

uint64_t CountType(const std::vector<TraceEvent>& events, EventType type) {
  return static_cast<uint64_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const TraceEvent& e) { return e.type == type; }));
}

TEST(ExecutorTrace, DisabledByDefaultAndEmitsNothing) {
  ExecutorConfig config;
  config.num_workers = 2;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(50, 500));
  const ExecutorReport report = executor.Run();
  EXPECT_TRUE(report.trace_events.empty());
  EXPECT_EQ(report.trace_dropped, 0u);
}

TEST(ExecutorTrace, RecordsStealOutcomesFromMultipleWorkers) {
  ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 100;
  config.trace_ring_capacity = 1 << 12;
  config.seed = 3;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(400, 1500));  // one pile: everyone else must steal
  const ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  ASSERT_FALSE(report.trace_events.empty());
  // Time-ordered merged stream.
  for (size_t i = 1; i < report.trace_events.size(); ++i) {
    EXPECT_LE(report.trace_events[i - 1].time, report.trace_events[i].time);
  }
  // Steal events from at least two distinct worker lanes, each attributing a
  // victim different from the thief.
  std::set<CpuId> stealing_lanes;
  for (const TraceEvent& e : report.trace_events) {
    if (e.type == EventType::kSteal || e.type == EventType::kStealFailed) {
      stealing_lanes.insert(e.cpu);
      EXPECT_NE(e.cpu, e.other_cpu);
      EXPECT_GT(e.detail, 0) << "steal events carry their measured latency";
    }
  }
  EXPECT_GE(stealing_lanes.size(), 2u);
  // Trace counts match the counters the workers kept.
  EXPECT_EQ(CountType(report.trace_events, EventType::kSteal),
            report.Totals().steals.successes);
}

TEST(ExecutorTrace, RecordsBackoffParksWithDurations) {
  ExecutorConfig config;
  config.num_workers = 4;
  config.initial_backoff_spins = 32;
  config.max_backoff_spins = 1 << 10;
  config.trace_ring_capacity = 1 << 12;
  Executor executor(policies::MakeThreadCount(), config);
  // One long item: three workers back off while worker 0 executes.
  executor.Seed(0, Items(1, 400'000));
  const ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  const uint64_t parks = CountType(report.trace_events, EventType::kBackoffPark);
  EXPECT_GT(parks, 0u);
  EXPECT_EQ(parks, report.Totals().backoff_events);
  for (const TraceEvent& e : report.trace_events) {
    if (e.type == EventType::kBackoffPark) {
      EXPECT_GT(e.detail, 0) << "parks carry their measured duration (ns)";
    }
  }
}

TEST(ExecutorTrace, FullRingsDropAndReportInsteadOfBlocking) {
  ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 50;
  config.trace_ring_capacity = 2;  // deliberately tiny
  config.supervisor_poll_us = 100'000;  // supervisor never drains mid-run
  config.seed = 11;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(600, 800));
  const ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  EXPECT_GT(report.trace_dropped, 0u);
  // The run itself is unaffected: every item still executed.
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 600u);
}

TEST(ExecutorTrace, EveryRestartFollowsACrashOfTheSameWorker) {
  ExecutorConfig config;
  config.num_workers = 3;
  config.trace_ring_capacity = 1 << 12;
  config.seed = 17;
  config.fault_plan.crash_rate = 0.02;  // per scheduling decision: about a dozen per run
  config.fault_plan.crash_restart_us = 100;
  config.fault_plan.seed = 17;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(600, 500));
  const ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  // A crashed worker's own thread pushes its restart to its own ring, so in
  // the merged stream each restart comes after a crash of that worker that
  // no earlier restart answered.
  std::vector<uint64_t> unanswered(config.num_workers, 0);
  for (const TraceEvent& e : report.trace_events) {
    if (e.type == EventType::kCrash) {
      ++unanswered[e.cpu];
    } else if (e.type == EventType::kRestart) {
      ASSERT_GT(unanswered[e.cpu], 0u) << "restart of worker " << e.cpu << " at " << e.time;
      --unanswered[e.cpu];
    }
  }
  const uint64_t crashes = CountType(report.trace_events, EventType::kCrash);
  const uint64_t restarts = CountType(report.trace_events, EventType::kRestart);
  EXPECT_GT(restarts, 0u);
  EXPECT_LE(restarts, crashes);
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, report.total_items);
  EXPECT_EQ(report.total_items, 600u);
}

TEST(ExecutorTrace, ChromeExportRoundTrips) {
  ExecutorConfig config;
  config.num_workers = 3;
  config.trace_ring_capacity = 1 << 12;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(120, 1000));
  const ExecutorReport report = executor.Run();
  const std::string json = trace::ToChromeTraceJson(report.trace_events, report.trace_dropped,
                                                    {"worker 0", "worker 1", "worker 2"});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":"), std::string::npos);
}

TEST(ExecutorStats, FailedStealLatencyIsRecordedSeparately) {
  // Regression: steal-phase latency was recorded only when the steal
  // SUCCEEDED, so the latency of contended-but-failed attempts — exactly the
  // cost the paper's optimistic design reasons about — was invisible.
  ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 100;
  config.seed = 7;
  // Force genuine failures: with rate 1.0 every selection after the first
  // runs against a FROZEN first snapshot (still showing the seeded pile), so
  // once the pile drains the thieves reach the two-lock phase and lose the
  // re-check — a genuine failed_recheck, not an injected abort.
  config.fault_plan.stale_snapshot_rate = 1.0;
  config.fault_plan.seed = 7;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(200, 1000));
  const ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  uint64_t ok = 0;
  uint64_t fail = 0;
  uint64_t failed_attempts = 0;
  for (const auto& w : report.workers) {
    ok += w.steal_latency_ns.total();
    fail += w.steal_fail_latency_ns.total();
    failed_attempts += w.steals.failed_recheck + w.steals.failed_no_task;
  }
  EXPECT_EQ(ok, report.Totals().steals.successes);
  EXPECT_GT(fail, 0u);
  EXPECT_EQ(fail, failed_attempts);
  // Both histograms surface in the human-readable report.
  EXPECT_NE(report.ToString().find("fail_p50"), std::string::npos);
}

TEST(ExecutorStats, ExportMetricsAggregatesAndMerges) {
  ExecutorConfig config;
  config.num_workers = 2;
  config.trace_ring_capacity = 1 << 10;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(80, 800));
  const ExecutorReport report = executor.Run();
  trace::MetricsRegistry registry;
  report.ExportMetrics(registry);
  EXPECT_DOUBLE_EQ(registry.Get("executor.total_items"), 80.0);
  EXPECT_DOUBLE_EQ(registry.Get("executor.items_executed"),
                   static_cast<double>(report.workers[0].items_executed +
                                       report.workers[1].items_executed));
  EXPECT_DOUBLE_EQ(registry.Get("executor.steals.successes"),
                   static_cast<double>(report.Totals().steals.successes));
  EXPECT_TRUE(registry.Has("executor.worker0.items_executed"));
  EXPECT_TRUE(registry.Has("executor.trace.events"));
  // Merging two runs' registries sums the counters.
  trace::MetricsRegistry merged;
  merged.Merge(registry);
  merged.Merge(registry);
  EXPECT_DOUBLE_EQ(merged.Get("executor.total_items"), 160.0);
}

TEST(ExecutorReuse, SecondRunReportsOnlyItsOwnItems) {
  // Regression: submitted-item bookkeeping survived Run(), so a reused
  // executor reported the CUMULATIVE seeded count as every later run's
  // total_items (and throughput was inflated accordingly).
  ExecutorConfig config;
  config.num_workers = 2;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(100, 500));
  const ExecutorReport first = executor.Run();
  EXPECT_EQ(first.total_items, 100u);
  executor.Seed(0, Items(40, 500));
  const ExecutorReport second = executor.Run();
  EXPECT_EQ(second.total_items, 40u);  // not 140
  uint64_t executed = 0;
  for (const auto& w : second.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 40u);
}

TEST(ExecutorReuse, RunWithoutNewWorkReportsZeroItems) {
  ExecutorConfig config;
  config.num_workers = 2;
  Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, Items(30, 500));
  EXPECT_EQ(executor.Run().total_items, 30u);
  const ExecutorReport empty = executor.Run();
  EXPECT_EQ(empty.total_items, 0u);
  EXPECT_EQ(empty.items_left_unexecuted, 0u);
}

}  // namespace
}  // namespace optsched
