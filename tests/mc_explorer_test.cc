// Exhaustive and randomized exploration over the real steal protocol: the
// paper's properties are discharged on the sound policy and a concrete,
// minimized counterexample is produced for the broken one.

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/mutex.h"
#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/scheduler.h"
#include "src/runtime/spinlock.h"

#if defined(__SANITIZE_THREAD__)
#define OPTSCHED_MC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OPTSCHED_MC_TSAN 1
#endif
#endif

#ifdef OPTSCHED_MC_TSAN
#define MC_SKIP_UNDER_TSAN() GTEST_SKIP() << "ucontext fibers are not supported under TSan"
#else
#define MC_SKIP_UNDER_TSAN() (void)0
#endif

#ifndef MC_GOLDEN_DIR
#define MC_GOLDEN_DIR "tests/golden"
#endif

namespace optsched::mc {
namespace {

std::string Describe(const std::vector<PropertyReport>& reports) {
  std::string out;
  for (const PropertyReport& report : reports) {
    if (!report.holds) {
      out += report.name + ": " + report.detail + "; ";
    }
  }
  return out;
}

TEST(DfsExplorerTest, EnumeratesMoreThanOneScheduleForContendingLocks) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock lock;
  int in_critical = 0;
  int max_in_critical = 0;
  // RAII guard: a pruned execution unwinds the fiber mid-critical-section,
  // and the destructor must release the lock for the next execution.
  auto body = [&] {
    LockGuard guard(lock);
    ++in_critical;
    max_in_critical = std::max(max_in_critical, in_critical);
    ActiveScheduler()->Yield();
    --in_critical;
  };
  DfsExplorer::Options options;
  options.max_preemptions = 1;
  DfsExplorer explorer(options);
  const ExploreStats stats = explorer.Explore(
      [&] {
        in_critical = 0;  // an aborted execution skips the decrement
        return std::vector<std::function<void()>>{body, body};
      },
      [&](const ExecutionResult& result, uint32_t) {
        EXPECT_FALSE(result.deadlock);
        return true;
      });
  EXPECT_GT(stats.schedules_explored, 1u);
  EXPECT_FALSE(stats.budget_exhausted);
  // Mutual exclusion held in every explored schedule.
  EXPECT_EQ(max_in_critical, 1);
}

TEST(DfsExplorerTest, ExhaustiveDischargesPaperPropertiesOnThreadCount) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 1, 2, 0};  // 4 workers, the acceptance shape
  config.attempts_per_worker = 1;
  StealHarness harness(config);

  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  std::string violation;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        const std::vector<PropertyReport> reports = harness.Evaluate(result);
        if (StealHarness::FirstViolation(reports) != nullptr) {
          violation = Describe(reports);
          return false;
        }
        return true;
      });
  EXPECT_FALSE(stats.stopped_by_sink) << violation;
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_GT(stats.schedules_explored, 0u);
  // Sleep sets must be earning their keep on a space this size.
  EXPECT_GT(stats.schedules_pruned, 0u);
}

TEST(DfsExplorerTest, BrokenPolicyProducesMinimizedReplayableCounterexample) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
  config.policy = "broken-cansteal";
  config.initial_loads = {0, 1, 2};  // the paper's §4.3 ping-pong shape
  config.attempts_per_worker = 3;
  StealHarness harness(config);

  auto violates_bound = [&](const ExecutionResult& result) {
    const std::vector<PropertyReport> reports = harness.Evaluate(result);
    for (const PropertyReport& report : reports) {
      if (report.name == "bounded-steals" && !report.holds) {
        return true;
      }
    }
    return false;
  };

  DfsExplorer::Options options;
  // The bound must be 3 here although the committed golden of this shape
  // replays with one preemption: sleep sets prune the free-switch
  // (yield-point) alternations as equivalent to representatives that spend
  // preemptions, so the surviving member of the ping-pong's equivalence
  // class costs 3 — the sleep-set x preemption-bound interaction
  // docs/model_checking.md explains.
  options.max_preemptions = 3;
  DfsExplorer explorer(options);
  std::vector<uint32_t> counterexample;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        if (violates_bound(result)) {
          counterexample = result.choices;
          return false;
        }
        return true;
      });
  ASSERT_TRUE(stats.stopped_by_sink)
      << "no bounded-steals violation found in " << stats.schedules_explored << " schedules";

  const std::vector<uint32_t> minimized =
      MinimizeCounterexample(harness.Factory(), counterexample, violates_bound);
  EXPECT_LE(minimized.size(), counterexample.size());

  // The minimized schedule replays deterministically to the same violation.
  const ExecutionResult first = ReplayChoices(harness.Factory(), minimized);
  EXPECT_TRUE(violates_bound(first));
  const ExecutionResult second = ReplayChoices(harness.Factory(), minimized);
  EXPECT_EQ(first.choices, second.choices);
  EXPECT_EQ(first.events, second.events);
}

TEST(DfsExplorerTest, ExhaustiveDischargesPropertiesWithBatchedSteals) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 4, 0};
  config.attempts_per_worker = 1;
  config.max_steal_batch = 4;  // batched steal-half, the new protocol path
  StealHarness harness(config);

  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  std::string violation;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        const std::vector<PropertyReport> reports = harness.Evaluate(result);
        if (StealHarness::FirstViolation(reports) != nullptr) {
          violation = Describe(reports);
          return false;
        }
        return true;
      });
  // Every explored schedule satisfies no-lost-items, steal-safety,
  // publish-batching (<= 2 load publishes per steal, one per queue) and the
  // d0/2 ITEM bound — batches move more per action, never more in total.
  EXPECT_FALSE(stats.stopped_by_sink) << violation;
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_GT(stats.schedules_explored, 0u);
}

TEST(DfsExplorerTest, BrokenBatchBoundProducesMinimizedReplayableCounterexample) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 4};
  config.attempts_per_worker = 1;
  config.fault = "break_batch_bound";  // strip victims bare: violates steal safety
  StealHarness harness(config);

  auto violates_safety = [&](const ExecutionResult& result) {
    const std::vector<PropertyReport> reports = harness.Evaluate(result);
    for (const PropertyReport& report : reports) {
      if (report.name == "steal-safety" && !report.holds) {
        return true;
      }
    }
    return false;
  };

  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  std::vector<uint32_t> counterexample;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        if (violates_safety(result)) {
          counterexample = result.choices;
          return false;
        }
        return true;
      });
  ASSERT_TRUE(stats.stopped_by_sink)
      << "no steal-safety violation found in " << stats.schedules_explored << " schedules";

  const std::vector<uint32_t> minimized =
      MinimizeCounterexample(harness.Factory(), counterexample, violates_safety);
  EXPECT_LE(minimized.size(), counterexample.size());

  // Deterministic replay: same choices, same events, same violation — the
  // minimized schedule is committable as a golden file.
  const ExecutionResult first = ReplayChoices(harness.Factory(), minimized);
  EXPECT_TRUE(violates_safety(first));
  const ExecutionResult second = ReplayChoices(harness.Factory(), minimized);
  EXPECT_EQ(first.choices, second.choices);
  EXPECT_EQ(first.events, second.events);

  // Round-trip the schedule through its JSON identity: the fault knob and the
  // batch cap are part of the serialized reproduction recipe.
  const Schedule schedule = harness.MakeSchedule(minimized);
  const std::optional<Schedule> parsed = Schedule::FromJson(schedule.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fault, "break_batch_bound");
  StealHarness replay_harness(*parsed);
  const ExecutionResult replayed = ReplayChoices(replay_harness.Factory(), parsed->choices);
  const std::vector<PropertyReport> reports = replay_harness.Evaluate(replayed);
  bool violated = false;
  for (const PropertyReport& report : reports) {
    if (report.name == "steal-safety" && !report.holds) {
      violated = true;
    }
  }
  EXPECT_TRUE(violated);
}

TEST(DfsExplorerTest, DrainModeConservesItems) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "drain";
  config.policy = "thread-count";
  config.initial_loads = {3, 0};
  config.attempts_per_worker = 1;
  StealHarness harness(config);

  DfsExplorer::Options options;
  options.max_preemptions = 1;
  DfsExplorer explorer(options);
  std::string violation;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        const std::vector<PropertyReport> reports = harness.Evaluate(result);
        if (StealHarness::FirstViolation(reports) != nullptr) {
          violation = Describe(reports);
          return false;
        }
        return true;
      });
  EXPECT_FALSE(stats.stopped_by_sink) << violation;
  EXPECT_GT(stats.schedules_explored, 0u);
}

TEST(DfsExplorerTest, IngressModeDischargesNoLostAdmittedItems) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "ingress";
  config.policy = "thread-count";
  // Worker 0 is the producer; workers 1 and 2 run the shipped loop, each
  // owning a mailbox and a runqueue.
  config.initial_loads = {0, 0, 0};
  config.attempts_per_worker = 3;  // 3 pushes, and a 3-round steal budget
  config.mailbox_capacity = 1;     // tiny bound: the full/refuse path is reachable
  StealHarness harness(config);

  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  std::string violation;
  bool saw_shed = false;
  bool saw_drain = false;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        for (const McEvent& event : result.events) {
          saw_shed |= event.user_kind == kUserMailboxShed;
          saw_drain |= event.user_kind == kUserMailboxDrain;
        }
        const std::vector<PropertyReport> reports = harness.Evaluate(result);
        if (StealHarness::FirstViolation(reports) != nullptr) {
          violation = Describe(reports);
          return false;
        }
        return true;
      });
  // no-lost-admitted-items holds in EVERY interleaving of the producer
  // against the draining owners: an admitted item ends up executed, queued,
  // or still mailbox-resident; refused pushes are loud (kUserMailboxShed).
  // So do no-lost-wakeup and wakeup-no-stranded-items: every owner parked
  // through a push is woken by the notify that follows it.
  EXPECT_FALSE(stats.stopped_by_sink) << violation;
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_GT(stats.schedules_explored, 1u);
  // The exploration must actually reach both interesting paths: a drain that
  // moves an admitted item, and a push refused by the capacity-1 bound.
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_shed);
}

TEST(DfsExplorerTest, IngressScheduleRoundTripsThroughJson) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "ingress";
  config.policy = "thread-count";
  config.initial_loads = {0, 0};
  config.attempts_per_worker = 2;
  config.mailbox_capacity = 3;
  StealHarness harness(config);

  // Any concrete execution: PCT gives one cheaply.
  PctStrategy pct(/*num_threads=*/2, /*depth_estimate=*/64, /*num_change_points=*/2,
                  /*seed=*/7);
  Scheduler scheduler;
  const ExecutionResult result = scheduler.Run(harness.MakeBodies(), pct);
  const Schedule schedule = harness.MakeSchedule(result.choices);
  EXPECT_EQ(schedule.harness, "ingress");
  EXPECT_EQ(schedule.mailbox_capacity, 3u);

  const std::optional<Schedule> parsed = Schedule::FromJson(schedule.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mailbox_capacity, 3u);
  StealHarness replay_harness(*parsed);
  const ExecutionResult replayed = ReplayChoices(replay_harness.Factory(), parsed->choices);
  EXPECT_EQ(replayed.events, result.events);
  const std::vector<PropertyReport> reports = replay_harness.Evaluate(replayed);
  EXPECT_EQ(StealHarness::FirstViolation(reports), nullptr) << Describe(reports);
}

// Every fault-knob golden names a seeded fault and the property it violates.
// Replayed, it spends some number of preemptions; the bounded DFS must find
// the same violation at a bound no higher than that. Sleep sets that pruned
// a schedule whose only explored equivalent needs more preemptions fail
// this (the DFS used to need bound 3 for the 2-preemption termination-order
// golden). The broken-cansteal ping-pong golden is left out: it replays with
// one preemption and the DFS still needs bound 3 (see
// BrokenPolicyProducesMinimizedReplayableCounterexample).
TEST(DfsExplorerTest, FindsEverySeededFaultWithinItsGoldensPreemptions) {
  MC_SKIP_UNDER_TSAN();
  for (const char* name :
       {"mc_broken_batch_minimized.json", "mc_broken_chaselev_minimized.json",
        "mc_broken_join_counter.json", "mc_broken_node_recycle.json",
        "mc_broken_termination_order.json", "mc_broken_wakeup_gate.json"}) {
    std::ifstream in(std::string(MC_GOLDEN_DIR) + "/" + name);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::optional<Schedule> golden = Schedule::FromJson(buffer.str());
    ASSERT_TRUE(golden.has_value()) << name;
    StealHarness harness(*golden);
    const auto violates = [&](const ExecutionResult& result) {
      for (const PropertyReport& report : harness.Evaluate(result)) {
        if (report.name == golden->property && !report.holds) {
          return true;
        }
      }
      return false;
    };
    const ExecutionResult replayed = ReplayChoices(harness.Factory(), golden->choices);
    ASSERT_TRUE(violates(replayed)) << name;

    DfsExplorer::Options options;
    options.max_preemptions = replayed.preemptions;
    DfsExplorer explorer(options);
    const ExploreStats stats = explorer.Explore(
        harness.Factory(),
        [&](const ExecutionResult& result, uint32_t) { return !violates(result); });
    EXPECT_TRUE(stats.stopped_by_sink)
        << name << ": no " << golden->property << " violation at bound "
        << replayed.preemptions << " (" << stats.schedules_explored << " schedules)";
  }
}

TEST(PctStrategyTest, RandomizedSamplingDischargesPropertiesOnThreadCount) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 1, 2};
  config.attempts_per_worker = 2;
  StealHarness harness(config);

  PctStrategy pct(/*num_threads=*/3, /*depth_estimate=*/128, /*num_change_points=*/3,
                  /*seed=*/42);
  for (int i = 0; i < 64; ++i) {
    Scheduler scheduler;
    const ExecutionResult result = scheduler.Run(harness.MakeBodies(), pct);
    const std::vector<PropertyReport> reports = harness.Evaluate(result);
    EXPECT_EQ(StealHarness::FirstViolation(reports), nullptr) << Describe(reports);
    pct.Reset();
  }
}

}  // namespace
}  // namespace optsched::mc
