// The "forkjoin" mc harness: exhaustive sweeps of the continuation-counted
// join protocol (src/task) over the real queues on both backends, and the
// seeded broken_join_counter and broken_node_recycle faults (their committed
// goldens replay in mc_replay_test).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/schedule.h"

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

namespace optsched::mc {
namespace {

Schedule ForkJoinConfig(runtime::QueueBackend backend, uint32_t workers, uint32_t depth,
                        uint32_t fanout) {
  Schedule config;
  config.harness = "forkjoin";
  config.policy = "thread-count";
  config.initial_loads.assign(workers, 0);  // only the root task is seeded
  config.attempts_per_worker = 2;
  config.backend = runtime::QueueBackendName(backend);
  config.tree_depth = depth;
  config.fanout = fanout;
  return config;
}

TEST(McForkJoinTest, ExhaustiveSweepIsCleanOnBothBackends) {
  MC_SKIP_UNDER_TSAN();
  // Depth-2 fanout-2 tree, two workers, preemption bound 2: every
  // interleaving of spawn, steal, and the last-arriver join race, on both
  // queue backends. All five properties must hold on every schedule.
  for (const auto backend :
       {runtime::QueueBackend::kLocked, runtime::QueueBackend::kChaseLev}) {
    StealHarness harness(ForkJoinConfig(backend, 2, 2, 2));
    DfsExplorer::Options options;
    options.max_preemptions = 2;
    DfsExplorer explorer(options);
    const PropertyReport* violation = nullptr;
    std::vector<PropertyReport> reports;
    const ExploreStats stats = explorer.Explore(
        harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
          reports = harness.Evaluate(result);
          violation = StealHarness::FirstViolation(reports);
          return violation == nullptr;
        });
    EXPECT_GT(stats.schedules_explored, 0u);
    EXPECT_EQ(stats.deadlocks, 0u);
    EXPECT_EQ(violation, nullptr)
        << runtime::QueueBackendName(backend) << ": " << (violation ? violation->name : "")
        << " — " << (violation ? violation->detail : "");
  }
}

TEST(McForkJoinTest, WiderFanoutSweepIsClean) {
  MC_SKIP_UNDER_TSAN();
  // Fanout 3 at depth 1: a three-way last-arriver race on the same counter.
  StealHarness harness(ForkJoinConfig(runtime::QueueBackend::kChaseLev, 2, 1, 3));
  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  const PropertyReport* violation = nullptr;
  std::vector<PropertyReport> reports;
  const ExploreStats stats =
      explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
        reports = harness.Evaluate(result);
        violation = StealHarness::FirstViolation(reports);
        return violation == nullptr;
      });
  EXPECT_GT(stats.schedules_explored, 0u);
  EXPECT_EQ(violation, nullptr) << (violation ? violation->name : "") << " — "
                                << (violation ? violation->detail : "");
}

TEST(McForkJoinTest, ChaseLevStealNeverSeesAnUncountedOwnerPush) {
  MC_SKIP_UNDER_TSAN();
  // PCT seeds (simctl --mc --mc-mode=pct --mc-harness=forkjoin
  // --mc-backend=chase_lev --mc-workers=3 --mc-samples=3000 --seed=S) that
  // failed while owner pushes stored their own_enq counters after the
  // deque slots: a thief took an item its victim had not counted yet, and
  // steal-safety blamed a correct victim. The counters now come first.
  for (const uint64_t seed : {7u, 11u}) {
    Schedule config = ForkJoinConfig(runtime::QueueBackend::kChaseLev, 3, 2, 2);
    config.seed = seed;
    StealHarness harness(config);
    PctStrategy pct(harness.num_workers(), /*depth_estimate=*/256, /*num_change_points=*/3,
                    seed);
    for (int i = 0; i < 3000; ++i) {
      Scheduler scheduler;
      const ExecutionResult result = scheduler.Run(harness.MakeBodies(), pct);
      const std::vector<PropertyReport> reports = harness.Evaluate(result);
      const PropertyReport* violation = StealHarness::FirstViolation(reports);
      ASSERT_EQ(violation, nullptr) << "seed " << seed << " sample " << i << ": "
                                    << violation->name << " — " << violation->detail;
      pct.Reset();
    }
  }
}

// The DFS at preemption bound 2 must find a join-fires-exactly-once
// violation under `config`'s seeded fault, and the shrunk schedule must still
// violate it.
void ExpectJoinViolationFoundAndMinimized(const Schedule& config) {
  StealHarness harness(config);
  auto still_violates = [&](const ExecutionResult& result) {
    for (const PropertyReport& report : harness.Evaluate(result)) {
      if (report.name == "join-fires-exactly-once" && !report.holds) {
        return true;
      }
    }
    return false;
  };

  DfsExplorer::Options options;
  options.max_preemptions = 2;
  DfsExplorer explorer(options);
  std::vector<uint32_t> counterexample;
  explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
    if (still_violates(result)) {
      counterexample = result.choices;
      return false;
    }
    return true;
  });
  ASSERT_FALSE(counterexample.empty()) << "checker missed the seeded fault";

  const std::vector<uint32_t> minimized =
      MinimizeCounterexample(harness.Factory(), counterexample, still_violates);
  EXPECT_LE(minimized.size(), counterexample.size());
  EXPECT_TRUE(still_violates(ReplayChoices(harness.Factory(), minimized)));
}

TEST(McForkJoinTest, BrokenJoinCounterIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded fault: a plain load/store decrement pair. Two children
  // completing concurrently read the same counter value, one decrement is
  // lost, and the continuation strands.
  Schedule config = ForkJoinConfig(runtime::QueueBackend::kLocked, 2, 1, 2);
  config.fault = "broken_join_counter";
  ExpectJoinViolationFoundAndMinimized(config);
}

TEST(McForkJoinTest, BrokenNodeRecycleIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded fault: a child whose decrement leaves the join above zero
  // frees the continuation. The worker's next fork reuses the node while a
  // sibling still owes it, and the original join never fires. Node ids
  // carry a generation, so the property tells the two lifetimes apart.
  Schedule config = ForkJoinConfig(runtime::QueueBackend::kLocked, 2, 2, 2);
  config.fault = "broken_node_recycle";
  ExpectJoinViolationFoundAndMinimized(config);
}

}  // namespace
}  // namespace optsched::mc
