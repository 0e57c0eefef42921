// The "forkjoin" mc harness: exhaustive sweeps of the continuation-counted
// join protocol (src/task) over the real queues on both backends, the seeded
// broken-join-counter and broken-node-recycle faults, and their committed
// golden counterexamples.

#include <fstream>
#include <optional>
#include <sstream>
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

#ifndef MC_GOLDEN_DIR
#define MC_GOLDEN_DIR "tests/golden"
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
  config.broken_join_counter = true;
  ExpectJoinViolationFoundAndMinimized(config);
}

TEST(McForkJoinTest, BrokenNodeRecycleIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded fault: a child whose decrement leaves the join above zero
  // frees the continuation. The worker's next fork reuses the node while a
  // sibling still owes it, and the original join never fires. Node ids
  // carry a generation, so the property tells the two lifetimes apart.
  Schedule config = ForkJoinConfig(runtime::QueueBackend::kLocked, 2, 2, 2);
  config.broken_node_recycle = true;
  ExpectJoinViolationFoundAndMinimized(config);
}

TEST(McForkJoinTest, ScheduleRoundTripsForkJoinFields) {
  Schedule config = ForkJoinConfig(runtime::QueueBackend::kChaseLev, 3, 3, 2);
  config.broken_join_counter = true;
  config.broken_termination_order = true;
  config.broken_node_recycle = true;
  StealHarness harness(config);
  const Schedule schedule = harness.MakeSchedule({0, 1, 2});
  const std::optional<Schedule> parsed = Schedule::FromJson(schedule.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);
  const Schedule& round = *parsed;
  EXPECT_EQ(round.harness, "forkjoin");
  EXPECT_EQ(round.tree_depth, 3u);
  EXPECT_EQ(round.fanout, 2u);
  EXPECT_TRUE(round.broken_join_counter);
  EXPECT_TRUE(round.broken_termination_order);
  EXPECT_TRUE(round.broken_node_recycle);
}

// A committed forkjoin golden: byte-stable through the schedule parser, and
// its replay follows the recorded choices.
std::optional<Schedule> LoadGolden(const char* name) {
  const std::string path = std::string(MC_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::optional<Schedule> schedule = Schedule::FromJson(buffer.str());
  EXPECT_TRUE(schedule.has_value()) << path;
  if (schedule.has_value()) {
    EXPECT_EQ(schedule->ToJson(), buffer.str()) << path;
    EXPECT_EQ(schedule->harness, "forkjoin") << path;
    EXPECT_EQ(schedule->property, "join-fires-exactly-once") << path;
  }
  return schedule;
}

// Replays `schedule`; true when join-fires-exactly-once is violated. With
// `expect_clean` (the fault knob turned off, so the run may leave the
// recorded choices) every property must hold; without it the replay must
// follow the recorded choices exactly.
bool ReplayViolatesJoin(const Schedule& schedule, bool expect_clean) {
  StealHarness harness(schedule);
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule.choices);
  if (!expect_clean) {
    EXPECT_EQ(result.choices, schedule.choices);  // no divergence
  }
  bool violated = false;
  for (const PropertyReport& report : harness.Evaluate(result)) {
    violated |= report.name == "join-fires-exactly-once" && !report.holds;
    if (expect_clean) {
      EXPECT_TRUE(report.holds) << report.name << ": " << report.detail;
    }
  }
  return violated;
}

TEST(McForkJoinGoldenTest, CommittedBrokenJoinCounterStillStrandsItsContinuation) {
  MC_SKIP_UNDER_TSAN();
  const std::optional<Schedule> schedule = LoadGolden("mc_broken_join_counter.json");
  ASSERT_TRUE(schedule.has_value());
  EXPECT_TRUE(schedule->broken_join_counter);
  EXPECT_TRUE(ReplayViolatesJoin(*schedule, /*expect_clean=*/false))
      << "golden no longer violates join-fires-exactly-once";
}

TEST(McForkJoinGoldenTest, CorrectJoinCounterSurvivesTheGoldenSchedule) {
  MC_SKIP_UNDER_TSAN();
  // The SAME schedule with the atomic RMW restored must be clean: the
  // violation is pinned on the lost decrement, not on the harness.
  std::optional<Schedule> schedule = LoadGolden("mc_broken_join_counter.json");
  ASSERT_TRUE(schedule.has_value());
  schedule->broken_join_counter = false;
  EXPECT_FALSE(ReplayViolatesJoin(*schedule, /*expect_clean=*/true));
}

TEST(McForkJoinGoldenTest, CommittedBrokenNodeRecycleStillStrandsItsContinuation) {
  MC_SKIP_UNDER_TSAN();
  const std::optional<Schedule> schedule = LoadGolden("mc_broken_node_recycle.json");
  ASSERT_TRUE(schedule.has_value());
  EXPECT_TRUE(schedule->broken_node_recycle);
  EXPECT_TRUE(ReplayViolatesJoin(*schedule, /*expect_clean=*/false))
      << "golden no longer violates join-fires-exactly-once";
}

TEST(McForkJoinGoldenTest, ShippedRecycleSurvivesTheGoldenSchedule) {
  MC_SKIP_UNDER_TSAN();
  // The same schedule with nodes freed only at the end of their own run is
  // clean: reuse is safe once the lifetime rule holds.
  std::optional<Schedule> schedule = LoadGolden("mc_broken_node_recycle.json");
  ASSERT_TRUE(schedule.has_value());
  schedule->broken_node_recycle = false;
  EXPECT_FALSE(ReplayViolatesJoin(*schedule, /*expect_clean=*/true));
}

}  // namespace
}  // namespace optsched::mc
