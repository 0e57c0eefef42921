// Schedule serialization, record/replay round-trips, the committed golden
// counterexample, and the Chrome-trace export of executions.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/schedule.h"
#include "src/mc/trace_export.h"

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

TEST(ScheduleJsonTest, RoundTripsAllFields) {
  Schedule schedule;
  schedule.harness = "balance";
  schedule.policy = "broken-cansteal";
  schedule.initial_loads = {0, 1, 2};
  schedule.attempts_per_worker = 3;
  schedule.seed = 12345;
  schedule.recheck = false;
  schedule.property = "bounded-steals";
  schedule.note = "5 successful steals > d0/2 = 4";
  schedule.choices = {0, 0, 1, 2, 1, 2, 0};

  const std::string json = schedule.ToJson();
  const std::optional<Schedule> parsed = Schedule::FromJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);
}

TEST(ScheduleJsonTest, EscapesStringsAndSurvivesEmptyArrays) {
  Schedule schedule;
  schedule.initial_loads = {1};
  schedule.note = "a \"quoted\" note\nwith a newline and a \\ backslash";
  schedule.choices = {};
  const std::optional<Schedule> parsed = Schedule::FromJson(schedule.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);
}

TEST(ScheduleJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Schedule::FromJson("").has_value());
  EXPECT_FALSE(Schedule::FromJson("{").has_value());
  EXPECT_FALSE(Schedule::FromJson("[]").has_value());
  EXPECT_FALSE(Schedule::FromJson("{}").has_value());  // missing required fields
  EXPECT_FALSE(Schedule::FromJson(R"({"harness": "balance"})").has_value());
}

TEST(ReplayTest, RecordedExecutionReplaysToIdenticalEventStream) {
  MC_SKIP_UNDER_TSAN();
  StealHarness::Config config;
  config.mode = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 2, 2};
  config.attempts_per_worker = 2;
  StealHarness harness(config);

  // Record under PCT (an adversarial-ish sampler), then replay the choices.
  PctStrategy pct(3, 128, 2, 7);
  Scheduler scheduler;
  const ExecutionResult recorded = scheduler.Run(harness.MakeBodies(), pct);
  const ExecutionResult replayed = ReplayChoices(harness.Factory(), recorded.choices);
  EXPECT_EQ(recorded.choices, replayed.choices);
  EXPECT_EQ(recorded.events, replayed.events);
  EXPECT_EQ(recorded.preemptions, replayed.preemptions);
}

TEST(ReplayTest, ScheduleCarriesHarnessIdentity) {
  MC_SKIP_UNDER_TSAN();
  StealHarness::Config config;
  config.mode = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 2};
  config.attempts_per_worker = 1;
  StealHarness harness(config);
  const Schedule schedule = harness.MakeSchedule({0, 1, 0});
  const StealHarness::Config round = StealHarness::Config::FromSchedule(schedule);
  EXPECT_EQ(round.mode, config.mode);
  EXPECT_EQ(round.policy, config.policy);
  EXPECT_EQ(round.initial_loads, config.initial_loads);
  EXPECT_EQ(round.attempts_per_worker, config.attempts_per_worker);
  EXPECT_EQ(round.recheck, config.recheck);
}

TEST(ReplayGoldenTest, CommittedBrokenCounterexampleStillViolates) {
  MC_SKIP_UNDER_TSAN();
  const std::string path = std::string(MC_GOLDEN_DIR) + "/mc_broken_minimized.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  const std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  // Serialization is byte-stable: re-emitting the parsed schedule reproduces
  // the committed file.
  EXPECT_EQ(schedule->ToJson(), content);
  EXPECT_EQ(schedule->property, "bounded-steals");

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);  // no divergence

  bool violated = false;
  for (const PropertyReport& report : harness.Evaluate(result)) {
    if (report.name == "bounded-steals" && !report.holds) {
      violated = true;
    }
  }
  EXPECT_TRUE(violated) << "golden counterexample no longer violates bounded-steals";
}

TEST(ReplayGoldenTest, CommittedBrokenBatchBoundStillIdlesItsVictim) {
  MC_SKIP_UNDER_TSAN();
  const std::string path = std::string(MC_GOLDEN_DIR) + "/mc_broken_batch_minimized.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  const std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->ToJson(), content);
  EXPECT_TRUE(schedule->break_batch_bound);
  EXPECT_EQ(schedule->property, "steal-safety");

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);

  bool violated = false;
  for (const PropertyReport& report : harness.Evaluate(result)) {
    if (report.name == "steal-safety" && !report.holds) {
      violated = true;
    }
  }
  EXPECT_TRUE(violated) << "golden counterexample no longer violates steal-safety";
}

TEST(ReplayGoldenTest, CommittedBrokenChaseLevOrderStillLosesAnItem) {
  MC_SKIP_UNDER_TSAN();
  // The broken-memory-order golden: a thief reading bottom before top (no
  // fence) pairs a stale bottom with a fresh top and claims a slot the owner
  // already executed. The double-claim shows up twice: the published depth
  // underflows (published-depth) and the item multiset gains a duplicate
  // (no-lost-items). The same sweep with the correct ordering is clean.
  const std::string path = std::string(MC_GOLDEN_DIR) + "/mc_broken_chaselev_minimized.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  const std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->ToJson(), content);
  EXPECT_EQ(schedule->backend, "chase_lev");
  EXPECT_TRUE(schedule->broken_steal_order);
  EXPECT_EQ(schedule->property, "published-depth");

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);

  bool depth_violated = false;
  bool conservation_violated = false;
  for (const PropertyReport& report : harness.Evaluate(result)) {
    if (report.name == "published-depth" && !report.holds) {
      depth_violated = true;
    }
    if (report.name == "no-lost-items" && !report.holds) {
      conservation_violated = true;
    }
  }
  EXPECT_TRUE(depth_violated) << "golden no longer violates published-depth";
  EXPECT_TRUE(conservation_violated) << "golden no longer violates no-lost-items";
}

TEST(ReplayGoldenTest, CorrectChaseLevOrderSurvivesTheGoldenSchedule) {
  MC_SKIP_UNDER_TSAN();
  // The SAME schedule replayed against the correct memory ordering must be
  // clean: the violation is pinned on the ordering, not on the harness.
  const std::string path = std::string(MC_GOLDEN_DIR) + "/mc_broken_chaselev_minimized.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::optional<Schedule> schedule = Schedule::FromJson(buffer.str());
  ASSERT_TRUE(schedule.has_value());
  schedule->broken_steal_order = false;

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  for (const PropertyReport& report : harness.Evaluate(result)) {
    EXPECT_TRUE(report.holds) << report.name << ": " << report.detail;
  }
}

TEST(McChaseLevTest, SizeOneTakeStealRaceIsExhaustivelyClean) {
  MC_SKIP_UNDER_TSAN();
  // The hardest corner of the deque: one item, the owner's PopBottom racing
  // a thief's top CAS. Drain mode makes both ends active (the owner pops to
  // execute, the idle worker steals); bound-2 DFS covers every interleaving
  // of the bottom store / fence / top CAS protocol, discharging that exactly
  // one side wins, nothing is lost, and the accounting stays exact.
  for (const std::vector<int64_t>& loads :
       {std::vector<int64_t>{1, 0}, std::vector<int64_t>{1, 1}}) {
    StealHarness::Config config;
    config.mode = "drain";
    config.policy = "thread-count";
    config.initial_loads = loads;
    config.attempts_per_worker = 2;
    config.backend = runtime::QueueBackend::kChaseLev;
    StealHarness harness(config);

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
    EXPECT_EQ(violation, nullptr)
        << (violation ? violation->name : "") << " — " << (violation ? violation->detail : "");
  }
}

TEST(McWakeupModeTest, NotifyBetweenDrainAndParkNeverStrandsItems) {
  MC_SKIP_UNDER_TSAN();
  // Exhaustive sweep of the notify/park handshake on both backends: no
  // deadlock, no stranded mailbox items, conservation of admitted work.
  for (const auto backend :
       {runtime::QueueBackend::kLocked, runtime::QueueBackend::kChaseLev}) {
    StealHarness::Config config;
    config.mode = "wakeup";
    config.policy = "thread-count";
    config.initial_loads = {0, 0};
    config.attempts_per_worker = 2;
    config.backend = backend;
    StealHarness harness(config);

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

// Reads a committed golden; empty when the file is missing.
std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MC_GOLDEN_DIR) + "/" + name);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool Violates(StealHarness& harness, const ExecutionResult& result, const std::string& property) {
  for (const PropertyReport& report : harness.Evaluate(result)) {
    if (report.name == property && !report.holds) {
      return true;
    }
  }
  return false;
}

// Explores `config` exhaustively at `bound` until `property` fails, then
// minimizes the counterexample; empty when the checker found nothing.
std::vector<uint32_t> FindAndMinimize(const StealHarness::Config& config, uint32_t bound,
                                      const std::string& property) {
  StealHarness harness(config);
  DfsExplorer::Options options;
  options.max_preemptions = bound;
  DfsExplorer explorer(options);
  std::vector<uint32_t> counterexample;
  explorer.Explore(harness.Factory(), [&](const ExecutionResult& result, uint32_t) {
    if (Violates(harness, result, property)) {
      counterexample = result.choices;
      return false;
    }
    return true;
  });
  if (counterexample.empty()) {
    return {};
  }
  return MinimizeCounterexample(
      harness.Factory(), counterexample,
      [&](const ExecutionResult& result) { return Violates(harness, result, property); });
}

TEST(McWakeupModeTest, BrokenWakeupGateIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded gate fault: an owner announces itself idle only after its
  // last mailbox re-check and parks on that round's sample. A push landing
  // between the re-check and the announcement reads no idle owner, the
  // gated notify skips its bump, and the owner parks through the item.
  StealHarness::Config config;
  config.mode = "wakeup";
  config.policy = "thread-count";
  config.initial_loads = {0, 0};
  config.attempts_per_worker = 2;
  config.broken_wakeup_gate = true;
  const std::vector<uint32_t> minimized = FindAndMinimize(config, 2, "no-lost-wakeup");
  ASSERT_FALSE(minimized.empty()) << "checker missed the broken wakeup gate";
  StealHarness harness(config);
  EXPECT_TRUE(Violates(harness, ReplayChoices(harness.Factory(), minimized), "no-lost-wakeup"));
}

TEST(McForkJoinTerminationTest, BrokenTerminationOrderIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded read-order fault: the quiescence sum reads the submitted
  // counts first, the root runs and spawns in between, and its executed
  // bump then balances the stale submitted sum — the idle worker exits with
  // the children still queued. The DFS needs bound 3: its sleep sets make
  // the two-preemption form of this schedule (found by PCT and committed as
  // the golden) equivalent to one that starts the other worker first.
  StealHarness::Config config;
  config.mode = "forkjoin";
  config.policy = "thread-count";
  config.initial_loads = {0, 0};
  config.attempts_per_worker = 2;
  config.tree_depth = 1;
  config.fanout = 2;
  config.broken_termination_order = true;
  const std::vector<uint32_t> minimized = FindAndMinimize(config, 3, "no-premature-exit");
  ASSERT_FALSE(minimized.empty()) << "checker missed the broken termination read order";
  StealHarness harness(config);
  EXPECT_TRUE(
      Violates(harness, ReplayChoices(harness.Factory(), minimized), "no-premature-exit"));
}

TEST(ReplayGoldenTest, CommittedBrokenTerminationOrderStillExitsEarly) {
  MC_SKIP_UNDER_TSAN();
  const std::string content = ReadGolden("mc_broken_termination_order.json");
  ASSERT_FALSE(content.empty()) << "missing golden mc_broken_termination_order.json";
  const std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->ToJson(), content);
  EXPECT_EQ(schedule->harness, "forkjoin");
  EXPECT_TRUE(schedule->broken_termination_order);
  EXPECT_EQ(schedule->property, "no-premature-exit");

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);
  EXPECT_TRUE(Violates(harness, result, "no-premature-exit"))
      << "golden no longer violates no-premature-exit";
}

TEST(ReplayGoldenTest, ShippedTerminationOrderSurvivesTheGoldenSchedule) {
  MC_SKIP_UNDER_TSAN();
  // The SAME schedule with executed-then-submitted restored is clean: the
  // violation is pinned on the read order, not on the interleaving.
  std::optional<Schedule> schedule =
      Schedule::FromJson(ReadGolden("mc_broken_termination_order.json"));
  ASSERT_TRUE(schedule.has_value());
  schedule->broken_termination_order = false;
  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  for (const PropertyReport& report : harness.Evaluate(result)) {
    EXPECT_TRUE(report.holds) << report.name << ": " << report.detail;
  }
}

TEST(ReplayGoldenTest, CommittedBrokenWakeupGateStillParksThroughAnItem) {
  MC_SKIP_UNDER_TSAN();
  const std::string content = ReadGolden("mc_broken_wakeup_gate.json");
  ASSERT_FALSE(content.empty()) << "missing golden mc_broken_wakeup_gate.json";
  const std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->ToJson(), content);
  EXPECT_EQ(schedule->harness, "wakeup");
  EXPECT_TRUE(schedule->broken_wakeup_gate);
  EXPECT_EQ(schedule->property, "no-lost-wakeup");

  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);
  EXPECT_TRUE(Violates(harness, result, "no-lost-wakeup"))
      << "golden no longer violates no-lost-wakeup";
}

TEST(ReplayGoldenTest, ShippedWakeupGateSurvivesTheGoldenSchedule) {
  MC_SKIP_UNDER_TSAN();
  // Announce-then-recheck restored: the owner goes round once more after
  // announcing, sees the item, and never parks through it.
  std::optional<Schedule> schedule = Schedule::FromJson(ReadGolden("mc_broken_wakeup_gate.json"));
  ASSERT_TRUE(schedule.has_value());
  schedule->broken_wakeup_gate = false;
  StealHarness harness(StealHarness::Config::FromSchedule(*schedule));
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  for (const PropertyReport& report : harness.Evaluate(result)) {
    EXPECT_TRUE(report.holds) << report.name << ": " << report.detail;
  }
}

TEST(TraceExportTest, ExecutionExportsToChromeTraceJson) {
  MC_SKIP_UNDER_TSAN();
  StealHarness::Config config;
  config.mode = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 2, 2};
  config.attempts_per_worker = 1;
  StealHarness harness(config);
  const ExecutionResult result = ReplayChoices(harness.Factory(), {});
  const std::string json = ExecutionToChromeTraceJson(result, harness.num_workers());
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("worker 1"), std::string::npos);

  const std::vector<trace::TraceEvent> events = ToTraceEvents(result.events);
  EXPECT_FALSE(events.empty());
  // Harness events only by default; sync noise needs opting in.
  const std::vector<trace::TraceEvent> with_sync = ToTraceEvents(result.events, true);
  EXPECT_GT(with_sync.size(), events.size());
}

}  // namespace
}  // namespace optsched::mc
