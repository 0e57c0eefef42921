// Schedule serialization, record/replay round-trips, every committed golden
// counterexample, and the Chrome-trace export of executions.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/modes.h"
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
  schedule.max_steal_batch = 4;
  schedule.mailbox_capacity = 3;
  schedule.backend = "chase_lev";
  schedule.deque_capacity = 8;
  schedule.tree_depth = 3;
  schedule.fanout = 4;
  schedule.fault = "broken_steal_order";
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

// A key the schedule does not know, or a harness or fault no table row
// carries, must not replay as something else: a schedule written before the
// one `fault` field would otherwise replay fault-free and report clean.
TEST(ScheduleJsonTest, RejectsUnknownKeysModesAndFaults) {
  Schedule schedule;
  schedule.harness = "ingress";
  schedule.initial_loads = {0, 0};
  const std::string json = schedule.ToJson();
  ASSERT_TRUE(Schedule::FromJson(json).has_value());
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string edited = json;
    edited.replace(edited.find(from), from.size(), to);
    return Schedule::FromJson(edited);
  };
  EXPECT_FALSE(with("\"fault\": \"\"", "\"broken_wakeup_gate\": true").has_value());
  EXPECT_FALSE(with("\"fault\": \"\"", "\"fault\": \"broken_gate\"").has_value());
  EXPECT_FALSE(with("\"harness\": \"ingress\"", "\"harness\": \"sleeper\"").has_value());
  EXPECT_FALSE(with("\"fanout\": 2", "\"fanout\": \"2\"").has_value());
  EXPECT_TRUE(with("\"fault\": \"\"", "\"fault\": \"broken_wakeup_gate\"").has_value());
}

TEST(ReplayTest, RecordedExecutionReplaysToIdenticalEventStream) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
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
  Schedule config;
  config.harness = "balance";
  config.policy = "thread-count";
  config.initial_loads = {0, 2};
  config.attempts_per_worker = 1;
  StealHarness harness(config);
  Schedule expected = config;
  expected.choices = {0, 1, 0};
  EXPECT_EQ(harness.MakeSchedule({0, 1, 0}), expected);
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
    Schedule config;
    config.harness = "drain";
    config.policy = "thread-count";
    config.initial_loads = loads;
    config.attempts_per_worker = 2;
    config.backend = "chase_lev";
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

TEST(McChaseLevTest, InboxRefillIsNeverCountedTwiceByTheStealGate) {
  MC_SKIP_UNDER_TSAN();
  // Seeded items wait in the owner's inbox until its first pop refills the
  // deque. A thief whose gate counted the inbox before that refill and the
  // deque after it saw every refilled item twice and took the owner's last
  // item (steal-safety, found by the shipped-loop drain sweep). The gate now
  // reads the inbox count after its peek, and the refill drops the count
  // before it pushes.
  Schedule config;
  config.harness = "drain";
  config.policy = "thread-count";
  config.initial_loads = {0, 2, 0};
  config.attempts_per_worker = 1;
  config.backend = "chase_lev";
  StealHarness harness(config);

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
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_EQ(violation, nullptr)
      << (violation ? violation->name : "") << " — " << (violation ? violation->detail : "");
}

TEST(McIngressModeTest, NotifyBetweenDrainAndParkNeverStrandsItems) {
  MC_SKIP_UNDER_TSAN();
  // Exhaustive sweep of the notify/park handshake of the shipped loop on
  // both backends: no deadlock, no stranded mailbox items, conservation of
  // admitted work.
  for (const auto backend :
       {runtime::QueueBackend::kLocked, runtime::QueueBackend::kChaseLev}) {
    Schedule config;
    config.harness = "ingress";
    config.policy = "thread-count";
    config.initial_loads = {0, 0};
    config.attempts_per_worker = 2;
    config.backend = runtime::QueueBackendName(backend);
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
std::vector<uint32_t> FindAndMinimize(const Schedule& config, uint32_t bound,
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

TEST(McIngressModeTest, BrokenWakeupGateIsFoundAndMinimized) {
  MC_SKIP_UNDER_TSAN();
  // The seeded gate fault: an owner parks on the sample of the round in
  // which it announced itself idle, skipping the round that re-checks after
  // the announcement. A push landing between that round's mailbox check and
  // the announcement reads no idle owner, the gated notify skips its bump,
  // and the owner parks through the item.
  Schedule config;
  config.harness = "ingress";
  config.policy = "thread-count";
  config.initial_loads = {0, 0};
  config.attempts_per_worker = 2;
  config.fault = "broken_wakeup_gate";
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
  // the children still queued. Two preemptions suffice.
  Schedule config;
  config.harness = "forkjoin";
  config.policy = "thread-count";
  config.initial_loads = {0, 0};
  config.attempts_per_worker = 2;
  config.tree_depth = 1;
  config.fanout = 2;
  config.fault = "broken_termination_order";
  const std::vector<uint32_t> minimized = FindAndMinimize(config, 2, "no-premature-exit");
  ASSERT_FALSE(minimized.empty()) << "checker missed the broken termination read order";
  StealHarness harness(config);
  EXPECT_TRUE(
      Violates(harness, ReplayChoices(harness.Factory(), minimized), "no-premature-exit"));
}

// Every committed counterexample, tests/golden/mc_*.json.
std::vector<std::string> GoldenNames() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(MC_GOLDEN_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("mc_") && name.ends_with(".json")) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class GoldenTest : public ::testing::TestWithParam<std::string> {};

// A golden is byte-stable through the schedule parser, replays without
// diverging, and violates its recorded property with its recorded note (a
// stale note fails). A fault golden's choices
// replayed on the shipped code (fault cleared) violate nothing: the
// violation is pinned on the fault, not on the interleaving.
TEST_P(GoldenTest, ReplaysItsViolationAndOnlyWithItsFault) {
  MC_SKIP_UNDER_TSAN();
  const std::string content = ReadGolden(GetParam());
  std::optional<Schedule> schedule = Schedule::FromJson(content);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->ToJson(), content);
  ASSERT_FALSE(schedule->property.empty());

  StealHarness harness(*schedule);
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  EXPECT_EQ(result.choices, schedule->choices);  // no divergence
  const std::vector<PropertyReport> reports = harness.Evaluate(result);
  const auto violated = std::find_if(reports.begin(), reports.end(), [&](const auto& report) {
    return report.name == schedule->property && !report.holds;
  });
  ASSERT_NE(violated, reports.end()) << "golden no longer violates " << schedule->property;
  EXPECT_EQ(violated->detail, schedule->note);

  if (GetParam() == "mc_broken_chaselev_minimized.json") {
    // A thief reading bottom before top pairs a stale bottom with a fresh
    // top and claims a slot the owner already executed. The item runs twice,
    // the executed sum overtakes the submitted sum, and the closed run can
    // never read drained again: the thief parks for good (termination).
    EXPECT_TRUE(result.deadlock);
    std::vector<uint64_t> executed;
    for (const McEvent& event : result.events) {
      if (event.user_kind == kUserExecuteItem) {
        executed.push_back(static_cast<uint64_t>(event.arg0));
      }
    }
    std::sort(executed.begin(), executed.end());
    EXPECT_NE(std::adjacent_find(executed.begin(), executed.end()), executed.end())
        << "golden no longer executes an item twice";
  }

  if (const SeededFault* fault = FindFault(schedule->fault)) {
    EXPECT_EQ(schedule->property, fault->property);
    schedule->fault.clear();
    StealHarness shipped(*schedule);
    const ExecutionResult clean = ReplayChoices(shipped.Factory(), schedule->choices);
    for (const PropertyReport& report : shipped.Evaluate(clean)) {
      EXPECT_TRUE(report.holds) << report.name << ": " << report.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Committed, GoldenTest, ::testing::ValuesIn(GoldenNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param.substr(0, info.param.size() - 5);  // no ".json"
                         });

TEST(TraceExportTest, ExecutionExportsToChromeTraceJson) {
  MC_SKIP_UNDER_TSAN();
  Schedule config;
  config.harness = "balance";
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
