// Chaos harness: the same seeded FaultPlan perturbs the model-level round
// engine, the discrete-event simulator, and the real-thread executor, and in
// every layer the optimistic protocol must degrade gracefully — convergence
// within a bounded number of rounds, zero *persistent* watchdog violations
// (transient ones are expected and counted), no lost work, and failure
// attribution that survives injection (§4.3: every genuine failed re-check
// implicates a successful steal earlier in the round's linearization).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/core/balancer.h"
#include "src/core/conservation.h"
#include "src/core/policies/thread_count.h"
#include "src/fault/fault.h"
#include "src/runtime/executor.h"
#include "src/sched/machine_state.h"
#include "src/sim/simulator.h"
#include "src/trace/accounting.h"
#include "src/verify/convergence.h"
#include "src/workload/workloads.h"

namespace optsched {
namespace {

fault::FaultPlan ModerateChaos(uint64_t seed) {
  fault::FaultPlan plan;
  plan.straggler_rate = 0.25;
  plan.steal_abort_rate = 0.25;
  plan.stale_snapshot_rate = 0.25;
  plan.drop_round_rate = 0.15;
  plan.seed = seed;
  return plan;
}

// --- Model level -------------------------------------------------------------

TEST(ChaosModel, ConvergesUnderModerateFaultRates) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    fault::FaultInjector injector(ModerateChaos(seed), 8);
    LoadBalancer balancer(policies::MakeThreadCount());
    balancer.set_fault_injector(&injector);
    MachineState machine = MachineState::FromLoads({12, 9, 7, 0, 0, 0, 1, 3});
    Rng rng(seed);
    ConvergenceOptions options;
    options.max_rounds = 512;  // generous: faults stretch N, they must not unbound it
    const ConvergenceResult result = RunUntilWorkConserved(balancer, machine, rng, options);
    SCOPED_TRACE(result.ToString());
    EXPECT_TRUE(result.converged) << "seed " << seed;
    EXPECT_GT(stats::CounterSum(injector.stats()), 0u)
        << "plan injected nothing — not a chaos run";
  }
}

TEST(ChaosModel, FailedRecheckAttributionHoldsUnderInjection) {
  // §4.3 obligation, quantified over NON-injected actions only: a genuine
  // failed re-check means the state changed between snapshot and lock, and
  // the only mutators in a round are successful steals — so some kStole must
  // precede it in the executed order.
  fault::FaultPlan plan = ModerateChaos(17);
  fault::FaultInjector injector(plan, 6);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  Rng rng(7);
  uint64_t genuine_failures_checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int64_t> loads(6);
    for (auto& l : loads) {
      l = rng.NextInRange(0, 5);
    }
    MachineState machine = MachineState::FromLoads(loads);
    const RoundResult round = balancer.RunRound(machine, rng);
    if (round.dropped) {
      continue;
    }
    for (size_t pos = 0; pos < round.executed_order.size(); ++pos) {
      const CoreAction& action = round.actions[round.executed_order[pos]];
      if (action.outcome != StealOutcome::kFailedRecheck || action.injected) {
        continue;
      }
      ++genuine_failures_checked;
      bool stole_earlier = false;
      for (size_t before = 0; before < pos; ++before) {
        if (round.actions[round.executed_order[before]].outcome == StealOutcome::kStole) {
          stole_earlier = true;
          break;
        }
      }
      EXPECT_TRUE(stole_earlier)
          << "genuine failed re-check with no successful steal before it (trial " << trial
          << ", thief " << action.thief << ")";
    }
  }
  // The harness must actually have exercised the obligation.
  EXPECT_GT(genuine_failures_checked, 0u);
}

TEST(ChaosModel, WatchdogSeesOnlyTransientViolationsForSoundPolicy) {
  fault::FaultInjector injector(ModerateChaos(3), 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({10, 0, 0, 2});
  Rng rng(3);
  trace::ConservationWatchdog watchdog(4, {.threshold_rounds = 32});
  for (uint64_t round = 0; round < 200 && !machine.WorkConserved(); ++round) {
    balancer.RunRound(machine, rng);
    watchdog.ObserveRound(round, machine.Loads(LoadMetric::kTaskCount));
  }
  EXPECT_TRUE(machine.WorkConserved());
  EXPECT_EQ(watchdog.stats().persistent_violations, 0u);
  EXPECT_FALSE(watchdog.in_violation());
}

TEST(ChaosModel, WatchdogFlagsBrokenBehaviourAsPersistent) {
  // A straggler pinning every core forever (rate 1.0) means no steal ever
  // happens: the idle-while-overloaded streak grows without bound and the
  // watchdog must escalate exactly once per crossing core.
  fault::FaultPlan plan;
  plan.straggler_rate = 1.0;
  fault::FaultInjector injector(plan, 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({6, 0, 0, 0});
  Rng rng(5);
  trace::ConservationWatchdog watchdog(4, {.threshold_rounds = 8});
  bool escalated = false;
  for (uint64_t round = 0; round < 32; ++round) {
    balancer.RunRound(machine, rng);
    escalated |= watchdog.ObserveRound(round, machine.Loads(LoadMetric::kTaskCount));
  }
  EXPECT_TRUE(escalated);
  EXPECT_GT(watchdog.stats().persistent_violations, 0u);
  EXPECT_TRUE(watchdog.in_violation());
  EXPECT_EQ(watchdog.stats().persistent_violations, 3u);  // cores 1..3 starved
}

// --- Verifier level ----------------------------------------------------------

TEST(ChaosVerify, SequentialConvergenceHoldsUnderFaults) {
  const auto policy = policies::MakeThreadCount();
  verify::ConvergenceCheckOptions options;
  options.bounds = verify::Bounds{.num_cores = 3, .max_load = 4};
  options.max_rounds = 512;
  options.fault_plan = ModerateChaos(11);
  const verify::ConvergenceCheckResult result =
      verify::CheckSequentialConvergence(*policy, options);
  EXPECT_TRUE(result.result.holds) << result.result.counterexample->note;
  // Faults stretch the bound but must keep it finite and within budget.
  EXPECT_GT(result.worst_case_rounds, 0u);
  EXPECT_LE(result.worst_case_rounds, options.max_rounds);
}

TEST(ChaosVerify, FaultPerturbedEdgesStayInTheGoodSet) {
  const auto policy = policies::MakeThreadCount();
  verify::ConvergenceCheckOptions options;
  options.bounds = verify::Bounds{.num_cores = 3, .max_load = 3};
  options.fault_plan = ModerateChaos(13);
  options.fault_probes_per_state = 6;
  const verify::ConvergenceCheckResult result =
      verify::CheckConcurrentConvergence(*policy, options);
  EXPECT_TRUE(result.result.holds);
  EXPECT_GT(result.faulty_edges_checked, 0u);
  // Same options minus the plan: the fault-free proof must agree and check
  // no perturbed edges.
  verify::ConvergenceCheckOptions clean = options;
  clean.fault_plan = fault::FaultPlan{};
  const verify::ConvergenceCheckResult base =
      verify::CheckConcurrentConvergence(*policy, clean);
  EXPECT_TRUE(base.result.holds);
  EXPECT_EQ(base.faulty_edges_checked, 0u);
  EXPECT_EQ(base.worst_case_rounds, result.worst_case_rounds);
}

// --- Simulator level ---------------------------------------------------------

TEST(ChaosSim, WorkloadCompletesWithWatchdogCleanAtModerateRates) {
  const Topology topo = Topology::Smp(8);
  sim::SimConfig config;
  config.lb_round.mode = RoundOptions::Mode::kConcurrentRandomOrder;
  config.fault_plan = ModerateChaos(23);
  config.watchdog = true;
  config.watchdog_threshold_rounds = 64;  // generous fault headroom over the model N
  sim::Simulator simulator(topo, policies::MakeThreadCount(), config, /*seed=*/23);
  workload::SubmitStaticImbalance(simulator,
                                  workload::StaticImbalanceConfig{.num_tasks = 64,
                                                                  .service_us = 20'000,
                                                                  .initial_cpus = 1});
  simulator.Run();
  const sim::SimMetrics& metrics = simulator.metrics();
  SCOPED_TRACE(metrics.ToString());
  EXPECT_EQ(metrics.tasks_completed, 64u);                    // no work lost to faults
  EXPECT_GT(stats::CounterSum(simulator.fault_stats()), 0u);  // chaos actually ran
  EXPECT_GT(metrics.migrations, 0u);                          // balancing still worked
  EXPECT_EQ(simulator.watchdog_stats().persistent_violations, 0u);
  EXPECT_EQ(metrics.watchdog_escalations, 0u);
}

TEST(ChaosSim, DeterministicUnderIdenticalPlans) {
  const Topology topo = Topology::Smp(4);
  auto run = [&] {
    sim::SimConfig config;
    config.fault_plan = ModerateChaos(31);
    config.watchdog = true;
    sim::Simulator simulator(topo, policies::MakeThreadCount(), config, /*seed=*/31);
    workload::SubmitStaticImbalance(simulator,
                                    workload::StaticImbalanceConfig{.num_tasks = 32,
                                                                    .service_us = 10'000,
                                                                    .initial_cpus = 1});
    simulator.Run();
    return std::tuple(simulator.metrics().makespan_us, simulator.metrics().migrations,
                      stats::CounterSum(simulator.fault_stats()),
                      simulator.watchdog_stats().observations);
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosSim, WatchdogEscalationRescuesStalledBalancing) {
  // Straggler rate 1.0: periodic rounds never move anything, so only the
  // watchdog's forced fault-free sequential round can fix the imbalance.
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config;
  config.fault_plan.straggler_rate = 1.0;
  config.fault_plan.seed = 41;
  config.watchdog = true;
  config.watchdog_threshold_rounds = 4;
  config.wake_placement = sim::WakePlacement::kLastCpu;  // keep tasks piled up
  sim::Simulator simulator(topo, policies::MakeThreadCount(), config, /*seed=*/41);
  workload::SubmitStaticImbalance(simulator,
                                  workload::StaticImbalanceConfig{.num_tasks = 16,
                                                                  .service_us = 50'000,
                                                                  .initial_cpus = 1});
  simulator.Run();
  const sim::SimMetrics& metrics = simulator.metrics();
  SCOPED_TRACE(metrics.ToString());
  EXPECT_EQ(metrics.tasks_completed, 16u);
  EXPECT_GT(metrics.watchdog_escalations, 0u);       // the rescue path fired
  EXPECT_GT(metrics.migrations, 0u);                 // and it actually moved work
  EXPECT_GT(simulator.watchdog_stats().recoveries, 0u);
}

// --- Executor level (real threads) -------------------------------------------

TEST(ChaosExecutor, DrainsEverythingThroughCrashesAndAborts) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 150;
  config.seed = 5;
  config.fault_plan.steal_abort_rate = 0.3;
  config.fault_plan.crash_rate = 0.01;  // per scheduling decision: a handful per run
  config.fault_plan.crash_restart_us = 100;
  config.fault_plan.seed = 5;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 600; ++i) {
    items.push_back(runtime::WorkItem{.id = i, .work_units = 1500, .weight = 1024});
  }
  executor.Seed(0, items);
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 600u);  // crash-and-restart loses no items
  EXPECT_GT(report.faults.injected_aborts, 0u);
  EXPECT_GT(report.faults.crashes, 0u);  // workers really died and came back
  EXPECT_EQ(report.faults.crashes, report.Totals().crashes);
  // Injected aborts are tallied apart from the genuine protocol outcomes, so
  // the counter identity attempts == successes + failed_recheck +
  // failed_no_task holds per worker even under injection.
  for (const runtime::WorkerStats& w : report.workers) {
    EXPECT_EQ(w.steals.attempts,
              w.steals.successes + w.steals.failed_recheck + w.steals.failed_no_task);
  }
}

// Records how often each item id ran. Items carry task = 1 so the executor
// routes them here instead of the calibrated spin.
class LedgerRunner : public runtime::TaskRunner {
 public:
  explicit LedgerRunner(size_t items) : runs_(items) {}
  void RunItem(const runtime::WorkItem& item, runtime::Executor& /*executor*/,
               uint32_t /*worker*/) override {
    runs_[item.id].fetch_add(1, std::memory_order_relaxed);
    for (volatile int spin = 0; spin < 200; ++spin) {
    }
  }
  // Ids that did not run exactly once (read after the run joined).
  size_t Mismatches() const {
    size_t bad = 0;
    for (const auto& runs : runs_) {
      bad += runs.load(std::memory_order_relaxed) != 1 ? 1 : 0;
    }
    return bad;
  }

 private:
  std::vector<std::atomic<uint32_t>> runs_;
};

std::vector<runtime::WorkItem> LedgerItems(uint64_t count) {
  std::vector<runtime::WorkItem> items;
  for (uint64_t id = 0; id < count; ++id) {
    items.push_back(runtime::WorkItem{.id = id, .work_units = 1, .weight = 1024, .task = 1});
  }
  return items;
}

uint64_t Executed(const runtime::ExecutorReport& report) {
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  return executed;
}

// Regression: a worker carries the next item out of each fused finish+pop
// (and out of each landing steal). Crashing or exiting while holding it
// would leave its queue's running slot set, and the restarted worker's
// first pop would abort with "owner already runs an item". The crash seam
// sits in front of the fused pop, so every crash leaves no item behind and
// every id runs exactly once.
TEST(ChaosExecutor, CrashesNeverStrandACarriedItem) {
  constexpr uint64_t kItems = 20000;
  LedgerRunner runner(kItems);
  runtime::ExecutorConfig config;
  config.num_workers = 3;
  config.seed = 11;
  config.task_runner = &runner;
  config.fault_plan.crash_rate = 0.002;  // a few dozen crashes per run
  config.fault_plan.crash_restart_us = 50;
  config.fault_plan.seed = 11;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const std::vector<runtime::WorkItem> items = LedgerItems(kItems);
  // Most work on queue 0 (owner pops, thieves land batches), some elsewhere.
  executor.Seed(0, std::vector<runtime::WorkItem>(items.begin(), items.begin() + 16000));
  executor.Seed(1, std::vector<runtime::WorkItem>(items.begin() + 16000, items.end()));
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  EXPECT_GT(report.Totals().crashes, 0u);
  EXPECT_EQ(Executed(report), kItems);
  EXPECT_EQ(runner.Mismatches(), 0u);
}

// Complete binary spawn trees of depth kSpawnDepth, one per seeded root:
// every item records its run in the ledger and an internal node spawns its
// two children through SubmitFromWorker, so most items are counted on the
// per-worker submitted counts rather than the external one. Ids are
// root * kTreeNodes + heap index.
constexpr uint64_t kSpawnDepth = 5;
constexpr uint64_t kTreeNodes = (uint64_t{1} << (kSpawnDepth + 1)) - 1;

class SpawningLedgerRunner : public LedgerRunner {
 public:
  explicit SpawningLedgerRunner(size_t roots) : LedgerRunner(roots * kTreeNodes) {}
  void RunItem(const runtime::WorkItem& item, runtime::Executor& executor,
               uint32_t worker) override {
    LedgerRunner::RunItem(item, executor, worker);
    const uint64_t base = item.id / kTreeNodes * kTreeNodes;
    const uint64_t local = item.id - base;
    if (local < kTreeNodes / 2) {
      const runtime::WorkItem children[2] = {
          {.id = base + 2 * local + 1, .work_units = 1, .weight = 1024, .task = 1},
          {.id = base + 2 * local + 2, .work_units = 1, .weight = 1024, .task = 1}};
      executor.SubmitFromWorker(worker, children, 2);
    }
  }
};

// Regression: a worker crashes and its replacement thread takes over the
// same single-writer termination-count slot. The spawns and executions of
// both threads must add up exactly — total_items, the executed count and the
// per-id ledger all agree — and the closed run must not end while a spawned
// item is still queued.
TEST(ChaosExecutor, CrashRestartKeepsSpawnCountsExact) {
  constexpr uint64_t kRoots = 200;
  SpawningLedgerRunner runner(kRoots);
  runtime::ExecutorConfig config;
  config.num_workers = 3;
  config.seed = 13;
  config.task_runner = &runner;
  config.fault_plan.crash_rate = 0.002;
  config.fault_plan.crash_restart_us = 50;
  config.fault_plan.seed = 13;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> roots;
  for (uint64_t r = 0; r < kRoots; ++r) {
    roots.push_back({.id = r * kTreeNodes, .work_units = 1, .weight = 1024, .task = 1});
  }
  executor.Seed(0, std::vector<runtime::WorkItem>(roots.begin(), roots.begin() + kRoots / 2));
  executor.Seed(1, std::vector<runtime::WorkItem>(roots.begin() + kRoots / 2, roots.end()));
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  EXPECT_GT(report.Totals().crashes, 0u);
  EXPECT_EQ(report.total_items, kRoots * kTreeNodes);
  EXPECT_EQ(Executed(report), kRoots * kTreeNodes);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(runner.Mismatches(), 0u);
  // Reuse: nothing new was submitted, so the next run reports nothing.
  EXPECT_EQ(executor.Run().total_items, 0u);
}

// Regression: a RunFor deadline lands while workers carry popped items.
// They run them to completion and pop nothing more, instead of exiting with
// the running slot set (the next Run() would trip the single-current check)
// or draining their whole queue past the deadline. The two runs together
// execute every id exactly once.
TEST(ChaosExecutor, RunForDeadlineThenRunKeepsTheLedgerExact) {
  constexpr uint64_t kItems = 400000;
  LedgerRunner runner(kItems);
  runtime::ExecutorConfig config;
  config.num_workers = 3;
  config.task_runner = &runner;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const std::vector<runtime::WorkItem> items = LedgerItems(kItems);
  executor.Seed(0, std::vector<runtime::WorkItem>(items.begin(), items.begin() + kItems / 2));
  executor.Seed(2, std::vector<runtime::WorkItem>(items.begin() + kItems / 2, items.end()));
  const runtime::ExecutorReport first = executor.RunFor(/*duration_ms=*/5);
  SCOPED_TRACE(first.ToString());
  ASSERT_GT(first.items_left_unexecuted, 0u) << "the deadline must cut the drain short";
  EXPECT_EQ(Executed(first) + first.items_left_unexecuted, kItems);
  const runtime::ExecutorReport second = executor.Run();
  EXPECT_EQ(second.total_items, first.items_left_unexecuted);
  EXPECT_EQ(Executed(first) + Executed(second), kItems);
  EXPECT_EQ(runner.Mismatches(), 0u);
}

TEST(ChaosExecutor, BackoffEngagesAndStaysBounded) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 300;
  config.initial_backoff_spins = 32;
  config.max_backoff_spins = 1 << 10;
  config.seed = 9;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  // One long item: three workers sit idle (backing off) while worker 0 works.
  executor.Seed(0, {runtime::WorkItem{.id = 1, .work_units = 400'000, .weight = 1024}});
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  EXPECT_GT(report.Totals().backoff_events, 0u);
  for (const runtime::WorkerStats& w : report.workers) {
    if (w.backoff_events == 0) {
      continue;
    }
    // Bounded: no single park may exceed the cap (mean check is looser but
    // robust to jitter): total <= events * max.
    EXPECT_LE(w.backoff_spins_total, w.backoff_events * config.max_backoff_spins);
  }
}

}  // namespace
}  // namespace optsched
