// Unit tests for the fault-injection subsystem: deterministic per-lane
// decision streams, counters, Reset, and the round-engine seams (dropped
// rounds, stragglers, injected aborts, stale snapshots) in isolation.

#include <gtest/gtest.h>

#include "src/core/balancer.h"
#include "src/core/hier_balancer.h"
#include "src/core/policies/thread_count.h"
#include "src/fault/fault.h"
#include "src/sched/machine_state.h"
#include "src/topology/topology.h"
#include "src/trace/accounting.h"

namespace optsched {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultStats;

std::vector<bool> DrawSequence(FaultInjector& injector, uint32_t lane, int n) {
  std::vector<bool> seq;
  for (int i = 0; i < n; ++i) {
    seq.push_back(injector.AbortSteal(lane));
  }
  return seq;
}

TEST(FaultInjector, SamePlanSameDecisions) {
  FaultPlan plan;
  plan.steal_abort_rate = 0.4;
  plan.seed = 42;
  FaultInjector a(plan, 4);
  FaultInjector b(plan, 4);
  for (uint32_t lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(DrawSequence(a, lane, 200), DrawSequence(b, lane, 200)) << "lane " << lane;
  }
  EXPECT_EQ(a.stats().injected_aborts, b.stats().injected_aborts);
}

TEST(FaultInjector, LanesAreIndependentStreams) {
  FaultPlan plan;
  plan.steal_abort_rate = 0.5;
  plan.seed = 7;
  // Lane 0's decisions must not depend on how often other lanes are probed.
  FaultInjector solo(plan, 4);
  FaultInjector interleaved(plan, 4);
  std::vector<bool> solo_seq = DrawSequence(solo, 0, 100);
  std::vector<bool> inter_seq;
  for (int i = 0; i < 100; ++i) {
    interleaved.AbortSteal(1);
    interleaved.AbortSteal(2);
    inter_seq.push_back(interleaved.AbortSteal(0));
    interleaved.AbortSteal(3);
  }
  EXPECT_EQ(solo_seq, inter_seq);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultPlan a_plan;
  a_plan.steal_abort_rate = 0.5;
  a_plan.seed = 1;
  FaultPlan b_plan = a_plan;
  b_plan.seed = 2;
  FaultInjector a(a_plan, 1);
  FaultInjector b(b_plan, 1);
  EXPECT_NE(DrawSequence(a, 0, 200), DrawSequence(b, 0, 200));
}

TEST(FaultInjector, ResetReplaysTheRun) {
  FaultPlan plan;
  plan.straggler_rate = 0.3;
  plan.crash_rate = 0.1;
  plan.seed = 99;
  FaultInjector injector(plan, 2);
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) {
    first.push_back(injector.StallCore(0));
    first.push_back(injector.CrashWorker(1));
    first.push_back(injector.DropRound());
  }
  const FaultStats before = injector.stats();
  injector.Reset();
  EXPECT_EQ(stats::CounterSum(injector.stats()), 0u);
  std::vector<bool> second;
  for (int i = 0; i < 100; ++i) {
    second.push_back(injector.StallCore(0));
    second.push_back(injector.CrashWorker(1));
    second.push_back(injector.DropRound());
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(stats::CounterSum(injector.stats()), stats::CounterSum(before));
}

TEST(FaultInjector, ZeroRatesNeverFireAndCountNothing) {
  FaultPlan plan;  // all-zero
  EXPECT_FALSE(plan.any());
  FaultInjector injector(plan, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(injector.StallCore(0));
    EXPECT_FALSE(injector.AbortSteal(1));
    EXPECT_FALSE(injector.StaleSnapshot(2));
    EXPECT_FALSE(injector.CrashWorker(0));
    EXPECT_FALSE(injector.DropRound());
  }
  EXPECT_EQ(stats::CounterSum(injector.stats()), 0u);
}

TEST(FaultInjector, CountsMatchFiredProbes) {
  FaultPlan plan;
  plan.steal_abort_rate = 0.5;
  plan.stale_snapshot_rate = 0.25;
  plan.seed = 3;
  FaultInjector injector(plan, 2);
  uint64_t fired_aborts = 0;
  uint64_t fired_stale = 0;
  for (int i = 0; i < 400; ++i) {
    fired_aborts += injector.AbortSteal(i % 2) ? 1 : 0;
    fired_stale += injector.StaleSnapshot(i % 2) ? 1 : 0;
  }
  const FaultStats stats = injector.stats();
  EXPECT_EQ(stats.injected_aborts, fired_aborts);
  EXPECT_EQ(stats.stale_snapshots, fired_stale);
  EXPECT_GT(fired_aborts, 100u);  // ~200 expected at rate 0.5
  EXPECT_GT(fired_stale, 40u);    // ~100 expected at rate 0.25
}

TEST(BalancerFaults, DropRoundLeavesLoadsUntouched) {
  FaultPlan plan;
  plan.drop_round_rate = 1.0;
  FaultInjector injector(plan, 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({5, 0, 0, 0});
  Rng rng(1);
  for (int round = 0; round < 10; ++round) {
    const RoundResult r = balancer.RunRound(machine, rng);
    EXPECT_TRUE(r.dropped);
    EXPECT_EQ(r.successes, 0u);
    EXPECT_EQ(r.potential_after, r.potential_before);
  }
  EXPECT_EQ(machine.Loads(LoadMetric::kTaskCount), (std::vector<int64_t>{5, 0, 0, 0}));
  EXPECT_EQ(injector.stats().dropped_rounds, 10u);
}

TEST(BalancerFaults, InjectedAbortsAreMarkedAndKeptApart) {
  FaultPlan plan;
  plan.steal_abort_rate = 1.0;  // every steal phase aborts
  FaultInjector injector(plan, 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({4, 4, 0, 0});
  Rng rng(1);
  const RoundResult r = balancer.RunRound(machine, rng);
  EXPECT_EQ(r.successes, 0u);
  EXPECT_GT(r.failures, 0u);
  EXPECT_EQ(r.injected_failures, r.failures);  // every failure was injected
  for (const CoreAction& action : r.actions) {
    if (action.outcome == StealOutcome::kFailedRecheck) {
      EXPECT_TRUE(action.injected);
    }
  }
  // Injected aborts are NOT genuine re-check losses: the genuine counter
  // stays zero, preserving the §4.3 attribution obligation.
  EXPECT_EQ(balancer.stats().failed_recheck, 0u);
  EXPECT_EQ(balancer.stats().injected_aborts, injector.stats().injected_aborts);
  EXPECT_GT(injector.stats().injected_aborts, 0u);
  // Loads unchanged: aborted steals leave the victim alone.
  EXPECT_EQ(machine.Loads(LoadMetric::kTaskCount), (std::vector<int64_t>{4, 4, 0, 0}));
}

TEST(BalancerFaults, StragglersSkipTheRound) {
  FaultPlan plan;
  plan.straggler_rate = 1.0;
  FaultInjector injector(plan, 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({4, 0, 0, 0});
  Rng rng(1);
  const RoundResult r = balancer.RunRound(machine, rng);
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(r.stalled, 4u);
  EXPECT_EQ(r.successes, 0u);
  EXPECT_EQ(machine.Loads(LoadMetric::kTaskCount), (std::vector<int64_t>{4, 0, 0, 0}));
}

TEST(BalancerFaults, DetachedInjectorRestoresCleanBehaviour) {
  FaultPlan plan;
  plan.drop_round_rate = 1.0;
  FaultInjector injector(plan, 4);
  LoadBalancer balancer(policies::MakeThreadCount());
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({4, 0, 0, 0});
  Rng rng(1);
  EXPECT_TRUE(balancer.RunRound(machine, rng).dropped);
  balancer.set_fault_injector(nullptr);
  const RoundResult clean = balancer.RunRound(machine, rng);
  EXPECT_FALSE(clean.dropped);
  EXPECT_GT(clean.successes, 0u);
}

TEST(HierBalancerFaults, SeamsReachTheLadderEngine) {
  // The hierarchical engine shares the flat engine's fault seams: the
  // injector attaches once and forwards to the inner (steal-phase) balancer.
  const Topology topo = Topology::Hierarchical(2, 1, 2, 2);
  FaultPlan plan;
  plan.drop_round_rate = 1.0;
  FaultInjector injector(plan, topo.num_cpus());
  HierarchicalBalancer balancer(policies::MakeThreadCount(), topo);
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({6, 0, 0, 0, 0, 0, 0, 0});
  Rng rng(5);
  EXPECT_TRUE(balancer.RunRound(machine, rng).dropped);
  EXPECT_EQ(machine.Loads(LoadMetric::kTaskCount), (std::vector<int64_t>{6, 0, 0, 0, 0, 0, 0, 0}));

  balancer.set_fault_injector(nullptr);
  EXPECT_FALSE(balancer.RunRound(machine, rng).dropped);
}

TEST(WatchdogFinalize, OpenTransientStreakCountsAtShutdown) {
  // Regression: a violation streak still open when the run ended was never
  // classified — the streak only got counted when a LATER round observed it
  // ending, so a chaos run that stopped mid-streak under-reported transient
  // violations. Finalize() closes the books.
  trace::ConservationWatchdog watchdog(2, {.threshold_rounds = 10});
  watchdog.ObserveRound(0, {0, 3});  // cpu0 idle-while-overloaded: streak 1
  watchdog.ObserveRound(1, {0, 3});  // streak 2, still below threshold
  EXPECT_EQ(watchdog.stats().transient_violations, 0u);  // nothing closed yet
  watchdog.Finalize();
  EXPECT_EQ(watchdog.stats().transient_violations, 1u);
  EXPECT_EQ(watchdog.stats().persistent_violations, 0u);
  EXPECT_EQ(watchdog.streak(0), 0u);
  // Idempotent: a second call finds every streak cleared.
  watchdog.Finalize();
  EXPECT_EQ(watchdog.stats().transient_violations, 1u);
}

TEST(WatchdogFinalize, OpenPersistentStreakDoesNotCountAsRecovered) {
  trace::ConservationWatchdog watchdog(2, {.threshold_rounds = 2});
  for (uint64_t round = 0; round < 5; ++round) {
    watchdog.ObserveRound(round, {0, 4});
  }
  EXPECT_EQ(watchdog.stats().persistent_violations, 1u);
  EXPECT_TRUE(watchdog.in_violation());
  watchdog.Finalize();
  // Already counted at its threshold crossing; ending the run is neither a
  // second violation nor a recovery.
  EXPECT_EQ(watchdog.stats().persistent_violations, 1u);
  EXPECT_EQ(watchdog.stats().recoveries, 0u);
  EXPECT_EQ(watchdog.stats().transient_violations, 0u);
  EXPECT_FALSE(watchdog.in_violation());
}

TEST(HierBalancerFaults, InjectedAbortsStayOutOfGenuineCounters) {
  const Topology topo = Topology::Hierarchical(2, 1, 2, 2);
  FaultPlan plan;
  plan.steal_abort_rate = 1.0;
  FaultInjector injector(plan, topo.num_cpus());
  HierarchicalBalancer balancer(policies::MakeThreadCount(), topo);
  balancer.set_fault_injector(&injector);
  MachineState machine = MachineState::FromLoads({4, 4, 0, 0, 4, 4, 0, 0});
  Rng rng(5);
  const RoundResult r = balancer.RunRound(machine, rng);
  EXPECT_EQ(r.successes, 0u);
  EXPECT_GT(r.failures, 0u);
  EXPECT_EQ(r.injected_failures, r.failures);
  EXPECT_EQ(balancer.stats().failed_recheck, 0u);
  EXPECT_GT(injector.stats().injected_aborts, 0u);
  EXPECT_EQ(machine.Loads(LoadMetric::kTaskCount), (std::vector<int64_t>{4, 4, 0, 0, 4, 4, 0, 0}));
}

}  // namespace
}  // namespace optsched
