// Chaos tests for the serving front end (docs/serving.md): producer shards
// hammer the bounded mailboxes through the IngressRouter while the executor
// drains them — under overload, injected ingress faults, and worker
// crash-and-restart. The obligations:
//
//   * no lost admitted items — every item a mailbox accepted is executed,
//     still runqueued at the deadline, or still mailbox-resident; the only
//     way out of the system is an explicit, counted shed;
//   * faults are visible (counted and traced), never silent;
//   * the watchdog charges only a worker that stays announced idle, and an
//     idle worker drains its mailbox at every round boundary, so ingress
//     overload and delayed drains produce zero persistent work-conservation
//     violations against a healthy scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/executor.h"
#include "src/runtime/spinlock.h"
#include "src/trace/accounting.h"

namespace optsched {
namespace {

struct ChaosRun {
  runtime::ExecutorReport report;
  ingress::ShardStats ingress_totals;
  uint64_t admitted = 0;          // sum of mailbox total_pushed at quiescence
  uint64_t drained = 0;           // sum of mailbox total_drained at quiescence
  int64_t mailbox_residue = 0;    // TotalPending after everything joined
  fault::FaultStats router_faults;
};

// Runs `num_shards` producer threads offering `offers_per_shard` keyed items
// each through the router while the executor drains mailboxes for
// `duration_ms`. The producer threads are joined before RunFor returns (they
// run inside the producer callback), so every counter read afterwards is at
// quiescence.
ChaosRun RunChaos(runtime::ExecutorConfig config, ingress::RouterConfig router_config,
                  uint32_t num_shards, uint64_t offers_per_shard, uint64_t duration_ms,
                  uint64_t pacing_spins) {
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/64);
  config.ingress = &mailboxes;
  router_config.num_shards = num_shards;
  ingress::IngressRouter router(mailboxes, router_config);

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  const auto producer = [&](runtime::Executor&) {
    std::vector<std::thread> shards;
    for (uint32_t s = 0; s < num_shards; ++s) {
      shards.emplace_back([&, s] {
        for (uint64_t i = 0; i < offers_per_shard; ++i) {
          const uint64_t session = s * offers_per_shard + i;
          router.Offer(s, session,
                       {.id = session, .work_units = 1, .weight = 1024});
          for (uint64_t spin = 0; spin < pacing_spins; ++spin) {
            runtime::CpuRelax();
          }
        }
      });
    }
    for (auto& t : shards) {
      t.join();
    }
  };

  ChaosRun run;
  run.report = executor.RunFor(duration_ms, producer);
  run.ingress_totals = router.TotalStats();
  for (uint32_t w = 0; w < config.num_workers; ++w) {
    run.admitted += mailboxes.mailbox(w).total_pushed();
    run.drained += mailboxes.mailbox(w).total_drained();
  }
  run.mailbox_residue = mailboxes.TotalPending();
  if (router.injector() != nullptr) {
    run.router_faults = router.injector()->stats();
  }
  return run;
}

void ExpectAdmittedConservation(const ChaosRun& run) {
  const auto& totals = run.ingress_totals;
  // Every offer resolved to exactly one fate.
  EXPECT_EQ(totals.offered,
            totals.admitted_home + totals.admitted_spill + totals.shed);
  // "Admitted" at the router equals "pushed" at the mailboxes.
  EXPECT_EQ(run.admitted, totals.admitted_home + totals.admitted_spill);
  // Mailbox conservation: accepted == drained + still resident.
  EXPECT_EQ(run.admitted,
            run.drained + static_cast<uint64_t>(run.mailbox_residue));
  // Executor conservation: every drained item was counted submitted, and is
  // either executed or still runqueued at the deadline.
  EXPECT_EQ(run.drained, run.report.Totals().mailbox_items_drained);
  EXPECT_EQ(run.drained, run.report.total_items);
  uint64_t executed = 0;
  for (const auto& w : run.report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(run.admitted, executed + run.report.items_left_unexecuted +
                              static_cast<uint64_t>(run.mailbox_residue));
}

TEST(IngressChaos, OverloadWithShedKeepsEveryAdmittedItem) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 400;  // slow consumers: the mailboxes WILL fill
  config.watchdog = true;
  ingress::RouterConfig router_config;
  router_config.admission.policy = ingress::AdmissionPolicy::kShed;

  const ChaosRun run = RunChaos(config, router_config, /*num_shards=*/4,
                                /*offers_per_shard=*/30'000, /*duration_ms=*/300,
                                /*pacing_spins=*/0);
  SCOPED_TRACE(run.report.ToString());
  ExpectAdmittedConservation(run);
  // The open loop out-ran the consumers: shedding actually engaged — drops
  // happen ONLY through this counted path.
  EXPECT_GT(run.ingress_totals.shed, 0u);
  EXPECT_GT(run.admitted, 0u);
  // Overload at the edge is not a conservation violation: the workers were
  // busy and the backlog was mailbox-resident, never idle-while-overloaded.
  EXPECT_EQ(run.report.watchdog.persistent_violations, 0u);
}

TEST(IngressChaos, SpillPolicyKeepsConservationAcrossSiblings) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 300;
  ingress::RouterConfig router_config;
  router_config.admission.policy = ingress::AdmissionPolicy::kSpillToSibling;
  router_config.admission.max_spill_hops = 3;

  const ChaosRun run = RunChaos(config, router_config, 4, 30'000, 300, 0);
  SCOPED_TRACE(run.report.ToString());
  ExpectAdmittedConservation(run);
  // Spill admits strictly more than shed would have at the same load.
  EXPECT_GT(run.ingress_totals.admitted_spill, 0u);
}

TEST(IngressChaos, CrashRestartAndIngressFaultsLoseNothingAndStayVisible) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 50;
  config.seed = 7;
  config.watchdog = true;
  // Workers genuinely die (between items) and get restarted; the mailboxes
  // and runqueues are shared, so admitted items must survive every crash.
  config.fault_plan.crash_rate = 0.0005;
  config.fault_plan.crash_restart_us = 100;
  // The owner occasionally skips a drain opportunity: items sit
  // admitted-but-undrained one round longer, which the watchdog must read as
  // pending, not as an idle-while-overloaded violation.
  config.fault_plan.drain_delay_rate = 0.2;
  config.fault_plan.seed = 7;

  ingress::RouterConfig router_config;
  router_config.admission.policy = ingress::AdmissionPolicy::kSpillToSibling;
  router_config.fault_plan.mailbox_enqueue_fail_rate = 0.02;
  router_config.fault_plan.producer_stall_rate = 0.001;
  router_config.fault_plan.producer_stall_us = 50;
  router_config.fault_plan.seed = 11;
  router_config.trace_capacity_per_shard = 1 << 12;

  // Paced offers: queues run dry between bursts, so the round-boundary drain
  // path (and its DelayDrain seam) is exercised, not just the periodic one.
  const ChaosRun run = RunChaos(config, router_config, /*num_shards=*/2,
                                /*offers_per_shard=*/20'000, /*duration_ms=*/400,
                                /*pacing_spins=*/200);
  SCOPED_TRACE(run.report.ToString());
  ExpectAdmittedConservation(run);

  // Every injected fault class fired and is visible in the counters.
  EXPECT_GT(run.report.faults.crashes, 0u);
  EXPECT_GT(run.report.faults.delayed_drains, 0u);
  EXPECT_GT(run.router_faults.mailbox_enqueue_failures, 0u);
  EXPECT_EQ(run.router_faults.mailbox_enqueue_failures,
            run.ingress_totals.enqueue_faults);
  // Faults surface as metrics/sheds, never as persistent watchdog violations
  // — transient ones are expected and allowed.
  EXPECT_EQ(run.report.watchdog.persistent_violations, 0u);
}

// An ingress source with nothing to admit whose PendingFor puts worker 1's
// thread to sleep on its first call, as a host with more runnable threads
// than CPUs does to a thread waiting for its time slice.
class DeschedulingIngress final : public runtime::IngressSource {
 public:
  explicit DeschedulingIngress(std::chrono::milliseconds nap) : nap_(nap) {}

  uint32_t Drain(uint32_t /*worker*/, std::vector<runtime::WorkItem>& /*out*/,
                 uint32_t /*max_items*/) override {
    return 0;
  }
  int64_t PendingFor(uint32_t worker) const override {
    if (worker == 1 && !napped_.exchange(true)) {
      std::this_thread::sleep_for(nap_);
    }
    return 0;
  }

 private:
  const std::chrono::milliseconds nap_;
  mutable std::atomic<bool> napped_{false};
};

// Two workers with the watchdog on and `ingress` attached, 20k items seeded
// on worker 0, for 40 ms.
runtime::ExecutorReport RunSeededPairFor40Ms(runtime::IngressSource& ingress) {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  config.watchdog = true;
  config.ingress = &ingress;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items(20'000);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {.id = i + 1, .work_units = 20, .weight = 1024};
  }
  executor.Seed(0, items);
  return executor.RunFor(/*duration_ms=*/40);
}

// Worker 1 goes idle at once and then sleeps for 30 ms while worker 0's
// queue holds thousands of items: idle-while-overloaded by the loads alone,
// about 300 watchdog samples long. A thread the OS does not run cannot act
// on the loads it is shown, so none of those samples may count toward a
// persistent violation.
TEST(IngressWatchdog, ExcusesAWorkerTheOsDidNotRun) {
  DeschedulingIngress ingress(std::chrono::milliseconds(30));
  const runtime::ExecutorReport report = RunSeededPairFor40Ms(ingress);
  EXPECT_GT(report.watchdog.observations, 100u) << report.ToString();
  EXPECT_EQ(report.watchdog.persistent_violations, 0u) << report.ToString();
}

// A thief whose every round boundary costs 40 us of its own CPU time, on a
// worker whose items take a few microseconds: it steals one item, runs it and
// spends the rest of each ~45 us cycle at the boundary with load 0, so most
// watchdog samples (every 50 us and more) read it idle next to a sibling
// holding thousands. It runs an item between almost any two samples, so it is
// not idle over the intervals, and no streak may count as persistent. This
// is the shape ThreadSanitizer's slowdown gave ExcusesAWorkerTheOsDidNotRun.
class SlowBoundaryIngress final : public runtime::IngressSource {
 public:
  uint32_t Drain(uint32_t /*worker*/, std::vector<runtime::WorkItem>& /*out*/,
                 uint32_t /*max_items*/) override {
    return 0;
  }
  int64_t PendingFor(uint32_t worker) const override {
    if (worker == 1) {
      const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(40);
      while (std::chrono::steady_clock::now() < until) {
        runtime::CpuRelax();
      }
    }
    return 0;
  }
};

TEST(IngressWatchdog, ExcusesAThiefThatRanItemsBetweenSamples) {
  SlowBoundaryIngress ingress;
  const runtime::ExecutorReport report = RunSeededPairFor40Ms(ingress);
  EXPECT_GT(report.workers[1].steals.successes, 100u) << report.ToString();
  EXPECT_GT(report.watchdog.observations, 100u) << report.ToString();
  EXPECT_EQ(report.watchdog.persistent_violations, 0u) << report.ToString();
}

// The per-core verdict in isolation: a core its caller reports not idle is
// never charged, even at load 0 beside an overloaded core, while the same
// core reported idle is; an empty verdict is exactly the verdict load == 0.
TEST(IngressWatchdog, NotIdleVerdictIsNeverCharged) {
  trace::ConservationWatchdog excused(2, {.threshold_rounds = 4});
  trace::ConservationWatchdog charged(2, {.threshold_rounds = 4});
  const std::vector<int64_t> loads = {0, 5};           // core 0 at load 0, core 1 overloaded
  const std::vector<bool> not_idle = {false, false};   // ...but core 0 was not idle
  const std::vector<bool> load_zero = {true, false};   // the verdict load == 0
  for (uint64_t round = 0; round < 16; ++round) {
    EXPECT_FALSE(excused.ObserveRound(round, loads, not_idle, nullptr));
    charged.ObserveRound(round, loads, load_zero, nullptr);
  }
  excused.Finalize();
  charged.Finalize();
  EXPECT_EQ(excused.stats().persistent_violations, 0u);
  EXPECT_EQ(excused.stats().transient_violations, 0u);
  EXPECT_EQ(excused.stats().max_streak_rounds, 0u);
  // Same loads, reported idle: the streak crosses the threshold.
  EXPECT_GT(charged.stats().persistent_violations, 0u);

  // The defaulted verdict is exactly load == 0.
  trace::ConservationWatchdog defaulted(2, {.threshold_rounds = 4});
  for (uint64_t round = 0; round < 16; ++round) {
    defaulted.ObserveRound(round, loads);
  }
  defaulted.Finalize();
  EXPECT_EQ(defaulted.stats().persistent_violations, charged.stats().persistent_violations);
}

// A not-idle report never excuses OTHER cores: overload is judged on loads
// alone, so an overloaded core reported not idle still obliges the others.
TEST(IngressWatchdog, NotIdleVerdictDoesNotExcuseOtherCores) {
  trace::ConservationWatchdog watchdog(3, {.threshold_rounds = 2});
  // Core 0 at load 0 but not idle (excused), core 1 idle (violating — core 2
  // is overloaded and core 1 could steal from it).
  const std::vector<int64_t> loads = {0, 0, 6};
  const std::vector<bool> idle = {false, true, false};
  bool escalated = false;
  for (uint64_t round = 0; round < 8; ++round) {
    escalated |= watchdog.ObserveRound(round, loads, idle, nullptr);
  }
  EXPECT_TRUE(escalated);
  EXPECT_EQ(watchdog.stats().persistent_violations, 1u);  // core 1 only
}

}  // namespace
}  // namespace optsched
