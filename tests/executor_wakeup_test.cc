// Regression tests for the lost-wakeup race between a parking worker and a
// concurrent Submit/mailbox push/spawn flush (executor.h, wakeup_gate.h).
//
// The race: a worker re-checks its queue (empty), the steal filter (empty),
// then parks. A Submit landing between the last re-check and the park entry
// used to be invisible until the park expired — with a large backoff bound
// the item sat queued for the rest of the run. The fix samples the wakeup epoch
// at the TOP of the worker loop and refuses to park (or bails out of an
// in-flight park) once the sample goes stale; producers bump the epoch AFTER
// the work is visible. The gate bumps only while some worker has announced
// itself idle; a worker announces on its first fruitless round and parks only
// on a sample taken after the announcement.
//
// A watchdog escalation notifies the same gate, so it ends a park the way
// new work does.
//
// These tests make the old window fatal: backoff long enough to outlast the
// whole run, work submitted only once every worker is deep in its park. If a
// wakeup is lost, the items are still queued at the deadline and
// items_left_unexecuted is nonzero.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/ingress/mailbox.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

using namespace std::chrono_literals;

runtime::ExecutorConfig DeepParkConfig() {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 20;
  // Park LONG once idle: a lost wakeup means the worker sleeps past the
  // RunFor deadline (the park's periodic stop-check still lets the run
  // terminate — with the submitted items unexecuted).
  config.initial_backoff_spins = 1ull << 22;
  config.max_backoff_spins = 1ull << 34;
  return config;
}

TEST(ExecutorWakeup, SubmitBatchBumpsOncePerBatchAndWakes) {
  runtime::Executor executor(policies::MakeThreadCount(), DeepParkConfig());

  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    std::vector<runtime::WorkItem> batch;
    for (uint64_t id = 0; id < 64; ++id) {
      batch.push_back({.id = id, .work_units = 1, .weight = 1024});
    }
    e.SubmitBatch(0, batch);
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());
  EXPECT_EQ(report.total_items, 64u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
}

// The same races, parameterized over the queue backend: the wakeup-epoch
// contract must hold whether the runqueue is the locked reference or the
// lock-free Chase-Lev deque (whose external submissions land in an inbox the
// owner drains — a second place a lost notify could strand work).
class ExecutorWakeupBackend : public ::testing::TestWithParam<runtime::QueueBackend> {};

TEST_P(ExecutorWakeupBackend, SubmitDuringDeepParkIsNotLost) {
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  runtime::Executor executor(policies::MakeThreadCount(), config);

  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    for (uint64_t id = 0; id < 100; ++id) {
      e.Submit(static_cast<uint32_t>(id % 4), {.id = id, .work_units = 1, .weight = 1024});
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());
  // The regression: without the wakeup epoch these stay queued until the
  // deadline and show up here instead of in items_executed.
  EXPECT_EQ(report.total_items, 100u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(report.Totals().items_executed, 100u);
  // With 60ms of idle warm-up and 2^22-spin initial parks, all four workers
  // are parked when the submits land: some park was cut short (or kept from
  // starting) by them.
  EXPECT_GT(report.Totals().submit_wakeups, 0u);
}

TEST_P(ExecutorWakeupBackend, SingleNotifyOnParkEdgeIsNotStranded) {
  // The tightest version of the race: ONE item per round, pushed only after
  // every worker is deep in its park, with no follow-up traffic to paper
  // over a lost notify. If NotifyIngress landing between an owner's last
  // DrainIngress and its park entry could be missed, that round's item sits
  // in the mailbox past the deadline. (The mc "ingress" harness proves the
  // interleaving exhaustively on the shipped loop; this drives real threads.)
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/4);
  config.ingress = &mailboxes;

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  std::atomic<uint64_t> admitted{0};
  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(50ms);
    for (uint64_t round = 0; round < 8 && !e.stopped(); ++round) {
      if (mailboxes.Push(static_cast<uint32_t>(round % 4),
                         {.id = round, .work_units = 1, .weight = 1024})) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
      // Let the woken owner drain, execute, and park again before the next
      // single-item notify, so every round re-arms the edge.
      std::this_thread::sleep_for(30ms);
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(600, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, admitted.load());
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(mailboxes.TotalPending(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ExecutorWakeupBackend,
    ::testing::Values(runtime::QueueBackend::kLocked, runtime::QueueBackend::kChaseLev),
    [](const ::testing::TestParamInfo<runtime::QueueBackend>& info) {
      return std::string(runtime::QueueBackendName(info.param));
    });

// One long task item: it waits until its siblings are deep in their parks,
// spawns a batch onto its OWN queue through SubmitFromWorker, then stays busy
// until the deadline — so only the siblings can run the batch, and only if
// the flush's gated notify woke them.
class SpawnThenHoldRunner : public runtime::TaskRunner {
 public:
  void RunItem(const runtime::WorkItem& /*item*/, runtime::Executor& executor,
               uint32_t worker) override {
    spawner_.store(worker, std::memory_order_relaxed);
    std::this_thread::sleep_for(60ms);
    std::vector<runtime::WorkItem> batch;
    for (uint64_t id = 1; id <= 100; ++id) {
      batch.push_back({.id = id, .work_units = 1, .weight = 1024});
    }
    executor.SubmitFromWorker(worker, batch.data(), static_cast<uint32_t>(batch.size()));
    while (!executor.stopped()) {
      std::this_thread::sleep_for(1ms);
    }
  }
  uint32_t spawner() const { return spawner_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint32_t> spawner_{0};
};

TEST_P(ExecutorWakeupBackend, LastBusyWorkerSpawnWakesParkedSiblings) {
  // Every worker but one is parked, and that last busy worker's spawn flush
  // is the only event that can wake them. The wakeup gate bumps the epoch
  // only while some worker has announced itself idle: if the parked
  // siblings were not counted — or the flush skipped its notify — the batch
  // would sit on the busy worker's queue until the deadline.
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  SpawnThenHoldRunner runner;
  config.task_runner = &runner;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, {{.id = 0, .work_units = 1, .weight = 1024, .task = 1}});

  const runtime::ExecutorReport report = executor.RunFor(/*duration_ms=*/400);
  SCOPED_TRACE(report.ToString());
  EXPECT_EQ(report.total_items, 101u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  uint64_t siblings_executed = 0;
  uint64_t submit_wakeups = 0;
  for (uint32_t w = 0; w < report.workers.size(); ++w) {
    if (w != runner.spawner()) {
      siblings_executed += report.workers[w].items_executed;
    }
    submit_wakeups += report.workers[w].submit_wakeups;
  }
  // The spawner ran only the trigger; the whole batch was stolen by woken
  // siblings.
  EXPECT_EQ(report.workers[runner.spawner()].items_executed, 1u);
  EXPECT_EQ(siblings_executed, 100u);
  EXPECT_GT(submit_wakeups, 0u);
}

TEST(ExecutorWakeup, WatchdogEscalationWakesParkedWorkers) {
  // The watchdog's escalation goes through the same gate: the supervisor's
  // Notify must cut the parks short. Every item is seeded on queue 0 and
  // every steal is aborted, so workers 1-3 sit idle next to an overloaded
  // queue, park for 2^22 spins and stay parked — no submission follows the
  // seeding, so only an escalation can move the epoch.
  runtime::ExecutorConfig config = DeepParkConfig();
  config.fault_plan.steal_abort_rate = 1.0;
  config.watchdog = true;
  // A streak of two samples escalates. The watchdog excuses a sample in
  // which a worker got no CPU time, so on a loaded host a short poll breaks
  // streaks; a 500 us poll over about 100 ms of work leaves enough unbroken.
  config.watchdog_threshold_samples = 1;
  config.supervisor_poll_us = 500;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t id = 0; id < 20'000; ++id) {
    items.push_back({.id = id, .work_units = 100, .weight = 1024});
  }
  executor.Seed(0, items);

  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  EXPECT_GT(report.watchdog.escalations, 0u);
  EXPECT_GT(report.Totals().submit_wakeups, 0u);
  // The run drains: worker 0 executes everything, nothing is stolen.
  EXPECT_EQ(report.total_items, 20'000u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(report.workers[0].items_executed, 20'000u);
  EXPECT_EQ(report.Totals().steals.successes, 0u);
}

TEST(ExecutorWakeup, MailboxNotifyWakesParkedOwner) {
  // The same race through the ingress path: a push into a parked owner's
  // mailbox fires MailboxSet's notify -> Executor::NotifyIngress -> epoch
  // bump. Without it the owner's drain waits out the full park.
  runtime::ExecutorConfig config = DeepParkConfig();
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/256);
  config.ingress = &mailboxes;

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  std::atomic<uint64_t> admitted{0};
  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    for (uint64_t id = 0; id < 100; ++id) {
      if (mailboxes.Push(static_cast<uint32_t>(id % 4),
                         {.id = id, .work_units = 1, .weight = 1024})) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
      (void)e;
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  // Capacity 256 per mailbox, 25 items each: everything is admitted, and an
  // admitted item must be drained and executed before the deadline.
  EXPECT_EQ(admitted.load(), 100u);
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(report.Totals().mailbox_items_drained, 100u);
  EXPECT_EQ(mailboxes.TotalPending(), 0);
}

}  // namespace
}  // namespace optsched
