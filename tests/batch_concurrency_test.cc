// Concurrent batched steal-half: batch semantics under the migration rule,
// the PopForRun invariant-before-mutation check, SubmitBatch racing draining
// workers, and a threaded steal-safety stress run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

// One item through the external submit path (Executor::Submit's).
void PushOne(runtime::ConcurrentRunQueue& queue, const runtime::WorkItem& item) {
  queue.PushBatchExternal(&item, 1);
}

runtime::WorkItem Item(uint64_t id) {
  return runtime::WorkItem{.id = id, .work_units = 1, .weight = 1024};
}

// gap 6 between victim and thief: the migration rule admits moves while
// 1 < victim - thief, i.e. exactly floor(6/2) = 3 items, and the policy's
// steal-half hint asks for ceil(6/2) = 3 — one action, three items.
TEST(BatchSteal, StealHalfMovesHalfTheGapInOneAction) {
  runtime::ConcurrentMachine machine(2);
  for (uint64_t id = 1; id <= 6; ++id) {
    PushOne(machine.queue(0), Item(id));
  }
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  runtime::StealObservation observation;
  Rng rng(1);
  const runtime::StealOptions options{.recheck = true, .max_batch = 8};
  EXPECT_TRUE(machine.TrySteal(*policy, /*thief=*/1, machine.Snapshot(), rng, options,
                               counters, nullptr, nullptr, &observation));
  EXPECT_EQ(counters.successes, 1u);
  EXPECT_EQ(counters.items_stolen, 3u);
  EXPECT_EQ(observation.items_moved, 3u);
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 3);
  EXPECT_EQ(machine.queue(1).ReadLoad().task_count, 3);
  EXPECT_EQ(observation.victim_tasks_after, 3);
  EXPECT_EQ(observation.thief_tasks_after, 3);
}

// max_batch = 1 is the steal_one ablation: identical to the original
// protocol, one item per successful action regardless of the policy hint.
TEST(BatchSteal, CapOfOnePreservesStealOne) {
  runtime::ConcurrentMachine machine(2);
  for (uint64_t id = 1; id <= 6; ++id) {
    PushOne(machine.queue(0), Item(id));
  }
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                               runtime::StealOptions{.recheck = true, .max_batch = 1},
                               counters));
  EXPECT_EQ(counters.successes, 1u);
  EXPECT_EQ(counters.items_stolen, 1u);
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 5);
}

// An oversized cap cannot idle the victim: each item is still gated by
// ShouldMigrate against loads updated move-by-move, so the batch stops the
// moment another move would not strictly shrink the gap.
TEST(BatchSteal, VictimNeverIdledEvenWithOversizedCap) {
  runtime::ConcurrentMachine machine(2);
  for (uint64_t id = 1; id <= 3; ++id) {
    PushOne(machine.queue(0), Item(id));
  }
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  runtime::StealObservation observation;
  Rng rng(1);
  const runtime::StealOptions options{.recheck = true, .max_batch = 1000};
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng, options, counters,
                               nullptr, nullptr, &observation));
  EXPECT_EQ(counters.items_stolen, 1u);  // floor(3/2): v=2,t=1 stops the batch
  EXPECT_GE(observation.victim_tasks_after, 1);
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 2);
}

// The mc fault knob really does violate steal safety: with the migration
// rule and the cap disabled the victim is stripped bare in one action. The
// model checker depends on this to demonstrate counterexample minimization.
TEST(BatchSteal, BrokenBatchBoundStripsVictimBare) {
  runtime::ConcurrentMachine machine(2);
  for (uint64_t id = 1; id <= 4; ++id) {
    PushOne(machine.queue(0), Item(id));
  }
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  runtime::StealObservation observation;
  Rng rng(1);
  const runtime::StealOptions options{
      .recheck = true, .max_batch = 1, .break_batch_bound = true};
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng, options, counters,
                               nullptr, nullptr, &observation));
  EXPECT_EQ(observation.items_moved, 4u);
  EXPECT_EQ(observation.victim_tasks_after, 0);  // the violation
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 0);
}

// PopForRun checks the single-current invariant BEFORE mutating: popping
// while an item is already running must abort, with the queue left exactly
// as it was (the old order popped first, so the post-mortem state lied).
TEST(RunQueueDeath, PopWhileRunningAbortsBeforeMutation) {
  runtime::ConcurrentRunQueue queue;
  PushOne(queue, Item(1));
  PushOne(queue, Item(2));
  ASSERT_TRUE(queue.PopForRun().has_value());
  EXPECT_DEATH(queue.PopForRun(), "owner already runs an item");
  // The parent's queue is untouched by the child's abort; the normal
  // pop/finish cycle still works and the load accounting is intact.
  EXPECT_EQ(queue.ReadLoad().task_count, 2);
  queue.FinishCurrent();
  EXPECT_EQ(queue.ReadLoad().task_count, 1);
  ASSERT_TRUE(queue.PopForRun().has_value());
  queue.FinishCurrent();
  EXPECT_EQ(queue.ReadLoad().task_count, 0);
}

// Threaded stress: four thieves hammer batched TrySteal against a deep queue
// (and each other). Steal safety is asserted from inside every successful
// critical section via StealObservation — no victim may be observed idle
// after a batch leaves, no matter how the threads interleave.
TEST(BatchStealStress, NoVictimObservedIdleUnderConcurrentBatchSteals) {
  constexpr uint32_t kThieves = 4;
  constexpr int kAttemptsPerThief = 3000;
  runtime::ConcurrentMachine machine(kThieves + 1);
  for (uint64_t id = 1; id <= 512; ++id) {
    PushOne(machine.queue(0), Item(id));
  }
  const auto policy = policies::MakeThreadCount();
  std::atomic<bool> victim_idled{false};
  std::atomic<uint64_t> total_batches{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t <= kThieves; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      runtime::StealCounters counters;
      runtime::StealScratch scratch;
      LoadSnapshot snapshot;
      const runtime::StealOptions options{.recheck = true, .max_batch = 8};
      for (int i = 0; i < kAttemptsPerThief; ++i) {
        machine.SnapshotInto(snapshot);
        runtime::StealObservation observation;
        if (machine.TrySteal(*policy, t, snapshot, rng, options, counters, nullptr,
                             nullptr, &observation, &scratch)) {
          total_batches.fetch_add(1, std::memory_order_relaxed);
          if (observation.victim_tasks_after < 1) {
            victim_idled.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(victim_idled.load());
  EXPECT_GT(total_batches.load(), 0u);
  // Conservation: every seeded item is still queued somewhere.
  int64_t total = 0;
  for (uint32_t q = 0; q <= kThieves; ++q) {
    total += machine.queue(q).ReadLoad().task_count;
  }
  EXPECT_EQ(total, 512);
}

// Regression for the Submit/SubmitBatch ordering unification: batches are
// submitted concurrently with workers draining, and the closed accounting
// (executed + left == submitted) must hold — a batch whose items became
// poppable before the remaining-item counter moved could wrap the counter
// and terminate the run early, losing items.
TEST(ExecutorBatch, SubmitBatchRacesDrainingWorkers) {
  const auto policy = policies::MakeThreadCount();
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 1;
  config.max_steal_batch = 4;
  config.seed = 7;
  runtime::Executor executor(policy, config);
  std::atomic<uint64_t> submitted{0};
  const auto producer = [&](runtime::Executor& ex) {
    uint64_t next_id = 1;
    uint32_t queue = 0;
    while (!ex.stopped()) {
      std::vector<runtime::WorkItem> batch;
      batch.reserve(32);
      for (int i = 0; i < 32; ++i) {
        batch.push_back(Item(next_id++));
      }
      ex.SubmitBatch(queue % config.num_workers, batch);
      submitted.fetch_add(batch.size(), std::memory_order_relaxed);
      ++queue;
      std::this_thread::yield();
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(100, producer);
  EXPECT_EQ(report.total_items, submitted.load());
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed + report.items_left_unexecuted, report.total_items);
  EXPECT_GT(executed, 0u);
}

// Closed-system batched run: one overloaded queue, batching on. Everything
// drains, and the action/item split obeys its invariant
// (successes <= items_stolen <= successes * max_batch).
TEST(ExecutorBatch, BatchedRunDrainsAndSplitsActionAndItemCounts) {
  const auto policy = policies::MakeThreadCount();
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 1;
  config.max_steal_batch = 8;
  config.seed = 3;
  runtime::Executor executor(policy, config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t id = 1; id <= 2000; ++id) {
    items.push_back(Item(id));
  }
  executor.Seed(0, items);
  const runtime::ExecutorReport report = executor.Run();
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 2000u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  const runtime::StealCounters steals = report.Totals().steals;
  EXPECT_GE(steals.items_stolen, steals.successes);
  EXPECT_LE(steals.items_stolen, steals.successes * uint64_t{config.max_steal_batch});
}

}  // namespace
}  // namespace optsched
