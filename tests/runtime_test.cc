// Deeper runtime tests: seqlock consistency under concurrency, spinlock
// mutual exclusion, steal-phase semantics, and executor ablations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/core/policies/thread_count.h"
#include "src/core/policies/weighted.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/runtime/seqlock.h"
#include "src/runtime/spinlock.h"

namespace optsched {
namespace {

// One item through the external submit path (Executor::Submit's).
void PushOne(runtime::ConcurrentRunQueue& queue, const runtime::WorkItem& item) {
  queue.PushBatchExternal(&item, 1);
}

TEST(SpinLock, MutualExclusionCounter) {
  runtime::SpinLock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SpinLock, TryLockReflectsState) {
  runtime::SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(DualLockGuard, ConsistentRankingDoesNotDeadlock) {
  // The guard acquires in the caller-given order; deadlock freedom comes
  // from every site ranking a pair identically (the runtime uses queue
  // index). Two threads hammering the same ranked pair must make progress.
  runtime::SpinLock a;
  runtime::SpinLock b;
  std::atomic<int> done{0};
  std::thread t1([&] {
    for (int i = 0; i < 5000; ++i) {
      runtime::DualLockGuard guard(a, b);
    }
    ++done;
  });
  std::thread t2([&] {
    for (int i = 0; i < 5000; ++i) {
      runtime::DualLockGuard guard(a, b);
    }
    ++done;
  });
  t1.join();
  t2.join();
  EXPECT_EQ(done.load(), 2);
}

TEST(Seqlock, ReadersNeverSeeTornPairs) {
  // Writer publishes {x, 2x}; readers must always observe that relation.
  struct Pair {
    int64_t a;
    int64_t b;
  };
  runtime::Seqlock<Pair> cell;
  cell.Write({0, 0});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Pair p = cell.Read();
        if (p.b != 2 * p.a) {
          ++torn;
        }
      }
    });
  }
  for (int64_t i = 1; i <= 200000; ++i) {
    cell.Write({i, 2 * i});
  }
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
}

TEST(ConcurrentRunQueue, LoadTracksOwnerOperations) {
  runtime::ConcurrentRunQueue q;
  EXPECT_EQ(q.ReadLoad().task_count, 0);
  PushOne(q, {.id = 1, .work_units = 1, .weight = 100});
  PushOne(q, {.id = 2, .work_units = 1, .weight = 200});
  EXPECT_EQ(q.ReadLoad().task_count, 2);
  EXPECT_EQ(q.ReadLoad().weighted_load, 300);
  const auto item = q.PopForRun();
  ASSERT_TRUE(item.has_value());
  // Running item still counts toward the load (it is the "current" thread).
  EXPECT_EQ(q.ReadLoad().task_count, 2);
  q.FinishCurrent();
  EXPECT_EQ(q.ReadLoad().task_count, 1);
  EXPECT_EQ(q.ReadLoad().weighted_load, item->id == 1 ? 200 : 100);
}

TEST(ConcurrentRunQueue, ReadLoadBoundsItsRetriesAgainstANonstopPublisher) {
  // The owner publishes twice per cycle (pop, finish) without a pause. Each
  // ReadLoad absorbs at most kSeqlockReadAttempts torn attempts and then
  // reads under the queue lock, so no read waits on the owner going quiet,
  // and every read is a consistent pair (weight 1024 per task).
  runtime::ConcurrentRunQueue q;
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const runtime::WorkItem item{.id = 1, .work_units = 1, .weight = 1024};
    while (!stop.load(std::memory_order_relaxed)) {
      q.PushBatchOwner(&item, 1);
      q.PopForRun();
      q.FinishCurrent();
    }
  });
  uint64_t max_retries = 0;
  uint64_t torn = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t before = q.SeqlockReadRetries();
    const runtime::LoadPair load = q.ReadLoad();
    max_retries = std::max(max_retries, q.SeqlockReadRetries() - before);
    torn += load.weighted_load != 1024 * load.task_count ? 1 : 0;
  }
  stop = true;
  owner.join();
  EXPECT_LE(max_retries, runtime::ConcurrentRunQueue::kSeqlockReadAttempts);
  EXPECT_EQ(torn, 0u);
}

TEST(ConcurrentMachine, StealMovesTailToThief) {
  runtime::ConcurrentMachine machine(2);
  PushOne(machine.queue(0), {.id = 1, .work_units = 1, .weight = 1024});
  PushOne(machine.queue(0), {.id = 2, .work_units = 1, .weight = 1024});
  PushOne(machine.queue(0), {.id = 3, .work_units = 1, .weight = 1024});
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, /*thief=*/1, machine.Snapshot(), rng,
                               runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.successes, 1u);
  EXPECT_EQ(machine.queue(1).ReadLoad().task_count, 1);
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 2);
}

TEST(ConcurrentMachine, StaleSnapshotFailsRecheck) {
  runtime::ConcurrentMachine machine(2);
  PushOne(machine.queue(0), {.id = 1, .work_units = 1, .weight = 1024});
  PushOne(machine.queue(0), {.id = 2, .work_units = 1, .weight = 1024});
  const auto policy = policies::MakeThreadCount();
  const LoadSnapshot stale = machine.Snapshot();  // loads (2, 0)
  // The queue drains behind the snapshot's back.
  (void)machine.queue(0).PopForRun();
  machine.queue(0).FinishCurrent();
  (void)machine.queue(0).PopForRun();
  machine.queue(0).FinishCurrent();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine.TrySteal(*policy, 1, stale, rng, runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.failed_recheck, 1u);
  EXPECT_EQ(counters.successes, 0u);
}

TEST(ConcurrentMachine, EmptyFilterIsNotAnAttempt) {
  runtime::ConcurrentMachine machine(2);
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                                runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.empty_filter, 1u);
  EXPECT_EQ(counters.attempts, 0u);
}

TEST(ConcurrentMachine, WeightedMigrationRespectsDiff) {
  runtime::ConcurrentMachine machine(2);
  // Victim: two heavy items. Thief weighted load 0 -> only items lighter
  // than the diff migrate; both qualify here, tail goes first.
  PushOne(machine.queue(0), {.id = 1, .work_units = 1, .weight = 9000});
  PushOne(machine.queue(0), {.id = 2, .work_units = 1, .weight = 100});
  const auto policy = policies::MakeWeightedLoad();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                               runtime::StealOptions{}, counters));
  EXPECT_EQ(machine.queue(1).ReadLoad().weighted_load, 100);  // tail item
}

TEST(ConcurrentMachine, LockedSnapshotIsExact) {
  runtime::ConcurrentMachine machine(3);
  PushOne(machine.queue(2), {.id = 1, .work_units = 1, .weight = 1024});
  const LoadSnapshot snap = machine.LockedSnapshot();
  EXPECT_EQ(snap.task_count[2], 1);
  EXPECT_EQ(snap.task_count[0], 0);
}

TEST(Executor, NoRecheckAblationStillDrains) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.recheck_filter = false;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 200; ++i) {
    items.push_back({.id = i, .work_units = 200, .weight = 1024});
  }
  executor.Seed(0, items);
  const auto report = executor.Run();
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 200u);
}

TEST(Executor, SeedsAcrossQueues) {
  runtime::ExecutorConfig config;
  config.num_workers = 3;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  for (uint32_t q = 0; q < 3; ++q) {
    std::vector<runtime::WorkItem> items;
    for (uint64_t i = 0; i < 10; ++i) {
      items.push_back({.id = q * 100 + i, .work_units = 10, .weight = 1024});
    }
    executor.Seed(q, items);
  }
  const auto report = executor.Run();
  EXPECT_EQ(report.total_items, 30u);
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 30u);
}

TEST(ExecutorReport, ThroughputAndToString) {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, {{.id = 1, .work_units = 10, .weight = 1024}});
  const auto report = executor.Run();
  EXPECT_GT(report.wall_time_ns, 0u);
  EXPECT_GT(report.throughput_items_per_ms(), 0.0);
  EXPECT_NE(report.ToString().find("items=1"), std::string::npos);
}

}  // namespace
}  // namespace optsched
