// Deeper runtime tests: published-load reads under concurrency, spinlock
// mutual exclusion, steal-phase semantics, and executor ablations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/core/policies/weighted.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
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

TEST(ConcurrentRunQueue, ReadLoadSeesPublishedColumnsAgainstANonstopPublisher) {
  // The owner publishes on every push, pop and finish without a pause. A
  // read takes no lock and never retries, and each column is a value some
  // publish wrote: the queue holds 0..2 items of weight 1024. The columns
  // may come from two different publishes, so they are checked one by one.
  runtime::ConcurrentRunQueue q;
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const runtime::WorkItem items[2] = {{.id = 1, .work_units = 1, .weight = 1024},
                                        {.id = 2, .work_units = 1, .weight = 1024}};
    while (!stop.load(std::memory_order_relaxed)) {
      q.PushBatchOwner(items, 2);
      for (int k = 0; k < 2; ++k) {
        q.PopForRun();
        q.FinishCurrent();
      }
    }
  });
  uint64_t out_of_range = 0;
  for (int i = 0; i < 20000; ++i) {
    const runtime::LoadPair load = q.ReadLoad();
    const bool tasks_ok = load.task_count >= 0 && load.task_count <= 2;
    const bool weight_ok = load.weighted_load == 0 || load.weighted_load == 1024 ||
                           load.weighted_load == 2048;
    out_of_range += tasks_ok && weight_ok ? 0 : 1;
  }
  stop = true;
  owner.join();
  EXPECT_EQ(out_of_range, 0u);
}

// Seeds `queue` through the owner push. On kChaseLev an external push would
// land in the inbox, where no thief can take it.
void SeedOwner(runtime::ConcurrentRunQueue& queue, std::vector<runtime::WorkItem> items) {
  queue.PushBatchOwner(items.data(), static_cast<uint32_t>(items.size()));
}

// The stealing phase on both backends. A kLocked thief takes the victim's
// newest item (tail first); a kChaseLev thief takes its oldest (the deque's
// top). Each test states what the migration rule admits at that end.
class ConcurrentMachineSteal : public ::testing::TestWithParam<runtime::QueueBackend> {
 protected:
  bool Locked() const { return GetParam() == runtime::QueueBackend::kLocked; }
  runtime::ConcurrentMachine machine_{2, {.backend = GetParam()}};
};

// Thread-count gap 3: the rule admits a move at either end, and the default
// steal_one cap moves exactly one item.
TEST_P(ConcurrentMachineSteal, StealMovesOneItemToThief) {
  SeedOwner(machine_.queue(0), {{.id = 1, .work_units = 1, .weight = 1024},
                                {.id = 2, .work_units = 1, .weight = 1024},
                                {.id = 3, .work_units = 1, .weight = 1024}});
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  runtime::StealObservation observation;
  Rng rng(1);
  EXPECT_TRUE(machine_.TrySteal(*policy, /*thief=*/1, machine_.Snapshot(), rng,
                                runtime::StealOptions{}, counters, nullptr, nullptr,
                                &observation));
  EXPECT_EQ(counters.successes, 1u);
  EXPECT_EQ(observation.item_id, Locked() ? 3u : 1u);
  EXPECT_EQ(machine_.queue(1).ReadLoad().task_count, 1);
  EXPECT_EQ(machine_.queue(0).ReadLoad().task_count, 2);
}

TEST_P(ConcurrentMachineSteal, StaleSnapshotFailsRecheck) {
  SeedOwner(machine_.queue(0), {{.id = 1, .work_units = 1, .weight = 1024},
                                {.id = 2, .work_units = 1, .weight = 1024}});
  const auto policy = policies::MakeThreadCount();
  const LoadSnapshot stale = machine_.Snapshot();  // loads (2, 0)
  // The queue drains behind the snapshot's back.
  (void)machine_.queue(0).PopForRun();
  machine_.queue(0).FinishCurrent();
  (void)machine_.queue(0).PopForRun();
  machine_.queue(0).FinishCurrent();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine_.TrySteal(*policy, 1, stale, rng, runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.failed_recheck, 1u);
  EXPECT_EQ(counters.successes, 0u);
}

TEST_P(ConcurrentMachineSteal, EmptyFilterIsNotAnAttempt) {
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine_.TrySteal(*policy, 1, machine_.Snapshot(), rng,
                                 runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.empty_filter, 1u);
  EXPECT_EQ(counters.attempts, 0u);
}

TEST_P(ConcurrentMachineSteal, WeightedMigrationRespectsDiff) {
  // Victim: a heavy item (oldest) and a light one (newest); thief weighted
  // load 0, so the diff is 9100. The rule admits any item lighter than the
  // diff, so both qualify and the thief takes the one at its end: the light
  // newest item on kLocked, the heavy oldest one on kChaseLev.
  SeedOwner(machine_.queue(0), {{.id = 1, .work_units = 1, .weight = 9000},
                                {.id = 2, .work_units = 1, .weight = 100}});
  const auto policy = policies::MakeWeightedLoad();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine_.TrySteal(*policy, 1, machine_.Snapshot(), rng,
                                runtime::StealOptions{}, counters));
  EXPECT_EQ(machine_.queue(1).ReadLoad().weighted_load, Locked() ? 100 : 9000);
  EXPECT_EQ(machine_.queue(0).ReadLoad().weighted_load, Locked() ? 9000 : 100);
}

INSTANTIATE_TEST_SUITE_P(Backends, ConcurrentMachineSteal,
                         ::testing::Values(runtime::QueueBackend::kLocked,
                                           runtime::QueueBackend::kChaseLev),
                         [](const ::testing::TestParamInfo<runtime::QueueBackend>& info) {
                           return std::string(runtime::QueueBackendName(info.param));
                         });

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

// The supervisor runs only while the watchdog or the trace rings need it, and
// never sleeps past a RunFor deadline. A 200 ms poll makes a run that waits
// on one read about 200 ms; each run here must end well before that.
runtime::ExecutorConfig SlowPollConfig() {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  config.supervisor_poll_us = 200'000;
  return config;
}
constexpr uint64_t kUnderOnePollNs = 100'000'000;

TEST(ExecutorSupervisor, ClosedRunWithoutWatchdogWaitsOnNoPoll) {
  runtime::Executor executor(policies::MakeThreadCount(), SlowPollConfig());
  std::vector<runtime::WorkItem> items(4000);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = {.id = i + 1, .work_units = 1, .weight = 1024};
  }
  executor.Seed(0, items);
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_EQ(report.total_items, 4000u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_LT(report.wall_time_ns, kUnderOnePollNs) << report.ToString();
}

TEST(ExecutorSupervisor, RunForWithoutWatchdogEndsAtItsDeadline) {
  runtime::Executor executor(policies::MakeThreadCount(), SlowPollConfig());
  const runtime::ExecutorReport report = executor.RunFor(20);
  EXPECT_GE(report.wall_time_ns, 20'000'000u);
  EXPECT_LT(report.wall_time_ns, kUnderOnePollNs) << report.ToString();
}

TEST(ExecutorSupervisor, WatchdogPollStopsAtTheDeadline) {
  runtime::ExecutorConfig config = SlowPollConfig();
  config.watchdog = true;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const runtime::ExecutorReport report = executor.RunFor(20);
  EXPECT_GT(report.watchdog.observations, 0u);
  EXPECT_GE(report.wall_time_ns, 20'000'000u);
  EXPECT_LT(report.wall_time_ns, kUnderOnePollNs) << report.ToString();
}

}  // namespace
}  // namespace optsched
