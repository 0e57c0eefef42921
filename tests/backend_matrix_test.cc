// The queue-backend concept contract, run against BOTH backends: the locked
// reference queue and the lock-free Chase-Lev queue must be observationally
// equivalent through the facade — same accounting (ReadLoad/ExactLoad), same
// owner pop/finish semantics, same batch-push behaviour — and the executor
// must complete identical workloads (including steals and ingress) on either.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/ingress/mailbox.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

using runtime::ConcurrentRunQueue;
using runtime::QueueBackend;
using runtime::WorkItem;

WorkItem Item(uint64_t id, uint32_t weight = 1024) {
  return WorkItem{.id = id, .work_units = 1, .weight = weight};
}

class BackendMatrix : public ::testing::TestWithParam<QueueBackend> {};

TEST_P(BackendMatrix, ExternalPushPopFinishAccounting) {
  ConcurrentRunQueue queue(GetParam());
  EXPECT_EQ(queue.backend(), GetParam());
  for (uint64_t id = 1; id <= 3; ++id) {
    const WorkItem item = Item(id, 100 * static_cast<uint32_t>(id));
    queue.PushBatchExternal(&item, 1);
  }
  runtime::LoadPair load = queue.ReadLoad();
  EXPECT_EQ(load.task_count, 3);
  EXPECT_EQ(load.weighted_load, 600);

  // A popped item stays part of the published load until FinishCurrent.
  std::optional<WorkItem> running = queue.PopForRun();
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(queue.ReadLoad().task_count, 3);
  queue.FinishCurrent();
  load = queue.ReadLoad();
  EXPECT_EQ(load.task_count, 2);
  EXPECT_EQ(load.weighted_load, 600 - static_cast<int64_t>(running->weight));

  // Drain the rest; the published and structural views agree throughout.
  std::vector<uint64_t> ids = {running->id};
  while (std::optional<WorkItem> item = queue.PopForRun()) {
    ids.push_back(item->id);
    queue.FinishCurrent();
    const runtime::LoadPair published = queue.ReadLoad();
    const runtime::LoadPair exact = queue.ExactLoad();
    EXPECT_EQ(published.task_count, exact.task_count);
    EXPECT_EQ(published.weighted_load, exact.weighted_load);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(queue.ReadLoad().task_count, 0);
  EXPECT_EQ(queue.ReadLoad().weighted_load, 0);
}

TEST_P(BackendMatrix, PushBatchOwnerPublishesTheWholeBatch) {
  ConcurrentRunQueue queue(GetParam());
  std::vector<WorkItem> batch;
  for (uint64_t id = 1; id <= 16; ++id) {
    batch.push_back(Item(id));
  }
  queue.PushBatchOwner(batch.data(), static_cast<uint32_t>(batch.size()));
  EXPECT_EQ(queue.ReadLoad().task_count, 16);
  EXPECT_EQ(queue.ExactLoad().task_count, 16);
}

TEST_P(BackendMatrix, ExternalPushStaysExactAtQuiescence) {
  // A non-owner thread lands batches with PushBatchExternal while the owner
  // pushes through its own path. The published decomposition must stay exact
  // at quiescence: the regression here is an external batch counted against
  // the owner's single-writer own_enq counter instead of the shared ext_enq
  // counter, which loses updates under a concurrent owner push.
  ConcurrentRunQueue queue(GetParam());
  constexpr uint64_t kBatches = 8;
  constexpr uint64_t kPerBatch = 16;
  constexpr uint64_t kTotal = 2 * kBatches * kPerBatch;
  const auto make_batch = [](uint64_t first_id) {
    std::vector<WorkItem> batch;
    for (uint64_t id = first_id; id < first_id + kPerBatch; ++id) {
      batch.push_back(Item(id, 100));
    }
    return batch;
  };
  std::thread producer([&] {
    for (uint64_t b = 0; b < kBatches; ++b) {
      const std::vector<WorkItem> batch = make_batch(1000 + b * kPerBatch);
      queue.PushBatchExternal(batch.data(), static_cast<uint32_t>(batch.size()));
    }
  });
  for (uint64_t b = 0; b < kBatches; ++b) {
    const std::vector<WorkItem> batch = make_batch(1 + b * kPerBatch);
    queue.PushBatchOwner(batch.data(), static_cast<uint32_t>(batch.size()));
  }
  producer.join();
  EXPECT_EQ(queue.ReadLoad().task_count, static_cast<int64_t>(kTotal));
  EXPECT_EQ(queue.ReadLoad().weighted_load, static_cast<int64_t>(kTotal * 100));
  EXPECT_EQ(queue.ExactLoad().task_count, static_cast<int64_t>(kTotal));
  EXPECT_EQ(queue.ExactLoad().weighted_load, static_cast<int64_t>(kTotal * 100));

  std::vector<uint64_t> ids;
  while (std::optional<WorkItem> item = queue.PopForRun()) {
    ids.push_back(item->id);
    const runtime::LoadPair published = queue.ReadLoad();
    const runtime::LoadPair exact = queue.ExactLoad();
    EXPECT_EQ(published.task_count, exact.task_count);
    EXPECT_EQ(published.weighted_load, exact.weighted_load);
    queue.FinishCurrent();
  }
  ASSERT_EQ(ids.size(), kTotal);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(queue.ReadLoad().task_count, 0);
  EXPECT_EQ(queue.ReadLoad().weighted_load, 0);
  EXPECT_EQ(queue.ExactLoad().task_count, 0);
}

TEST_P(BackendMatrix, FinishCurrentAndPopHandsTheRunningSlotOn) {
  ConcurrentRunQueue queue(GetParam());
  std::vector<WorkItem> batch;
  for (uint64_t id = 1; id <= 3; ++id) {
    batch.push_back(Item(id, 100 * static_cast<uint32_t>(id)));
  }
  queue.PushBatchOwner(batch.data(), 3);
  std::optional<WorkItem> item = queue.PopForRun();
  ASSERT_TRUE(item.has_value());
  std::vector<uint64_t> ids;
  int64_t tasks = 3;
  int64_t weight = 600;
  while (item.has_value()) {
    ids.push_back(item->id);
    tasks -= 1;
    weight -= item->weight;
    // The finished item leaves the load and the next one (if any) runs.
    item = queue.FinishCurrentAndPop();
    const runtime::LoadPair published = queue.ReadLoad();
    const runtime::LoadPair exact = queue.ExactLoad();
    EXPECT_EQ(published.task_count, tasks);
    EXPECT_EQ(published.weighted_load, weight);
    EXPECT_EQ(exact.task_count, tasks);
    EXPECT_EQ(exact.weighted_load, weight);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3}));
  // An empty fused pop leaves the owner not running: a plain pop and a
  // later push/pop cycle work as before.
  EXPECT_FALSE(queue.PopForRun().has_value());
  const WorkItem late = Item(9);
  queue.PushBatchExternal(&late, 1);
  item = queue.PopForRun();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->id, 9u);
  EXPECT_FALSE(queue.FinishCurrentAndPop().has_value());
  EXPECT_EQ(queue.ReadLoad().task_count, 0);
}

TEST_P(BackendMatrix, StealLandsThePoppedItemAsRunning) {
  // Two identical machines, one stealing with the plain landing and then
  // popping, one landing with run-next: the thief must end up running the
  // same item with the same queue behind it, and the landing must keep the
  // published load exact.
  const auto policy = policies::MakeThreadCount();
  const runtime::StealOptions options{.recheck = true, .max_batch = 8};
  auto seeded = [&] {
    auto machine = std::make_unique<runtime::ConcurrentMachine>(
        2, runtime::MachineOptions{.backend = GetParam()});
    std::vector<WorkItem> load;
    for (uint64_t id = 1; id <= 9; ++id) {
      load.push_back(Item(id));
    }
    machine->queue(1).PushBatchOwner(load.data(), static_cast<uint32_t>(load.size()));
    return machine;
  };
  auto drain = [](ConcurrentRunQueue& queue, std::optional<WorkItem> item) {
    std::vector<uint64_t> ids;
    while (item.has_value()) {
      ids.push_back(item->id);
      item = queue.FinishCurrentAndPop();
    }
    return ids;
  };

  auto plain = seeded();
  Rng plain_rng(3);
  runtime::StealCounters plain_counters;
  ASSERT_TRUE(plain->TrySteal(*policy, 0, plain->Snapshot(), plain_rng, options,
                              plain_counters));
  const std::vector<uint64_t> plain_ids =
      drain(plain->queue(0), plain->queue(0).PopForRun());

  auto landing = seeded();
  Rng landing_rng(3);
  runtime::StealCounters landing_counters;
  runtime::StealObservation observation;
  WorkItem landed;
  ASSERT_TRUE(landing->TrySteal(*policy, 0, landing->Snapshot(), landing_rng, options,
                                landing_counters, nullptr, nullptr, &observation, nullptr,
                                &landed));
  EXPECT_EQ(observation.items_moved, 4u);  // steal-half of 9 vs 0
  ConcurrentRunQueue& thief = landing->queue(0);
  EXPECT_EQ(thief.ReadLoad().task_count, 4);
  EXPECT_EQ(thief.ExactLoad().task_count, 4);
  EXPECT_EQ(thief.ReadLoad().weighted_load, 4 * 1024);
  EXPECT_EQ(thief.ExactLoad().weighted_load, 4 * 1024);
  // Running the landed item first, then the fused pops, visits exactly the
  // items in the order the plain landing's pops would.
  EXPECT_EQ(drain(thief, landed), plain_ids);
  EXPECT_EQ(thief.ReadLoad().task_count, 0);
  EXPECT_EQ(landing->queue(1).ReadLoad().task_count, 5);
}

TEST(BackendMatrixChaseLev, RingOverflowSpillsToInboxWithoutLosingItems) {
  // Capacity rounds to 4: an 11-item owner batch overflows the ring and the
  // remainder must spill to the inbox, reachable again through PopForRun.
  ConcurrentRunQueue queue(QueueBackend::kChaseLev, /*deque_capacity=*/4);
  std::vector<WorkItem> batch;
  for (uint64_t id = 1; id <= 11; ++id) {
    batch.push_back(Item(id));
  }
  queue.PushBatchOwner(batch.data(), static_cast<uint32_t>(batch.size()));
  EXPECT_EQ(queue.ReadLoad().task_count, 11);
  std::vector<uint64_t> ids;
  while (std::optional<WorkItem> item = queue.PopForRun()) {
    ids.push_back(item->id);
    queue.FinishCurrent();
  }
  EXPECT_EQ(ids.size(), 11u);
  std::sort(ids.begin(), ids.end());
  for (uint64_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);
  }
}

TEST(BackendMatrixChaseLev, PeekTakeStealDecrementsPublishedLoad) {
  ConcurrentRunQueue queue(QueueBackend::kChaseLev);
  std::vector<WorkItem> batch = {Item(1), Item(2)};
  queue.PushBatchOwner(batch.data(), 2);

  const auto first = queue.PeekSteal();
  const auto stale = queue.PeekSteal();
  ASSERT_TRUE(first.found);
  EXPECT_TRUE(queue.TakeStealDeferred(first));
  // Until the thief commits the accounting, the victim over-counts the taken
  // item (the safe direction).
  EXPECT_EQ(queue.ReadLoad().task_count, 2);
  queue.CommitStealAccounting(1, first.item.weight);
  EXPECT_EQ(queue.ReadLoad().task_count, 1);
  // The stale observation's commit must fail — the failed re-check — and
  // must NOT touch the accounting.
  EXPECT_FALSE(queue.TakeStealDeferred(stale));
  EXPECT_EQ(queue.ReadLoad().task_count, 1);
  EXPECT_EQ(queue.ExactLoad().task_count, 1);
}

// Blocks the first item worker 0 runs until another worker has executed an
// item. Every item is seeded on queue 0, so that can only happen through a
// steal; the wait is bounded so a run that never steals fails, not hangs.
class StealGate final : public runtime::TaskRunner {
 public:
  void RunItem(const WorkItem& /*item*/, runtime::Executor& /*executor*/,
               uint32_t worker) override {
    if (worker != 0) {
      elsewhere_.fetch_add(1, std::memory_order_release);
      return;
    }
    if (gated_) {
      return;
    }
    gated_ = true;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (elsewhere_.load(std::memory_order_acquire) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out_ = true;
        return;
      }
      std::this_thread::yield();
    }
  }

  bool timed_out() const { return timed_out_; }

 private:
  std::atomic<uint64_t> elsewhere_{0};
  bool gated_ = false;     // worker 0's thread only
  bool timed_out_ = false;  // worker 0's thread; read after Run joins it
};

TEST_P(BackendMatrix, ExecutorDrainsImbalancedSeedWithSteals) {
  // Everything seeded on queue 0: workers 1-3 can only make progress by
  // stealing, so completion exercises the backend's steal path end to end.
  // Worker 0 holds its first item until a stolen one has run, so a steal
  // lands on every run, however late the thieves spin up.
  StealGate gate;
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.backend = GetParam();
  config.task_runner = &gate;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<WorkItem> seed;
  for (uint64_t id = 0; id < 2000; ++id) {
    WorkItem item = Item(id);
    item.task = 1;  // run through the gate
    seed.push_back(item);
  }
  executor.Seed(0, seed);
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_FALSE(gate.timed_out()) << "no other worker ran an item within 30 s";
  EXPECT_EQ(executed, 2000u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_GT(report.Totals().steals.successes, 0u);
}

TEST_P(BackendMatrix, ExecutorDrainsMailboxIngress) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.backend = GetParam();
  config.spin_per_unit = 5;
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/256);
  config.ingress = &mailboxes;

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  std::atomic<uint64_t> admitted{0};
  const auto producer = [&](runtime::Executor& e) {
    for (uint64_t id = 0; id < 400 && !e.stopped(); ++id) {
      if (mailboxes.Push(static_cast<uint32_t>(id % 4), Item(id))) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(/*duration_ms=*/500, producer);
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
    Backends, BackendMatrix,
    ::testing::Values(QueueBackend::kLocked, QueueBackend::kChaseLev),
    [](const ::testing::TestParamInfo<QueueBackend>& info) {
      return std::string(runtime::QueueBackendName(info.param));
    });

}  // namespace
}  // namespace optsched
