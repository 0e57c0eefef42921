// ItemRing — the locked backend's ready queue: FIFO order across the wrap
// point, exact growth for batches, erase of the items a steal scan takes
// past skipped ones, and no allocator calls once the ring is at its
// high-water size.

#include "src/runtime/item_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/runtime/concurrent_machine.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

// Counts every default-aligned operator new in this test binary.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace optsched {
namespace {

using runtime::ItemRing;
using runtime::WorkItem;

WorkItem Item(uint64_t id) { return WorkItem{.id = id, .work_units = 1, .weight = 1024}; }

std::vector<uint64_t> Ids(const ItemRing& ring) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < ring.size(); ++i) {
    ids.push_back(ring[i].id);
  }
  return ids;
}

TEST(ItemRing, KeepsFifoOrderAcrossTheWrapPoint) {
  ItemRing ring;
  uint64_t next = 1;
  uint64_t expected = 1;
  // Cycle far past the capacity with at most 10 items live: head and tail
  // wrap many times without the ring ever growing past its first size.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) {
      ring.PushBack(Item(next++));
    }
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(ring.PopFront().id, expected++);
    }
    ring.PushBack(Item(next++));
    ring.PushBack(Item(next++));
    ring.PushBack(Item(next++));
    EXPECT_EQ(ring.PopFront().id, expected++);
    EXPECT_EQ(ring.PopFront().id, expected++);
    EXPECT_EQ(ring.PopFront().id, expected++);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(ItemRing, GrowsExactlyToABatchAndDoublesOnSinglePushes) {
  ItemRing ring;
  std::vector<WorkItem> batch;
  for (uint64_t id = 1; id <= 1000; ++id) {
    batch.push_back(Item(id));
  }
  ring.PushBatch(batch.data(), batch.size());
  EXPECT_EQ(ring.capacity(), 1000u);
  EXPECT_EQ(ring.size(), 1000u);
  // A batch that fits does not grow the ring.
  for (int i = 0; i < 10; ++i) {
    ring.PopFront();
  }
  ring.PushBatch(batch.data(), 10);
  EXPECT_EQ(ring.capacity(), 1000u);
  // One item past the capacity doubles it; order survives the regrowth
  // from a wrapped layout.
  ring.PushBack(Item(5000));
  EXPECT_EQ(ring.capacity(), 2000u);
  EXPECT_EQ(ring[0].id, 11u);
  EXPECT_EQ(ring[ring.size() - 1].id, 5000u);
  EXPECT_EQ(ring[989].id, 1000u);
  EXPECT_EQ(ring[990].id, 1u);
}

TEST(ItemRing, EraseShiftsOnlyTheItemsBehindIt) {
  ItemRing ring;
  // Wrap the live window first, so the erase runs across the wrap point.
  for (uint64_t id = 100; id < 112; ++id) {
    ring.PushBack(Item(id));
  }
  for (int i = 0; i < 12; ++i) {
    ring.PopFront();
  }
  for (uint64_t id = 1; id <= 8; ++id) {
    ring.PushBack(Item(id));
  }
  ring.Erase(5);  // id 6: ids 7 and 8 move up
  EXPECT_EQ(Ids(ring), (std::vector<uint64_t>{1, 2, 3, 4, 5, 7, 8}));
  ring.Erase(6);  // the tail
  ring.Erase(0);  // the head
  EXPECT_EQ(Ids(ring), (std::vector<uint64_t>{2, 3, 4, 5, 7}));
  EXPECT_EQ(ring.PopBack().id, 7u);
  EXPECT_EQ(ring.PopFront().id, 2u);
}

TEST(ItemRing, StealScanErasesPastIneligibleItems) {
  // The locked steal scan walks newest-first and erases the items it takes;
  // the ones the migration rule skips stay, in order.
  runtime::ConcurrentRunQueue queue(runtime::QueueBackend::kLocked);
  for (uint64_t id = 1; id <= 8; ++id) {
    queue.Push(Item(id));
  }
  std::vector<WorkItem> taken;
  {
    LockGuard guard(queue.lock());
    // Even ids are ineligible: take 7, skip 8 and 6, take 5 and 3.
    const uint32_t moved = queue.StealTailLocked(
        [](const WorkItem& item) { return item.id % 2 == 1; }, 3, taken);
    EXPECT_EQ(moved, 3u);
  }
  std::vector<uint64_t> taken_ids;
  for (const WorkItem& item : taken) {
    taken_ids.push_back(item.id);
  }
  EXPECT_EQ(taken_ids, (std::vector<uint64_t>{7, 5, 3}));
  std::vector<uint64_t> left;
  while (std::optional<WorkItem> item = queue.PopForRun()) {
    left.push_back(item->id);
    queue.FinishCurrent();
  }
  EXPECT_EQ(left, (std::vector<uint64_t>{1, 2, 4, 6, 8}));
}

TEST(ItemRing, AllocatesNothingOnceAtItsHighWaterSize) {
  ItemRing ring;
  std::vector<WorkItem> batch;
  for (uint64_t id = 1; id <= 24; ++id) {
    batch.push_back(Item(id));
  }
  // Warm-up: reach the high-water size once.
  ring.PushBatch(batch.data(), batch.size());
  while (!ring.empty()) {
    ring.PopFront();
  }
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  // The worker loop's cycle: batches pushed at the tail, popped at the head
  // and the tail, items erased mid-ring, never more than 24 live.
  for (int round = 0; round < 10000; ++round) {
    ring.PushBatch(batch.data(), 12);
    ring.PushBack(batch[round % 24]);
    ring.Erase(ring.size() / 2);
    ring.PopBack();
    while (ring.size() > 2) {
      ring.PopFront();
    }
    ring.PopFront();
    ring.PopFront();
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(ring.capacity(), 24u);
}

}  // namespace
}  // namespace optsched
