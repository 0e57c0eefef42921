// ItemRing — the locked backend's ready queue, the chase_lev inbox and the
// mailbox slots: FIFO order across the wrap point, exact growth for batches,
// erase of the items a steal scan takes past skipped ones, and no allocator
// calls once the ring is at its high-water size or within its sized
// capacity. Also the packed 32-byte WorkItem through every item store: the
// ring, the chase_lev deque and its inbox, and a mailbox.

#include "src/runtime/item_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/ingress/mailbox.h"
#include "src/runtime/chase_lev_deque.h"
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
    const WorkItem item = Item(id);
    queue.PushBatchExternal(&item, 1);
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

// A ring sized up front holds that many items without another allocator
// call: the bounded mailbox's admission path relies on it.
TEST(ItemRing, SizedRingAllocatesNothingUpToItsCapacity) {
  const uint64_t before_construct = g_allocs.load(std::memory_order_relaxed);
  ItemRing ring(5);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before_construct, 1u);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_TRUE(ring.empty());
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) {
    while (ring.size() < 5) {
      ring.PushBack(Item(ring.size() + 1));
    }
    ring.PopFront();
    ring.PopFront();
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(ring.capacity(), 5u);
  EXPECT_EQ(ring.size(), 3u);
}

// --- The packed record through every item store -----------------------------

constexpr uint64_t kMaxUnits = 0xFFFF'FFFFu;
constexpr uint32_t kMaxWeight = 0xFFFF'FFFFu;

// Every field at its extreme, and no two of an item's words alike: id,
// arrival_ns and task are all-ones except for k at a different bit offset in
// each, and work_units and weight fill their shared word with ones. A store
// that drops, shifts or swaps a word changes some field. k >= 1.
WorkItem Extreme(uint64_t k) {
  return WorkItem{.id = ~(k << 8), .work_units = kMaxUnits, .weight = kMaxWeight,
                  .arrival_ns = ~(k << 24), .task = ~(k << 40)};
}

void ExpectExtreme(const WorkItem& item, uint64_t k) {
  EXPECT_EQ(item.id, ~(k << 8));
  EXPECT_EQ(item.work_units, kMaxUnits);
  EXPECT_EQ(item.weight, kMaxWeight);
  EXPECT_EQ(item.arrival_ns, ~(k << 24));
  EXPECT_EQ(item.task, ~(k << 40));
}

// Which Extreme(k) an item is, read from its id alone.
uint64_t ExtremeIndex(const WorkItem& item) { return ~item.id >> 8; }

TEST(PackedWorkItem, HoldsEveryFieldAtItsBound) {
  const WorkItem item = Extreme(1);
  ExpectExtreme(item, 1);
  // The bit-field promotes to unsigned int in arithmetic; widened first, the
  // product is exact.
  EXPECT_EQ(uint64_t{item.work_units} * 2, 2 * kMaxUnits);
}

TEST(PackedWorkItem, SurvivesTheLockedRingAcrossTheWrapAndATailErase) {
  ItemRing ring;
  for (uint64_t id = 1; id <= 10; ++id) {
    ring.PushBack(Item(id));
  }
  for (int i = 0; i < 10; ++i) {
    ring.PopFront();
  }
  // Head at slot 10 of 16: items 7..12 wrap to the front of the buffer.
  for (uint64_t k = 1; k <= 12; ++k) {
    ring.PushBack(Extreme(k));
  }
  ASSERT_EQ(ring.capacity(), 16u);
  ring.Erase(ring.size() - 1);
  ring.Erase(2);  // k = 3: items 4..11 move one slot back across the wrap
  ExpectExtreme(ring.PopBack(), 11);
  for (uint64_t k : {1, 2, 4, 5, 6, 7, 8, 9, 10}) {
    ExpectExtreme(ring.PopFront(), k);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(PackedWorkItem, SurvivesTheDequeByPopAndByPeekAndTake) {
  runtime::ChaseLevDeque deque(4);
  // Move the indices past the capacity so the items sit across the wrap.
  for (uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(deque.PushBottom(Item(id)));
    ASSERT_TRUE(deque.PopBottom().has_value());
  }
  for (uint64_t k = 1; k <= 4; ++k) {
    ASSERT_TRUE(deque.PushBottom(Extreme(k)));
  }
  const std::optional<WorkItem> newest = deque.PopBottom();
  ASSERT_TRUE(newest.has_value());
  ExpectExtreme(*newest, 4);
  for (uint64_t k = 1; k <= 2; ++k) {
    const runtime::ChaseLevDeque::TopPeek peek = deque.PeekTop();
    ASSERT_TRUE(peek.found);
    ExpectExtreme(peek.item, k);
    ASSERT_TRUE(deque.TakeTop(peek));
  }
  const std::optional<WorkItem> last = deque.PopBottom();
  ASSERT_TRUE(last.has_value());
  ExpectExtreme(*last, 3);
  EXPECT_EQ(deque.SizeRelaxed(), 0);
}

TEST(PackedWorkItem, SurvivesTheInboxSpillOfAFullDeque) {
  // A 2-slot deque: an owner batch of 6 spills 4 items to the inbox, and an
  // external batch lands in the inbox whole.
  runtime::ConcurrentRunQueue queue(runtime::QueueBackend::kChaseLev, /*deque_capacity=*/2);
  std::vector<WorkItem> batch;
  for (uint64_t k = 1; k <= 9; ++k) {
    batch.push_back(Extreme(k));
  }
  queue.PushBatchOwner(batch.data(), 6);
  queue.PushBatchExternal(batch.data() + 6, 3);
  std::vector<bool> seen(10, false);
  while (std::optional<WorkItem> item = queue.PopForRun()) {
    const uint64_t k = ExtremeIndex(*item);
    ASSERT_TRUE(k >= 1 && k <= 9 && !seen[k]) << k;
    seen[k] = true;
    ExpectExtreme(*item, k);
    queue.FinishCurrent();
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 9);
}

TEST(PackedWorkItem, SurvivesAMailboxAcrossTheWrap) {
  ingress::BoundedMailbox mailbox(4);
  std::vector<WorkItem> out;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(mailbox.TryPush(Item(id)));
  }
  ASSERT_EQ(mailbox.DrainInto(out, 3), 3u);
  out.clear();
  for (uint64_t k = 1; k <= 4; ++k) {
    ASSERT_TRUE(mailbox.TryPush(Extreme(k)));
  }
  EXPECT_FALSE(mailbox.TryPush(Extreme(5)));
  ASSERT_EQ(mailbox.DrainInto(out, 8), 4u);
  for (uint64_t k = 1; k <= 4; ++k) {
    ExpectExtreme(out[k - 1], k);
  }
}

}  // namespace
}  // namespace optsched
