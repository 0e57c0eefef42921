// Growable FIFO ring of WorkItems: the locked backend's ready queue, the
// chase_lev backend's inbox and a bounded mailbox's slots.
//
// Used in place of std::deque, whose push_back/pop_front cycle (the worker
// loop's steady state: pushes at the tail, owner pops at the head) allocates
// and frees a 512-byte node every 12 items on libstdc++. The ring never
// shrinks, so once it reaches its high-water size the loop makes no
// allocator calls.
//
// Growth: a single PushBack into a full ring doubles the capacity; a batch
// that does not fit grows the ring to exactly size() + count (or double,
// whichever is larger), so seeding a 300k-item burst in one batch allocates
// 300k slots, not the next power of two.
//
// A ring built with a capacity allocates it once, up front; a user that never
// holds more than that many items (BoundedMailbox) never allocates again.
//
// Not thread-safe: each user guards it with its own lock.

#ifndef OPTSCHED_SRC_RUNTIME_ITEM_RING_H_
#define OPTSCHED_SRC_RUNTIME_ITEM_RING_H_

#include <algorithm>
#include <cstddef>
#include <memory>

#include "src/base/check.h"
#include "src/runtime/work_item.h"

namespace optsched::runtime {

class ItemRing {
 public:
  ItemRing() = default;
  explicit ItemRing(size_t capacity) { Grow(capacity); }
  ItemRing(const ItemRing&) = delete;
  ItemRing& operator=(const ItemRing&) = delete;
  ~ItemRing() { Allocator().deallocate(slots_, capacity_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  // i-th item counted from the head (0 = oldest).
  const WorkItem& operator[](size_t i) const { return slots_[Slot(i)]; }

  void PushBack(const WorkItem& item) {
    if (size_ == capacity_) {
      Grow(std::max<size_t>(2 * capacity_, kMinCapacity));
    }
    slots_[Slot(size_)] = item;
    ++size_;
  }

  void PushBatch(const WorkItem* items, size_t count) {
    if (size_ + count > capacity_) {
      Grow(std::max(size_ + count, 2 * capacity_));
    }
    for (size_t i = 0; i < count; ++i) {
      slots_[Slot(size_ + i)] = items[i];
    }
    size_ += count;
  }

  WorkItem PopFront() {
    OPTSCHED_DCHECK(size_ > 0);
    const WorkItem item = slots_[head_];
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    --size_;
    return item;
  }

  WorkItem PopBack() {
    OPTSCHED_DCHECK(size_ > 0);
    --size_;
    return slots_[Slot(size_)];
  }

  // Removes the i-th item; the items behind it move one slot toward the
  // head. The steal scan erases from the tail end, so this shifts only the
  // items the scan skipped as ineligible.
  void Erase(size_t i) {
    OPTSCHED_DCHECK(i < size_);
    for (size_t j = i + 1; j < size_; ++j) {
      slots_[Slot(j - 1)] = slots_[Slot(j)];
    }
    --size_;
  }

 private:
  using Allocator = std::allocator<WorkItem>;
  static constexpr size_t kMinCapacity = 16;

  size_t Slot(size_t i) const {
    const size_t slot = head_ + i;
    return slot >= capacity_ ? slot - capacity_ : slot;
  }

  void Grow(size_t new_capacity) {
    WorkItem* slots = Allocator().allocate(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      slots[i] = slots_[Slot(i)];
    }
    Allocator().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = new_capacity;
    head_ = 0;
  }

  WorkItem* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_ITEM_RING_H_
