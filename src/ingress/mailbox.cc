#include "src/ingress/mailbox.h"

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::ingress {

namespace mc_hooks = runtime::mc_hooks;

// ring_ is sized once here (member initialization needs no lock — the object
// is not shared until the constructor returns) and never reallocated: every
// push lands in a preexisting slot, so admission is allocation-free.
BoundedMailbox::BoundedMailbox(uint32_t capacity) : capacity_(capacity), ring_(capacity) {
  OPTSCHED_CHECK(capacity > 0);
}

bool BoundedMailbox::TryPush(const WorkItem& item, bool* was_empty_out) {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kMailboxPush, &depth_);
  bool was_empty = false;
  bool pushed = false;
  {
    LockGuard guard(lock_);
    if (size_ < capacity_) {
      was_empty = (size_ == 0);
      ring_[(head_ + size_) % capacity_] = item;
      ++size_;
      // Published AFTER the slot write, inside the critical section: a
      // reader that observes the new depth and then drains is ordered
      // behind this store by the lock; lock-free depth readers only need
      // the count, never the slots.
      depth_.store(static_cast<int64_t>(size_), std::memory_order_release);
      pushed = true;
    }
  }
  if (pushed) {
    pushed_.fetch_add(1, std::memory_order_relaxed);  // order: reporting-counter
  } else {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);  // order: reporting-counter
  }
  if (was_empty_out != nullptr) {
    *was_empty_out = was_empty;
  }
  return pushed;
}

uint32_t BoundedMailbox::DrainInto(std::vector<WorkItem>& out, uint32_t max_items) {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kMailboxDrain, &depth_);
  uint32_t moved = 0;
  {
    LockGuard guard(lock_);
    while (size_ > 0 && moved < max_items) {
      out.push_back(ring_[head_]);
      head_ = (head_ + 1) % capacity_;
      --size_;
      ++moved;
    }
    if (moved > 0) {
      // One publish per drain action, not per item (publish batching, the
      // same discipline StealTailLocked follows for the runqueue's load).
      depth_.store(static_cast<int64_t>(size_), std::memory_order_release);
    }
  }
  if (moved > 0) {
    drained_.fetch_add(moved, std::memory_order_relaxed);  // order: reporting-counter
  }
  return moved;
}

int64_t BoundedMailbox::ApproxDepth() const {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kMailboxDepth, &depth_);
  return depth_.load(std::memory_order_acquire);
}

MailboxSet::MailboxSet(uint32_t num_workers, uint32_t capacity_per_mailbox,
                       std::function<void(uint32_t)> notify)
    : notify_(std::move(notify)) {
  OPTSCHED_CHECK(num_workers > 0);
  mailboxes_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    mailboxes_.push_back(std::make_unique<BoundedMailbox>(capacity_per_mailbox));
  }
}

bool MailboxSet::Push(uint32_t worker, const WorkItem& item) {
  OPTSCHED_CHECK(worker < mailboxes_.size());
  bool was_empty = false;
  if (!mailboxes_[worker]->TryPush(item, &was_empty)) {
    return false;
  }
  // Notify strictly AFTER the item is visible in the mailbox: a woken owner
  // re-checks PendingFor before re-parking, and the executor's wakeup epoch
  // is sampled before that re-check, so this ordering is what makes the
  // wakeup lost-free (see Executor::NotifyIngress).
  if (was_empty && notify_) {
    notify_(worker);
  }
  return true;
}

uint32_t MailboxSet::Drain(uint32_t worker, std::vector<WorkItem>& out, uint32_t max_items) {
  OPTSCHED_CHECK(worker < mailboxes_.size());
  return mailboxes_[worker]->DrainInto(out, max_items);
}

int64_t MailboxSet::PendingFor(uint32_t worker) const {
  OPTSCHED_CHECK(worker < mailboxes_.size());
  return mailboxes_[worker]->ApproxDepth();
}

int64_t MailboxSet::TotalPending() const {
  int64_t total = 0;
  for (const auto& mailbox : mailboxes_) {
    total += mailbox->ApproxDepth();
  }
  return total;
}

}  // namespace optsched::ingress
