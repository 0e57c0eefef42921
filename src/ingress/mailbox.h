// Bounded per-worker MPSC mailboxes: the serving front end's admission
// buffer (docs/serving.md).
//
// Producers (connection shards, src/ingress/router.h) never touch a
// runqueue: they TryPush into the target worker's BoundedMailbox, and the
// OWNER drains the mailbox into its own runqueue at round boundaries. The
// bound is the whole point — a mailbox that cannot grow turns overload into
// an explicit admission decision (shed / spill / block, admission.h) taken
// at the edge, instead of an unbounded queue that converts overload into
// unbounded latency and an eventual OOM.
//
// Concurrency structure mirrors ConcurrentRunQueue: a SpinLock-protected
// fixed ring plus a lock-free published depth. The depth is the optimistic
// part — producers read it to pick spill targets and the owner reads it to
// decide whether a drain is worthwhile, both tolerating staleness exactly
// like the selection phase tolerates stale load snapshots. Every synchronization
// action announces itself through the mc_hooks seam (kMailboxPush /
// kMailboxDrain / kMailboxDepth), so the model checker can interleave
// producers against the draining owner and discharge no-lost-admitted-items
// (src/mc/harness.cc, ingress mode).

#ifndef OPTSCHED_SRC_INGRESS_MAILBOX_H_
#define OPTSCHED_SRC_INGRESS_MAILBOX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/ingress_source.h"
#include "src/runtime/item_ring.h"
#include "src/runtime/spinlock.h"

namespace optsched::ingress {

using runtime::WorkItem;

class BoundedMailbox {
 public:
  explicit BoundedMailbox(uint32_t capacity);

  // Producer side (any thread). Returns false when the mailbox is full — the
  // caller's admission policy decides what happens to the item; the mailbox
  // itself never blocks and never drops silently. If `was_empty_out` is
  // non-null it receives whether the mailbox was empty BEFORE this push: the
  // empty->non-empty edge is the notification predicate (MailboxSet fires
  // its notify callback exactly on that edge, so a parked owner is woken
  // once per burst, not once per item).
  bool TryPush(const WorkItem& item, bool* was_empty_out = nullptr)
      OPTSCHED_EXCLUDES(lock_);

  // Owner side (single consumer). Moves up to `max_items` items in FIFO
  // order into `out` (appending). Returns the number moved.
  uint32_t DrainInto(std::vector<WorkItem>& out, uint32_t max_items)
      OPTSCHED_EXCLUDES(lock_);

  // Lock-free depth observation; may be stale by a concurrent push or drain
  // (same optimism as ReadLoad on a runqueue).
  int64_t ApproxDepth() const;

  uint32_t capacity() const { return capacity_; }

  // Lifetime counters. Relaxed atomics: each read is torn-free, but read
  // them as an exact set only at quiescence (after producers and the owner
  // have stopped), same contract as FaultInjector::stats().
  // order: reporting-counter
  uint64_t total_pushed() const { return pushed_.load(std::memory_order_relaxed); }
  uint64_t total_rejected_full() const {
    return rejected_full_.load(std::memory_order_relaxed);  // order: reporting-counter
  }
  // order: reporting-counter
  uint64_t total_drained() const { return drained_.load(std::memory_order_relaxed); }

 private:
  const uint32_t capacity_;

  // Lock + ring on one line group, published depth on its own line: thieves
  // of this subsystem are the spill-probing producers, and their depth polls
  // must not contend with the owner's drain.
  alignas(runtime::kCacheLineSize) mutable runtime::SpinLock lock_;
  runtime::ItemRing ring_ OPTSCHED_GUARDED_BY(lock_);  // sized once, capacity_ slots

  // Written only under lock_, read lock-free (ApproxDepth / PendingFor).
  // mc: kMailboxPush, kMailboxDrain, kMailboxDepth
  alignas(runtime::kCacheLineSize) std::atomic<int64_t> depth_{0};
  // optsched-lint: allow(mc-hook-coverage): reporting counter, never a scheduling decision input
  std::atomic<uint64_t> pushed_{0};
  // optsched-lint: allow(mc-hook-coverage): reporting counter, never a scheduling decision input
  std::atomic<uint64_t> rejected_full_{0};
  // optsched-lint: allow(mc-hook-coverage): reporting counter, never a scheduling decision input
  std::atomic<uint64_t> drained_{0};
};

// One BoundedMailbox per worker plus the empty->non-empty notification hook.
// Implements runtime::IngressSource, which is the only face the executor
// sees: Drain() and PendingFor(), both on the owner's thread.
class MailboxSet : public runtime::IngressSource {
 public:
  // `notify` (optional) is invoked with the worker index after a push that
  // made that worker's mailbox non-empty. It runs on the PRODUCER's thread
  // and must be cheap and lock-free — the executor wires it to its
  // wakeup-epoch bump (Executor::NotifyIngress), never to anything that
  // could block admission behind a parked worker.
  MailboxSet(uint32_t num_workers, uint32_t capacity_per_mailbox,
             std::function<void(uint32_t)> notify = nullptr);

  uint32_t num_mailboxes() const { return static_cast<uint32_t>(mailboxes_.size()); }
  BoundedMailbox& mailbox(uint32_t worker) { return *mailboxes_[worker]; }
  const BoundedMailbox& mailbox(uint32_t worker) const { return *mailboxes_[worker]; }

  void set_notify(std::function<void(uint32_t)> notify) { notify_ = std::move(notify); }

  // Producer-side push with the notification edge applied. Returns false
  // when the target mailbox is full.
  bool Push(uint32_t worker, const WorkItem& item);

  // runtime::IngressSource:
  uint32_t Drain(uint32_t worker, std::vector<WorkItem>& out, uint32_t max_items) override;
  int64_t PendingFor(uint32_t worker) const override;

  // Sum of ApproxDepth over all mailboxes (lock-free, possibly stale).
  int64_t TotalPending() const;

 private:
  std::vector<std::unique_ptr<BoundedMailbox>> mailboxes_;
  std::function<void(uint32_t)> notify_;
};

}  // namespace optsched::ingress

#endif  // OPTSCHED_SRC_INGRESS_MAILBOX_H_
