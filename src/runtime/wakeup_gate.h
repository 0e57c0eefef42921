// Eventcount-style wakeup gate (docs/runtime.md, "Termination and wakeup").
//
// Idle workers park on a wakeup epoch; whoever publishes new work bumps it.
// The gate makes the bump conditional: the epoch is written only while some
// worker has announced itself idle, so while every worker is busy a spawn
// flush or submit writes no shared line at all.
//
// The protocol is a Dekker pair over two seq_cst fences:
//
//   sleeper                          waker
//   Announce(): idle += 1            publish the work
//               fence(seq_cst)       Notify(): fence(seq_cst)
//   e = Sample()                               if idle > 0: epoch += 1
//   re-check every work source
//   park while epoch == e
//
// Either the waker's idle load sees the announcement (and bumps, so the park
// returns at once or never starts), or the sleeper's re-checks — which follow
// its fence — see the work. A worker therefore announces on its first
// fruitless round and parks only on a sample taken AFTER the announcement,
// by way of one more full round of re-checks; it retracts when it gets an
// item. Parking on the announcing round's own sample instead reopens the
// lost-wakeup window (the model checker's seeded `broken_wakeup_gate`
// fault, CheckerSeams in executor.h).

#ifndef OPTSCHED_SRC_RUNTIME_WAKEUP_GATE_H_
#define OPTSCHED_SRC_RUNTIME_WAKEUP_GATE_H_

#include <atomic>
#include <cstdint>

#include "src/runtime/mc_hooks.h"

namespace optsched::runtime {

class WakeupGate {
 public:
  // --- Sleeper side ----------------------------------------------------------

  // First fruitless round: count this worker as idle. The fence orders the
  // announcement before every re-check that follows.
  void Announce() {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kIdleWrite, &idle_);
    idle_.fetch_add(1, std::memory_order_relaxed);  // order: announce-then-recheck
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  // The worker got an item (or is leaving the loop): stop counting it.
  void Retract() {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kIdleWrite, &idle_);
    idle_.fetch_sub(1, std::memory_order_relaxed);  // order: retract-spurious-bump
  }

  // The epoch value a park compares against; sample it BEFORE the re-checks.
  uint64_t Sample() const {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kEpochLoad, &epoch_);
    return epoch_.load(std::memory_order_acquire);
  }

  // --- Waker side ------------------------------------------------------------

  // Call strictly AFTER the new work is visible. Bumps the epoch only when a
  // worker may be asleep; returns whether it did.
  bool Notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kIdleLoad, &idle_);
    if (idle_.load(std::memory_order_relaxed) == 0) {  // order: publish-fence-gate
      return false;
    }
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kEpochBump, &epoch_);
    epoch_.fetch_add(1, std::memory_order_release);
    return true;
  }

  // --- Run boundaries and the checker ----------------------------------------

  // Before any worker of a run starts (thread creation publishes it).
  void Reset() {
    epoch_.store(0, std::memory_order_release);
    idle_.store(0, std::memory_order_relaxed);  // order: run-start-reset
  }

  // Hook-free reads for the model checker's blocking predicates, which must
  // not announce decision points of their own.
  const void* epoch_word() const { return &epoch_; }
  uint64_t PeekEpoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  // mc: kEpochLoad, kEpochBump
  std::atomic<uint64_t> epoch_{0};
  // mc: kIdleLoad, kIdleWrite
  std::atomic<uint32_t> idle_{0};
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_WAKEUP_GATE_H_
