// Minimal test-and-test-and-set spinlock, annotated as a Clang thread-safety
// capability.
//
// The runtime shards the machine into per-core runqueues each protected by
// one of these, reproducing the paper's locking discipline: the selection
// phase takes NO locks (it reads each queue's published load), and the
// stealing phase takes exactly two — the thief's and the victim's runqueue
// locks, in queue-index order to avoid deadlock (§3.1, Figure 1). With the
// capability annotations (src/base/thread_annotations.h) that discipline is
// checked at compile time under clang: touching a GUARDED_BY field or calling a
// REQUIRES method without the lock fails a -Werror=thread-safety build.
//
// Every synchronization point is announced through the mc_hooks seam
// (docs/model_checking.md): a no-op null check in production, a scheduling
// decision point when the deterministic model checker (src/mc) is driving.
// Contention is a BlockUntil point — under the checker a waiter is marked
// disabled until the holder releases, instead of spinning.

#ifndef OPTSCHED_SRC_RUNTIME_SPINLOCK_H_
#define OPTSCHED_SRC_RUNTIME_SPINLOCK_H_

#include <atomic>

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::runtime {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class OPTSCHED_CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() OPTSCHED_ACQUIRE() {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kLockAcquire, this);
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      if (mc_hooks::BlockUntil(mc_hooks::SyncOp::kLockWait, this, &SpinLock::IsFree, this)) {
        continue;  // checker resumed us with the lock observed free; retry
      }
      // Test-and-test-and-set: spin on the cache line read-only until free.
      while (locked_.load(std::memory_order_relaxed)) {  // order: ttas-spin-read
        CpuRelax();
      }
    }
  }

  bool try_lock() OPTSCHED_TRY_ACQUIRE(true) {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kLockTry, this);
    return !locked_.load(std::memory_order_relaxed) &&  // order: ttas-spin-read
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() OPTSCHED_RELEASE() {
    // Announce before the store. The checker records the release but does
    // not suspend here: unlock() runs from noexcept destructors
    // (~DualLockGuard, ~LockGuard), where a suspended fiber could not be
    // abort-unwound. The sleep-set side compensates by never letting a
    // pending lock acquisition stay asleep (mc::CanStaySleeping).
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kLockRelease, this);
    locked_.store(false, std::memory_order_release);
  }

  // Re-anchors the thread-safety analysis where the acquisition order is
  // decided at runtime (e.g. TrySteal's queue-index ranking): tells clang
  // this capability is held WITHOUT acquiring it. The runtime check is
  // deliberately weak — "locked by someone", not "locked by me" (a spinlock
  // has no owner identity) — so it is a debug-build tripwire for "forgot to
  // lock entirely", not a proof. The static analysis is the proof.
  void AssertHeld() const OPTSCHED_ASSERT_CAPABILITY(this) {
    OPTSCHED_DCHECK(locked_.load(std::memory_order_relaxed));  // order: debug-assert-read
  }

 private:
  static bool IsFree(const void* self) {
    // order: debug-assert-read
    return !static_cast<const SpinLock*>(self)->locked_.load(std::memory_order_relaxed);
  }

  // mc: kLockAcquire, kLockTry, kLockRelease, kLockWait
  std::atomic<bool> locked_{false};
};

// Scoped two-lock acquisition in a caller-chosen total order (deadlock-free
// when every site ranks the same pair the same way). The runtime ranks queue
// locks by QUEUE INDEX, not by address: per-queue heap allocations make
// address order vary from run to run, and the model checker (src/mc) needs
// the lock-acquisition sequence of a replayed schedule to be identical
// across executions and processes. tools/lint/optsched_lint.py (rule
// dual-lock-rank) rejects construction sites ranked by address.
//
// Constructor contract: `first` and `second` MUST be distinct locks, with
// `first` ranked strictly before `second` in the machine-wide order (queue
// index for runqueue locks). Passing the same lock twice would self-deadlock
// on the second acquisition — checked and rejected up front (always on, not
// just in debug builds: the check is one pointer compare ahead of two atomic
// RMWs, and a violation deadlocks the process).
class OPTSCHED_SCOPED_CAPABILITY DualLockGuard {
 public:
  DualLockGuard(SpinLock& first, SpinLock& second) OPTSCHED_ACQUIRE(first, second)
      : first_(first), second_(second) {
    OPTSCHED_CHECK_MSG(&first != &second,
                       "DualLockGuard needs two distinct locks (self-deadlock)");
    first_.lock();
    second_.lock();
  }
  ~DualLockGuard() OPTSCHED_RELEASE() {
    second_.unlock();
    first_.unlock();
  }
  DualLockGuard(const DualLockGuard&) = delete;
  DualLockGuard& operator=(const DualLockGuard&) = delete;

 private:
  SpinLock& first_;
  SpinLock& second_;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_SPINLOCK_H_
