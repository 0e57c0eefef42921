// Runtime companions to the compile-time lock-discipline layer: the pieces
// of the annotated-primitives contract that need a running process rather
// than a clang diagnostic. The compile-time side lives in
// tests/negative_compile/ (must-NOT-compile under -Wthread-safety) and
// tools/lint/optsched_lint.py (structural rules + fixtures).

#include <cstdint>

#include <gtest/gtest.h>

#include "src/base/mutex.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/spinlock.h"

namespace optsched::runtime {
namespace {

// The constructor contract says distinct locks, always checked (not just in
// debug builds): one pointer compare is cheap insurance against a
// self-deadlock that would otherwise hang the process with no diagnostic.
TEST(DualLockGuardDeathTest, SameLockTwiceIsRejectedUpFront) {
  SpinLock lock;
  EXPECT_DEATH({ DualLockGuard guard(lock, lock); },
               "two distinct locks");
}

TEST(DualLockGuard, DistinctLocksAcquireAndRelease) {
  SpinLock a;
  SpinLock b;
  {
    DualLockGuard guard(a, b);
    EXPECT_FALSE(a.try_lock());
    EXPECT_FALSE(b.try_lock());
  }
  EXPECT_TRUE(a.try_lock());
  EXPECT_TRUE(b.try_lock());
  a.unlock();
  b.unlock();
}

// A fresh machine's lock-free snapshot sees every queue as empty: the
// published words start at zero, not garbage.
TEST(ConcurrentMachine, FreshMachineSnapshotsEmpty) {
  ConcurrentMachine machine(4);
  LoadSnapshot snapshot;
  machine.SnapshotInto(snapshot);
  for (uint32_t q = 0; q < machine.num_queues(); ++q) {
    EXPECT_EQ(snapshot.task_count[q], 0);
    EXPECT_EQ(snapshot.weighted_load[q], 0);
  }
}

TEST(SpinLock, AssertHeldPassesWhileLocked) {
  SpinLock lock;
  lock.lock();
  lock.AssertHeld();  // would OPTSCHED_DCHECK-fail (debug builds) if free
  lock.unlock();
}

TEST(LockGuard, WorksWithSpinLockAndMutex) {
  SpinLock spin;
  {
    LockGuard guard(spin);
    EXPECT_FALSE(spin.try_lock());
  }
  EXPECT_TRUE(spin.try_lock());
  spin.unlock();

  Mutex mutex;
  {
    LockGuard guard(mutex);
    EXPECT_FALSE(mutex.try_lock());
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

}  // namespace
}  // namespace optsched::runtime
