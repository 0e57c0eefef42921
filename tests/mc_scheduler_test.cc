// Core model-checker machinery: fibers, the controlled scheduler, lock
// interposition, blocking points, deadlock detection, preemption accounting.

#include <vector>

#include <gtest/gtest.h>

#include "src/mc/fiber.h"
#include "src/mc/scheduler.h"
#include "src/runtime/spinlock.h"

// ucontext fibers swap stacks underneath the sanitizer's shadow; ASan is
// handled with explicit fiber annotations (src/mc/fiber.cc) but TSan has no
// equivalent story for makecontext, so the mc tests bow out there.
#if defined(__SANITIZE_THREAD__)
#define OPTSCHED_MC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OPTSCHED_MC_TSAN 1
#endif
#endif

#ifdef OPTSCHED_MC_TSAN
#define MC_SKIP_UNDER_TSAN() GTEST_SKIP() << "ucontext fibers are not supported under TSan"
#else
#define MC_SKIP_UNDER_TSAN() (void)0
#endif

namespace optsched::mc {
namespace {

// Always runs the lowest-id enabled thread (serializes thread 0 first).
class LowestFirst : public Strategy {
 public:
  uint32_t Pick(const SchedulePoint& point) override { return point.enabled.front(); }
};

// Follows a fixed tape of choices, then lowest-first.
class Tape : public Strategy {
 public:
  explicit Tape(std::vector<uint32_t> tape) : tape_(std::move(tape)) {}
  uint32_t Pick(const SchedulePoint& point) override {
    if (index_ < tape_.size()) {
      const uint32_t wanted = tape_[index_++];
      for (uint32_t c : point.enabled) {
        if (c == wanted) {
          return wanted;
        }
      }
      ADD_FAILURE() << "tape choice " << wanted << " not enabled at step " << point.step;
    }
    return point.enabled.front();
  }

 private:
  std::vector<uint32_t> tape_;
  size_t index_ = 0;
};

TEST(FiberTest, RunsBodyAcrossYields) {
  MC_SKIP_UNDER_TSAN();
  int stage = 0;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    stage = 1;
    self->Yield();
    stage = 2;
  });
  self = &fiber;
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_EQ(stage, 1);
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(fiber.finished());
}

TEST(FiberTest, AbortRunsDestructorsOnTheFiberStack) {
  MC_SKIP_UNDER_TSAN();
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  bool destroyed = false;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    Sentinel sentinel{&destroyed};
    self->Yield();
  });
  self = &fiber;
  fiber.Resume();
  EXPECT_FALSE(destroyed);
  fiber.Abort();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(fiber.finished());
}

TEST(OpsDependentTest, SameObjectWithAWriteIsDependent) {
  const ThreadOp acquire{SyncOp::kLockAcquire, 3};
  const ThreadOp release{SyncOp::kLockRelease, 3};
  const ThreadOp read{SyncOp::kLoadRead, 3};
  const ThreadOp other_read{SyncOp::kLoadRead, 4};
  const ThreadOp yield{SyncOp::kYield, 0};
  EXPECT_TRUE(OpsDependent(acquire, release));
  EXPECT_TRUE(OpsDependent(acquire, read));
  EXPECT_FALSE(OpsDependent(read, read));       // two reads commute
  EXPECT_FALSE(OpsDependent(acquire, other_read));  // different objects
  EXPECT_FALSE(OpsDependent(yield, acquire));   // no object: independent
}

TEST(OpsDependentTest, LockAcquiresNeverStaySleeping) {
  const ThreadOp acquire{SyncOp::kLockAcquire, 3};
  const ThreadOp yield{SyncOp::kYield, 0};
  const ThreadOp read{SyncOp::kLoadRead, 5};
  // Releases are recorded without a decision point, so any executed segment
  // may hide one: pending acquisitions must always be woken.
  EXPECT_FALSE(CanStaySleeping(acquire, yield));
  EXPECT_TRUE(CanStaySleeping(yield, acquire));
  EXPECT_TRUE(CanStaySleeping(read, yield));
}

TEST(SchedulerTest, RunsAllThreadsToCompletion) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock lock;
  int counter = 0;
  auto body = [&] {
    lock.lock();
    ++counter;
    lock.unlock();
  };
  Scheduler scheduler;
  LowestFirst strategy;
  const ExecutionResult result = scheduler.Run({body, body, body}, strategy);
  EXPECT_EQ(counter, 3);
  EXPECT_FALSE(result.deadlock);
  EXPECT_FALSE(result.step_limit_hit);
  EXPECT_FALSE(result.choices.empty());
  EXPECT_FALSE(result.events.empty());
}

TEST(SchedulerTest, ContendedLockBlocksUntilRelease) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock lock;
  std::vector<int> order;
  auto holder = [&] {
    lock.lock();
    ActiveScheduler()->Yield();  // hold across a suspension
    order.push_back(0);
    lock.unlock();
  };
  auto waiter = [&] {
    lock.lock();
    order.push_back(1);
    lock.unlock();
  };
  // Let the holder take the lock, then force the waiter to attempt it: the
  // waiter must block (not spin) until the holder releases.
  Tape tape({0, 0, 1, 1});
  Scheduler scheduler;
  const ExecutionResult result = scheduler.Run({holder, waiter}, tape);
  EXPECT_FALSE(result.deadlock);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(SchedulerTest, DetectsAbBaDeadlock) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock a;
  runtime::SpinLock b;
  auto ab = [&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  };
  auto ba = [&] {
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  };
  // t0 holds a, t1 holds b, then each tries the other's lock.
  Tape tape({0, 0, 1, 1, 0, 1});
  Scheduler scheduler;
  const ExecutionResult result = scheduler.Run({ab, ba}, tape);
  EXPECT_TRUE(result.deadlock);
  EXPECT_NE(result.deadlock_note.find("blocked"), std::string::npos);
}

TEST(SchedulerTest, YieldSwitchesAreFreePreemptionsAreCounted) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock a;
  runtime::SpinLock b;
  auto yielding = [&] { ActiveScheduler()->Yield(); };
  {
    // Alternating at yield points costs nothing.
    Tape tape({0, 1, 0, 1});
    Scheduler scheduler;
    const ExecutionResult result = scheduler.Run({yielding, yielding}, tape);
    EXPECT_EQ(result.preemptions, 0u);
  }
  {
    // Switching away from a thread suspended at a lock op is a preemption.
    auto lock_a = [&] {
      a.lock();
      a.unlock();
    };
    auto lock_b = [&] {
      b.lock();
      b.unlock();
    };
    Tape tape({0, 1});  // t0 parked at kLockAcquire, switch to t1
    Scheduler scheduler;
    const ExecutionResult result = scheduler.Run({lock_a, lock_b}, tape);
    EXPECT_GE(result.preemptions, 1u);
  }
}

TEST(SchedulerTest, NoteAttributesUserEventsToThreads) {
  MC_SKIP_UNDER_TSAN();
  auto body = [&] {
    ActiveScheduler()->Note(kUserSnapshot, 7);
    ActiveScheduler()->Yield();
    ActiveScheduler()->Note(kUserStealOk, 1, 2, 3);
  };
  Scheduler scheduler;
  LowestFirst strategy;
  const ExecutionResult result = scheduler.Run({body}, strategy);
  int snapshots = 0;
  int steals = 0;
  for (const McEvent& event : result.events) {
    if (event.user_kind == kUserSnapshot) {
      ++snapshots;
      EXPECT_EQ(event.arg0, 7);
      EXPECT_EQ(event.thread, 0u);
    } else if (event.user_kind == kUserStealOk) {
      ++steals;
      EXPECT_EQ(event.arg0, 1);
      EXPECT_EQ(event.arg1, 2);
      EXPECT_EQ(event.arg2, 3);
    }
  }
  EXPECT_EQ(snapshots, 1);
  EXPECT_EQ(steals, 1);
}

TEST(SchedulerTest, IsReusableAcrossExecutions) {
  MC_SKIP_UNDER_TSAN();
  runtime::SpinLock lock;
  int counter = 0;
  auto body = [&] {
    lock.lock();
    ++counter;
    lock.unlock();
  };
  Scheduler scheduler;
  LowestFirst strategy;
  const ExecutionResult first = scheduler.Run({body, body}, strategy);
  const ExecutionResult second = scheduler.Run({body, body}, strategy);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(first.choices, second.choices);
  EXPECT_EQ(first.events.size(), second.events.size());
}

}  // namespace
}  // namespace optsched::mc
