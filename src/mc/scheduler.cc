#include "src/mc/scheduler.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/str.h"

namespace optsched::mc {

using optsched::StrFormat;

namespace {
thread_local Scheduler* tls_active_scheduler = nullptr;
}  // namespace

Scheduler* ActiveScheduler() { return tls_active_scheduler; }

bool OpsDependent(const ThreadOp& a, const ThreadOp& b) {
  if (a.object == 0 || b.object == 0 || a.object != b.object) {
    return false;
  }
  return runtime::mc_hooks::SyncOpWrites(a.op) || runtime::mc_hooks::SyncOpWrites(b.op);
}

bool CanStaySleeping(const ThreadOp& sleeper, const ThreadOp& executed) {
  // Lock releases are not decision points, so any executed segment may hide
  // a release of any lock; a sleeping thread about to take a lock therefore
  // never provably commutes with it. Waking acquires on every step is the
  // conservative (sound) choice; everything else uses the object relation.
  switch (sleeper.op) {
    case SyncOp::kLockAcquire:
    case SyncOp::kLockTry:
    case SyncOp::kLockWait:
      return false;
    default:
      return !OpsDependent(sleeper, executed);
  }
}

const char* UserEventKindName(uint32_t kind) {
  switch (kind) {
    case kUserNone: return "sync";
    case kUserSnapshot: return "snapshot";
    case kUserStealOk: return "steal-ok";
    case kUserStealFailRecheck: return "steal-fail-recheck";
    case kUserStealFailNoTask: return "steal-fail-no-task";
    case kUserStealEmptyFilter: return "steal-empty-filter";
    case kUserExecuteItem: return "execute-item";
    case kUserPark: return "park";
    case kUserStealBatch: return "steal-batch";
    case kUserMailboxPush: return "mailbox-push";
    case kUserMailboxShed: return "mailbox-shed";
    case kUserMailboxDrain: return "mailbox-drain";
    case kUserTaskSpawn: return "task-spawn";
    case kUserTaskFork: return "task-fork";
    case kUserJoinFire: return "join-fire";
    case kUserQuiescent: return "quiescent";
    case kUserLostWakeup: return "lost-wakeup";
  }
  return "?";
}

Scheduler::Scheduler() : Scheduler(Options()) {}

Scheduler::Scheduler(Options options) : options_(options) {}

uint32_t Scheduler::ObjectId(const void* addr) {
  if (addr == nullptr) {
    return 0;
  }
  auto [it, inserted] = object_ids_.emplace(addr, static_cast<uint32_t>(object_ids_.size()) + 1);
  (void)inserted;
  return it->second;
}

void Scheduler::SuspendCurrent(SyncOp op, const void* addr) {
  ThreadState& thread = threads_[current_];
  thread.pending = ThreadOp{op, ObjectId(addr)};
  result_.events.push_back(McEvent{.step = step_, .thread = current_, .op = thread.pending});
  thread.fiber->Yield();
}

void Scheduler::OnSync(SyncOp op, const void* addr) {
  // Hook calls outside a controlled execution (harness setup on the
  // scheduler context, destructor unwinds during abandonment) are ignored.
  if (!running_execution_ || current_ == kNoThread) {
    return;
  }
  // Lock releases are recorded but are NOT decision points (CHESS does the
  // same). Releases fire from noexcept destructors (~DualLockGuard,
  // ~lock_guard): a fiber suspended there could not be abort-unwound without
  // std::terminate. The cost is that a waiter can never run between a
  // release and the releasing thread's next sync point; the sleep-set side
  // is handled by CanStaySleeping's conservative treatment of acquires.
  if (op == SyncOp::kLockRelease) {
    result_.events.push_back(
        McEvent{.step = step_, .thread = current_, .op = ThreadOp{op, ObjectId(addr)}});
    return;
  }
  SuspendCurrent(op, addr);
}

void Scheduler::OnBlock(SyncOp op, const void* addr, bool (*ready)(const void*),
                        const void* arg) {
  if (!running_execution_ || current_ == kNoThread) {
    return;
  }
  threads_[current_].blocked_on = [ready, arg] { return ready(arg); };
  SuspendCurrent(op, addr);
}

void Scheduler::BlockUntil(SyncOp op, const void* addr, std::function<bool()> ready) {
  OPTSCHED_CHECK(running_execution_ && current_ != kNoThread);
  threads_[current_].blocked_on = std::move(ready);
  SuspendCurrent(op, addr);
}

void Scheduler::Yield() {
  if (!running_execution_ || current_ == kNoThread) {
    return;
  }
  SuspendCurrent(SyncOp::kYield, nullptr);
}

void Scheduler::Note(uint32_t user_kind, int64_t arg0, int64_t arg1, int64_t arg2) {
  if (!running_execution_ || current_ == kNoThread) {
    return;
  }
  result_.events.push_back(McEvent{.step = step_,
                                   .thread = current_,
                                   .op = ThreadOp{SyncOp::kYield, 0},
                                   .user_kind = user_kind,
                                   .arg0 = arg0,
                                   .arg1 = arg1,
                                   .arg2 = arg2});
}

ExecutionResult Scheduler::Run(const std::vector<std::function<void()>>& bodies,
                               Strategy& strategy) {
  OPTSCHED_CHECK(!bodies.empty());
  OPTSCHED_CHECK(!running_execution_);
  result_ = ExecutionResult{};
  threads_.clear();
  object_ids_.clear();
  step_ = 0;
  current_ = kNoThread;
  threads_.resize(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    threads_[i].fiber = std::make_unique<Fiber>(bodies[i]);
    threads_[i].pending = ThreadOp{SyncOp::kThreadStart, 0};
  }

  runtime::mc_hooks::Interposer* previous = runtime::mc_hooks::SetInterposer(this);
  Scheduler* previous_active = tls_active_scheduler;
  tls_active_scheduler = this;
  running_execution_ = true;
  uint32_t last = kNoThread;

  for (;;) {
    SchedulePoint point;
    point.step = step_;
    bool any_unfinished = false;
    for (uint32_t i = 0; i < threads_.size(); ++i) {
      ThreadState& thread = threads_[i];
      if (thread.finished || thread.fiber->finished()) {
        thread.finished = true;
        continue;
      }
      any_unfinished = true;
      if (thread.blocked_on && !thread.blocked_on()) {
        continue;
      }
      point.enabled.push_back(i);
      point.pending.push_back(thread.pending);
    }
    if (!any_unfinished) {
      break;
    }
    if (point.enabled.empty()) {
      result_.deadlock = true;
      std::string note = "all unfinished threads blocked:";
      for (uint32_t i = 0; i < threads_.size(); ++i) {
        if (!threads_[i].finished) {
          note += StrFormat(" t%u@%s(obj%u)", i,
                            runtime::mc_hooks::SyncOpName(threads_[i].pending.op),
                            threads_[i].pending.object);
        }
      }
      result_.deadlock_note = note;
      break;
    }
    if (step_ >= options_.max_steps) {
      result_.step_limit_hit = true;
      break;
    }
    point.last_running = last;
    point.last_still_enabled =
        last != kNoThread &&
        std::find(point.enabled.begin(), point.enabled.end(), last) != point.enabled.end();
    if (point.last_still_enabled) {
      point.last_pending = threads_[last].pending;
    }

    const uint32_t chosen = strategy.Pick(point);
    if (chosen == kAbortExecution) {
      result_.aborted = true;
      break;
    }
    OPTSCHED_CHECK_MSG(std::find(point.enabled.begin(), point.enabled.end(), chosen) !=
                           point.enabled.end(),
                       "strategy picked a thread that is not enabled");
    if (point.last_still_enabled && chosen != last &&
        point.last_pending.op != SyncOp::kYield) {
      ++result_.preemptions;
    }
    result_.choices.push_back(chosen);

    ThreadState& thread = threads_[chosen];
    thread.blocked_on = nullptr;
    current_ = chosen;
    thread.fiber->Resume();
    current_ = kNoThread;
    if (thread.fiber->finished()) {
      thread.finished = true;
    }
    last = chosen;
    ++step_;
  }

  // Unwind anything still alive (deadlock, abort, step cap): destructors on
  // fiber stacks run, and their hook calls are ignored (current_ == kNoThread).
  for (ThreadState& thread : threads_) {
    if (!thread.finished) {
      thread.fiber->Abort();
    }
  }
  running_execution_ = false;
  tls_active_scheduler = previous_active;
  runtime::mc_hooks::SetInterposer(previous);
  strategy.OnExecutionDone();
  return std::move(result_);
}

}  // namespace optsched::mc
