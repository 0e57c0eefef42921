#include "src/runtime/mc_hooks.h"

namespace optsched::runtime::mc_hooks {

#if OPTSCHED_MC_HOOKS
namespace internal {
constinit thread_local Interposer* tls_interposer = nullptr;
}  // namespace internal
#endif

const char* SyncOpName(SyncOp op) {
  switch (op) {
    case SyncOp::kLockAcquire: return "lock-acquire";
    case SyncOp::kLockTry: return "lock-try";
    case SyncOp::kLockRelease: return "lock-release";
    case SyncOp::kLockWait: return "lock-wait";
    case SyncOp::kEpochLoad: return "epoch-load";
    case SyncOp::kEpochBump: return "epoch-bump";
    case SyncOp::kMailboxPush: return "mailbox-push";
    case SyncOp::kMailboxDrain: return "mailbox-drain";
    case SyncOp::kMailboxDepth: return "mailbox-depth";
    case SyncOp::kDequeTopLoad: return "deque-top-load";
    case SyncOp::kDequeTopCas: return "deque-top-cas";
    case SyncOp::kDequeBottomLoad: return "deque-bottom-load";
    case SyncOp::kDequeBottomStore: return "deque-bottom-store";
    case SyncOp::kLoadRead: return "load-read";
    case SyncOp::kLoadWrite: return "load-write";
    case SyncOp::kTaskJoinLoad: return "task-join-load";
    case SyncOp::kTaskJoinDec: return "task-join-dec";
    case SyncOp::kCountLoad: return "count-load";
    case SyncOp::kCountStore: return "count-store";
    case SyncOp::kIdleLoad: return "idle-load";
    case SyncOp::kIdleWrite: return "idle-write";
    case SyncOp::kYield: return "yield";
    case SyncOp::kThreadStart: return "thread-start";
  }
  return "?";
}

bool SyncOpWrites(SyncOp op) {
  switch (op) {
    case SyncOp::kLockAcquire:
    case SyncOp::kLockTry:
    case SyncOp::kLockRelease:
    case SyncOp::kLockWait:  // resumes by acquiring the lock
    case SyncOp::kEpochBump:
    case SyncOp::kMailboxPush:
    case SyncOp::kMailboxDrain:
    case SyncOp::kDequeTopCas:
    case SyncOp::kDequeBottomStore:
    case SyncOp::kLoadWrite:
    case SyncOp::kTaskJoinDec:
    case SyncOp::kCountStore:
    case SyncOp::kIdleWrite:
      return true;
    case SyncOp::kEpochLoad:
    case SyncOp::kMailboxDepth:
    case SyncOp::kDequeTopLoad:
    case SyncOp::kDequeBottomLoad:
    case SyncOp::kLoadRead:
    case SyncOp::kTaskJoinLoad:
    case SyncOp::kCountLoad:
    case SyncOp::kIdleLoad:
    case SyncOp::kYield:
    case SyncOp::kThreadStart:
      return false;
  }
  return true;
}

}  // namespace optsched::runtime::mc_hooks
