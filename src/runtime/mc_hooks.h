// Model-checking interposition seam for the runtime's synchronization
// primitives (docs/model_checking.md).
//
// Every synchronization point in SpinLock, the published loads, the executor's
// escalation/wakeup epochs and its termination counts funnels through the two inline functions below.
// In production nothing is registered and each call is a single
// predictably-not-taken thread-local null check; building with
// -DOPTSCHED_MC_HOOKS=OFF removes even that (the functions compile to
// nothing and `src/mc` is not built). When the deterministic model checker
// (src/mc) is driving, it installs an Interposer on its OS thread and runs N
// virtual workers as cooperative fibers: every hook call is a scheduling
// decision point, so the checker — not the host — chooses the interleaving,
// can enumerate them exhaustively, and can replay a recorded schedule
// exactly.
//
// The seam is deliberately one pointer wide: the runtime knows nothing about
// fibers, schedules, or exploration strategies. It only promises to announce
// "I am about to perform this synchronization action on this object" (a
// SyncPoint) or "I cannot make progress until this predicate holds" (a
// BlockUntil — e.g. a contended lock or a parked worker waiting for a
// wakeup). Blocking points carry the predicate so the checker can
// mark the virtual thread disabled instead of letting it spin, which keeps
// exploration finite: a blocked thread is rescheduled only after another
// thread's dependent action re-enables it.

#ifndef OPTSCHED_SRC_RUNTIME_MC_HOOKS_H_
#define OPTSCHED_SRC_RUNTIME_MC_HOOKS_H_

#ifndef OPTSCHED_MC_HOOKS
#define OPTSCHED_MC_HOOKS 1
#endif

namespace optsched::runtime::mc_hooks {

// Which synchronization action a hook call announces. The checker uses the
// (op, address) pair both for dependence analysis (sleep-set pruning: two
// actions commute unless they touch the same object and at least one
// mutates) and for event-stream labels in replays and trace exports.
enum class SyncOp {
  kLockAcquire,   // SpinLock::lock entry (about to attempt the exchange)
  kLockTry,       // SpinLock::try_lock entry
  kLockRelease,   // SpinLock::unlock (store just performed)
  kLockWait,      // blocking: lock held by another thread
  kEpochLoad,     // executor escalation/wakeup-epoch load
  kEpochBump,     // executor escalation/wakeup-epoch fetch_add
  kMailboxPush,   // ingress mailbox: producer-side bounded enqueue
  kMailboxDrain,  // ingress mailbox: owner-side drain into the runqueue
  kMailboxDepth,  // ingress mailbox: lock-free depth observation
  kDequeTopLoad,     // chase-lev deque: thief/owner load of the top index
  kDequeTopCas,      // chase-lev deque: CAS on the top index (thief take / owner last-item race)
  kDequeBottomLoad,  // chase-lev deque: load of the bottom index
  kDequeBottomStore, // chase-lev deque: owner store to the bottom index
  kLoadRead,         // either backend: lock-free published-load read (ReadLoad)
  kLoadWrite,        // either backend: published-load update (a publish or a counter store)
  kTaskJoinLoad,  // task layer: plain load of a join counter (fault variant)
  kTaskJoinDec,   // task layer: join-counter decrement (last arriver fires)
  kCountLoad,     // termination counts: quiescence-sum load of one counter
  kCountStore,    // termination counts: a counter bump (owner store or external add)
  kIdleLoad,      // wakeup gate: a waker's load of the idle-worker count
  kIdleWrite,     // wakeup gate: a worker's idle announcement or retraction
  kYield,         // explicit fair scheduling point (harness loop boundary)
  kThreadStart,   // virtual thread about to run its first action
};

const char* SyncOpName(SyncOp op);

// True for ops that mutate their object; two ops on the same address are
// independent (commute) iff neither writes.
bool SyncOpWrites(SyncOp op);

class Interposer {
 public:
  virtual ~Interposer() = default;

  // A scheduling decision point: the calling virtual thread is about to
  // perform `op` on `addr`. The interposer may suspend the caller and run
  // other virtual threads; it returns when the caller is scheduled again.
  virtual void OnSync(SyncOp op, const void* addr) = 0;

  // A blocking point: the caller cannot proceed until `ready(arg)` is true
  // (the predicate is cheap, pure, and may be re-evaluated at any decision
  // point). The interposer must not resume the caller before it holds.
  virtual void OnBlock(SyncOp op, const void* addr, bool (*ready)(const void*),
                       const void* arg) = 0;
};

#if OPTSCHED_MC_HOOKS

namespace internal {
// One interposer per OS thread. The model checker runs all its virtual
// workers as fibers on a single OS thread, so one slot is exactly enough;
// production threads never write it and only pay the null check. constinit
// keeps the access a direct TLS load: no dynamic-init thread wrapper, which
// both shortens the production hot path and avoids a UBSan false positive
// on the cross-TU wrapper call.
extern constinit thread_local Interposer* tls_interposer;
}  // namespace internal

// Installs `interposer` for the calling OS thread, returning the previous
// one (restore it when done; the checker scopes this RAII-style).
inline Interposer* SetInterposer(Interposer* interposer) {
  Interposer* previous = internal::tls_interposer;
  internal::tls_interposer = interposer;
  return previous;
}

inline bool Active() { return internal::tls_interposer != nullptr; }

inline void SyncPoint(SyncOp op, const void* addr) {
  if (Interposer* interposer = internal::tls_interposer) {
    interposer->OnSync(op, addr);
  }
}

// Returns true if an interposer handled the wait — the caller should re-check
// its condition immediately instead of spinning. Returns false in production,
// where the caller falls through to its normal spin/backoff path.
inline bool BlockUntil(SyncOp op, const void* addr, bool (*ready)(const void*),
                       const void* arg) {
  if (Interposer* interposer = internal::tls_interposer) {
    interposer->OnBlock(op, addr, ready, arg);
    return true;
  }
  return false;
}

#else  // !OPTSCHED_MC_HOOKS — the seam compiles out entirely.

inline Interposer* SetInterposer(Interposer*) { return nullptr; }
inline bool Active() { return false; }
inline void SyncPoint(SyncOp, const void*) {}
inline bool BlockUntil(SyncOp, const void*, bool (*)(const void*), const void*) {
  return false;
}

#endif  // OPTSCHED_MC_HOOKS

}  // namespace optsched::runtime::mc_hooks

#endif  // OPTSCHED_SRC_RUNTIME_MC_HOOKS_H_
