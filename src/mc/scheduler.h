// Deterministic cooperative scheduler: runs N virtual workers as fibers and
// turns every mc_hooks synchronization point into an explicit scheduling
// decision (docs/model_checking.md).
//
// One execution = one schedule: at each decision point the installed Strategy
// picks which enabled virtual thread runs next; the chosen thread executes
// its pending synchronization action and runs (uninterrupted — this is the
// atomicity granularity) up to its next hook, where it suspends again. The
// recorded choice sequence fully determines the execution, which is what
// makes record/replay exact and exhaustive exploration possible.
//
// Blocking points (contended lock, a parked worker waiting for a wakeup)
// disable the thread until the predicate holds; enabledness is re-evaluated
// before every decision. If unfinished threads exist but none is enabled,
// the execution is a deadlock — itself a reportable property violation
// (e.g. "no notify ever woke the parked worker").

#ifndef OPTSCHED_SRC_MC_SCHEDULER_H_
#define OPTSCHED_SRC_MC_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mc/fiber.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::mc {

using runtime::mc_hooks::SyncOp;

inline constexpr uint32_t kNoThread = ~0u;
// A Strategy may return this from Pick() to abandon the execution (e.g. the
// DFS explorer pruning a sleep-set-redundant branch): fibers are unwound,
// the result is marked aborted, and no properties are evaluated over it.
inline constexpr uint32_t kAbortExecution = ~0u - 1;

// The synchronization action a suspended virtual thread will perform when
// next scheduled.
struct ThreadOp {
  SyncOp op = SyncOp::kThreadStart;
  // Dense per-execution id of the synchronization object (assigned on first
  // touch, so it is stable across replays of the same harness), used by the
  // dependence relation and serialized event streams. 0 = none.
  uint32_t object = 0;

  bool operator==(const ThreadOp& other) const = default;
};

// Two pending ops commute iff they touch different objects or neither
// writes; dependent ops are what wake sleeping threads in sleep-set pruning.
bool OpsDependent(const ThreadOp& a, const ThreadOp& b);

// Whether a sleeping thread with pending op `sleeper` may remain asleep after
// another thread executed a segment starting at `executed`. Stricter than
// !OpsDependent: lock acquisitions never stay asleep, because releases are
// recorded without a decision point and any segment may hide one.
bool CanStaySleeping(const ThreadOp& sleeper, const ThreadOp& executed);

// One entry of an execution's event stream: thread `thread` performed (or
// announced) `op` at decision step `step`. Harness-level events (steal
// outcomes, item executions, parks/wakes) are interleaved via Note() with
// op == SyncOp::kYield and a nonzero user kind.
struct McEvent {
  uint32_t step = 0;
  uint32_t thread = 0;
  ThreadOp op;
  // Harness event payload (0 = pure sync event).
  uint32_t user_kind = 0;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  int64_t arg2 = 0;

  bool operator==(const McEvent& other) const = default;
};

// Harness event kinds (user_kind). Kept here so the scheduler, properties,
// and trace export share one vocabulary.
enum UserEventKind : uint32_t {
  kUserNone = 0,
  kUserSnapshot = 1,     // arg0 = attempt index
  kUserStealOk = 2,      // arg0 = victim, arg1 = victim tasks after, arg2 = item id
  kUserStealFailRecheck = 3,  // arg0 = victim
  kUserStealFailNoTask = 4,   // arg0 = victim
  kUserStealEmptyFilter = 5,
  // arg0 = item id (executed count bumped: the body finished), arg1 = items
  // the worker's private spawn segment keeps after this item boundary.
  kUserExecuteItem = 6,
  kUserPark = 7,         // worker blocks in its park; arg0 = 1 inside a task body
  // 8-9 are retired.
  // Batch facts of the immediately preceding kUserStealOk (same thread):
  // arg0 = items moved, arg1 = the thief's published-load writes (kLoadWrite)
  // since its kUserSnapshot (publish batching requires <= 2), arg2 = victim.
  kUserStealBatch = 10,
  // Ingress harness (bounded-mailbox drain, docs/serving.md):
  kUserMailboxPush = 11,   // arg0 = item id, arg1 = target worker (admitted)
  kUserMailboxShed = 12,   // arg0 = item id, arg1 = target worker (refused: full)
  kUserMailboxDrain = 13,  // arg0 = item id, arg1 = owner (moved into runqueue)
  // Forkjoin harness (continuation-counted task layer, docs/tasks.md):
  kUserTaskSpawn = 14,  // arg0 = item id, arg1 = spawning worker (own-queue push)
  kUserTaskFork = 15,   // arg0 = continuation id, arg1 = declared children
  kUserJoinFire = 16,   // arg0 = continuation id (join counter reached zero)
  // 17-19 are retired; the kinds below keep the numbers recorded traces carry.
  // Termination counts and the wakeup gate (docs/runtime.md, "Termination
  // and wakeup"):
  // 20 is retired.
  kUserQuiescent = 21,    // arg0 = executed sum, arg1 = submitted sum (worker exits: drained)
  kUserLostWakeup = 22,   // arg0 = owner, arg1 = items visible to it (parked through work)
};

const char* UserEventKindName(uint32_t kind);

// What a Strategy sees at a decision point.
struct SchedulePoint {
  uint32_t step = 0;
  // Enabled (runnable, unfinished) virtual threads, ascending ids.
  std::vector<uint32_t> enabled;
  // pending[i] = the op enabled[i] will perform when chosen.
  std::vector<ThreadOp> pending;
  // Thread chosen at the previous decision (kNoThread at step 0).
  uint32_t last_running = kNoThread;
  // True if last_running appears in `enabled` (switching away from it at a
  // non-yield point is a preemption, CHESS-style).
  bool last_still_enabled = false;
  // Pending op of last_running when still enabled (kYield boundaries are
  // free switch points and do not count toward the preemption bound).
  ThreadOp last_pending;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  // Returns the id of the thread to run next; must be a member of
  // point.enabled.
  virtual uint32_t Pick(const SchedulePoint& point) = 0;
  // Called once after the execution finishes (for strategies that carry
  // state across executions, e.g. DFS backtracking).
  virtual void OnExecutionDone() {}
};

struct ExecutionResult {
  std::vector<uint32_t> choices;  // thread chosen at each decision point
  std::vector<McEvent> events;
  uint32_t preemptions = 0;
  bool deadlock = false;
  std::string deadlock_note;
  bool step_limit_hit = false;
  bool aborted = false;  // abandoned by the strategy (e.g. sleep-set pruned)
};

class Scheduler : public runtime::mc_hooks::Interposer {
 public:
  struct Options {
    // Hard cap on decision points per execution (runaway-loop backstop; a
    // capped execution is reported, never silently truncated).
    uint32_t max_steps = 1u << 20;
  };

  Scheduler();
  explicit Scheduler(Options options);

  // Runs `bodies` to completion under `strategy` and returns the execution
  // record. Installs itself as the mc_hooks interposer for the duration;
  // bodies run as fibers on the calling OS thread.
  ExecutionResult Run(const std::vector<std::function<void()>>& bodies, Strategy& strategy);

  // --- Called from inside fiber bodies ---------------------------------------

  // Records a harness-level event attributed to the calling virtual thread.
  void Note(uint32_t user_kind, int64_t arg0 = 0, int64_t arg1 = 0, int64_t arg2 = 0);

  // Explicit fair scheduling point (a switch here is not a preemption).
  void Yield();

  // Blocks the calling virtual thread until `ready()` is true.
  void BlockUntil(SyncOp op, const void* addr, std::function<bool()> ready);

  uint32_t current_thread() const { return current_; }
  // The running execution's events so far.
  const std::vector<McEvent>& events() const { return result_.events; }

  // --- Interposer ------------------------------------------------------------
  void OnSync(SyncOp op, const void* addr) override;
  void OnBlock(SyncOp op, const void* addr, bool (*ready)(const void*),
               const void* arg) override;

 private:
  struct ThreadState {
    std::unique_ptr<Fiber> fiber;
    ThreadOp pending;
    std::function<bool()> blocked_on;  // empty = runnable
    bool finished = false;
  };

  uint32_t ObjectId(const void* addr);
  void SuspendCurrent(SyncOp op, const void* addr);

  Options options_;
  std::vector<ThreadState> threads_;
  ExecutionResult result_;
  std::map<const void*, uint32_t> object_ids_;
  uint32_t current_ = kNoThread;
  uint32_t step_ = 0;
  bool running_execution_ = false;
};

// The Scheduler currently driving a controlled execution on this OS thread
// (null outside Run). Harness bodies use it to Note()/Yield() without holding
// a reference to the per-execution scheduler instance.
Scheduler* ActiveScheduler();

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_SCHEDULER_H_
