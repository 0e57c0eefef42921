// Structured parallelism on the executor: continuation-counted futures and
// fork-join DAGs (docs/tasks.md).
//
// The design is the continuation-passing discipline of Cilk-style runtimes,
// restated for this scheduler's optimistic queues:
//
//   * A TaskNode is a body plus a fixed block of inline argument words and an
//     atomic JOIN counter. Forking transfers the running task's completion
//     obligation to a fresh continuation node whose counter holds the child
//     count; each finishing child decrements it, and the LAST ARRIVER — on
//     whichever worker it happens to run — submits the continuation to its
//     own runqueue. No task ever waits: a worker that finishes a child goes
//     straight back to its deque, so joins cost one atomic RMW, never a
//     blocked worker (the no-worker-blocks-on-join property, discharged by
//     the mc `forkjoin` harness).
//   * Nodes come from a bump-pointer arena preallocated by the graph and
//     recycled by Reset(): after the first run, recursive decomposition
//     performs ZERO heap allocations — spawns append to a small worker-local
//     batch that flushes through Executor::SubmitFromWorker onto the owner's
//     deque-bottom push path (rule hot-path-alloc; audited by bench_e16).
//   * The graph implements runtime::TaskRunner, so the executor dispatches
//     items with WorkItem::task != 0 here instead of the calibrated spin,
//     and the conservation watchdog counts forked-but-unfired continuations
//     as pending work (OutstandingFor), mirroring the mailbox-backlog rule.
//
// Body-side invariant (continuation counting): every task either RETURNS
// COMPLETE (it forked nothing) or calls ForkN/Fork2 exactly once and spawns
// exactly the declared number of children. The counter never counts the
// forking task itself — its obligation is transferred, not joined on —
// which is what keeps "counter reaches zero" equivalent to "all inputs of
// the continuation are ready".

#ifndef OPTSCHED_SRC_TASK_TASK_H_
#define OPTSCHED_SRC_TASK_TASK_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/runtime/executor.h"
#include "src/runtime/work_item.h"

namespace optsched::task {

class TaskContext;
class TaskGraph;

// A task body. `self` carries the inline argument words (filled before the
// node was spawned, published by the queue push); helpers for forking and
// spawning live on `ctx`.
using TaskBody = void (*)(TaskContext& ctx, struct TaskNode& self);

// One node of the fork-join DAG. Exactly one cache line: body, links, join
// counter, and five inline argument/result words — big enough for every
// kernel in src/workload (fib: n/out/cutoff; mergesort: data/scratch/lo/mid/
// hi) without any out-of-line environment allocation.
struct alignas(runtime::kCacheLineSize) TaskNode {
  static constexpr uint32_t kEnvWords = 5;

  TaskBody body = nullptr;
  // The join node notified when this task completes (null = graph root: its
  // completion sets TaskGraph::done). For a continuation node this is the
  // join the FORKING task owed — adopted at ForkN time.
  TaskNode* parent = nullptr;
  // Children still outstanding; the decrement that reaches zero fires the
  // continuation. acq_rel on the RMW chains every child's env writes into
  // visibility for the last arriver, whose queue push then publishes them to
  // whichever worker pops the continuation.
  // mc: kTaskJoinDec, kTaskJoinLoad
  std::atomic<int32_t> join{0};
  // Worker that forked this continuation — the outstanding-continuation
  // counter it was charged to (see TaskGraph::OutstandingFor).
  uint32_t forker = 0;
  uint64_t env[kEnvWords] = {};
};
static_assert(sizeof(TaskNode) == runtime::kCacheLineSize,
              "TaskNode is sized to exactly one cache line");

// Where a flushed spawn batch lands. The executor binding routes to
// Executor::SubmitFromWorker; the mc harness and the allocation audit drive
// ConcurrentMachine directly through their own sinks, so the whole
// fork/join/spawn path runs unmodified under the model checker.
class SpawnSink {
 public:
  virtual ~SpawnSink() = default;

  // `count` ready-to-run items for `worker`'s OWN runqueue (owner push path).
  virtual void SubmitBatch(uint32_t worker, const runtime::WorkItem* items,
                           uint32_t count) = 0;

  // Observation hooks for the mc harness (default no-ops): a fork created
  // continuation `continuation_id` expecting `children` completions; a join
  // counter reached zero and queued that continuation. In a correct run
  // every forked id fires exactly once (join-fires-exactly-once).
  virtual void OnFork(uint32_t worker, uint64_t continuation_id, uint32_t children) {
    (void)worker;
    (void)continuation_id;
    (void)children;
  }
  virtual void OnJoinFire(uint32_t worker, uint64_t continuation_id) {
    (void)worker;
    (void)continuation_id;
  }
};

struct TaskGraphOptions {
  // Workers that may run tasks from this graph (per-worker spawn batching and
  // outstanding-continuation accounting are sized by this).
  uint32_t max_workers = 4;
  // Nodes preallocated per graph; Reset() recycles them. Exhaustion is a
  // loud CHECK, never a silent fallback allocation — size for the kernel
  // (internal nodes * (fanout + 1) + root, see docs/tasks.md#sizing).
  uint32_t arena_capacity = 1u << 14;
  // Fault knob (mc `forkjoin` harness): replace the atomic join decrement
  // with a plain load/store pair. Two last-arriving children can then read
  // the same counter value, lose a decrement, and strand the continuation —
  // the checker must find and minimize the join-fires-exactly-once
  // violation (tests/golden/mc_broken_join_counter.json).
  bool broken_join_counter = false;
};

// A reusable fork-join DAG: arena, join protocol, and the executor binding.
// Thread-compatible setup (NewRoot/Reset between runs, single thread);
// thread-safe execution (RunItem from any bound worker).
class TaskGraph : public runtime::TaskRunner {
 public:
  explicit TaskGraph(const TaskGraphOptions& options);

  // Allocates the root task (parent = null). Call between runs only.
  TaskNode& NewRoot(TaskBody body);

  // The submittable item for `node`: id = stable arena index + 1, task = the
  // node handle. Submit through Executor::Submit/Seed before Run().
  runtime::WorkItem ItemFor(TaskNode& node) const;

  // True once the root task's subgraph fully completed.
  bool done() const { return done_.load(std::memory_order_acquire); }

  // Rewinds the arena and the done flag for the next run. All nodes handed
  // out so far are invalidated; steady-state reruns allocate nothing.
  void Reset();

  // Nodes handed out since construction/Reset (capacity headroom metric).
  uint32_t nodes_allocated() const;

  // Runs `item`'s task body on `worker`, completing the join protocol and
  // flushing spawned work into `sink` before returning. The direct-drive
  // entry for the mc harness and the allocation audit; the executor override
  // below routes here with an Executor-backed sink.
  void RunItemOn(const runtime::WorkItem& item, uint32_t worker, SpawnSink& sink);

  // runtime::TaskRunner:
  void RunItem(const runtime::WorkItem& item, runtime::Executor& executor,
               uint32_t worker) override;
  int64_t OutstandingFor(uint32_t worker) const override;

  const TaskGraphOptions& options() const { return options_; }

 private:
  friend class TaskContext;

  // Chunked bump allocation: a worker grabs kAllocChunk indices per shared
  // fetch_add, so concurrent spawning does not serialize on the cursor.
  static constexpr uint32_t kAllocChunk = 16;

  struct alignas(runtime::kCacheLineSize) WorkerState {
    uint32_t chunk_next = 0;
    uint32_t chunk_end = 0;
    // Continuations this worker forked that have not fired yet. Relaxed
    // counters read by the supervisor's watchdog only — pending-work
    // accounting, never a scheduling decision input.
    // optsched-lint: allow(mc-hook-coverage): watchdog pending-work bookkeeping, read only by the supervisor outside the checked protocol
    std::atomic<int64_t> outstanding{0};
  };

  TaskNode* AllocNode(uint32_t worker);
  // Join protocol for a task that returned complete: decrement the parent's
  // counter; the arriver that reaches zero queues the continuation.
  void CompleteTask(TaskNode* node, TaskContext& ctx);

  TaskGraphOptions options_;
  std::unique_ptr<TaskNode[]> arena_;
  // Shared arena cursor. Chunk handout order is irrelevant to the protocol
  // (any distinct indices work), so concurrent bumps commute.
  // optsched-lint: allow(mc-hook-coverage): arena chunk cursor — handout order is protocol-irrelevant, any interleaving yields distinct indices
  std::atomic<uint32_t> arena_next_{0};
  std::unique_ptr<WorkerState[]> worker_state_;
  // Root-completion flag. The executor terminates on its TerminationCounts
  // quiescence sum; harnesses and benches poll this at loop boundaries
  // (every poll sits between Yield decision points under the checker).
  // optsched-lint: allow(mc-hook-coverage): termination flag polled at harness loop boundaries, mirrored by TerminationCounts under the executor
  std::atomic<bool> done_{false};
};

// The per-item view a running body forks and spawns through. Stack-allocated
// by RunItemOn; holds the worker-local spawn batch (flushed to the sink at
// the latest when the body's item finishes, so a worker never exits an item
// holding back runnable work).
class TaskContext {
 public:
  // Spawns per sink flush: one SubmitFromWorker (count bump + owner pushes +
  // one wakeup bump) amortized over up to this many tasks.
  static constexpr uint32_t kSpawnBatch = 8;

  uint32_t worker() const { return worker_; }
  TaskGraph& graph() { return *graph_; }

  // Transfers the current task's completion obligation to a fresh
  // continuation that fires after `children` completions. Call at most once
  // per body; fill the returned node's env (result slots) before returning,
  // then create and Spawn exactly `children` children against it.
  TaskNode& ForkN(TaskBody continuation, uint32_t children);

  // Binary fork sugar: ForkN(continuation, 2) plus both children allocated.
  // Fill the env words of all three nodes, then Spawn(left) and Spawn(right).
  struct Fork2Nodes {
    TaskNode& cont;
    TaskNode& left;
    TaskNode& right;
  };
  Fork2Nodes Fork2(TaskBody continuation, TaskBody left, TaskBody right);

  // Allocates a child whose completion decrements `parent`'s join counter.
  // Not yet runnable: fill env first, then Spawn it.
  TaskNode& NewChild(TaskBody body, TaskNode& parent);

  // Makes `child` runnable on this worker's queue (batched; the push
  // publishes the env words to any thief).
  void Spawn(TaskNode& child);

 private:
  friend class TaskGraph;

  TaskContext(TaskGraph* graph, uint32_t worker, SpawnSink* sink)
      : graph_(graph), worker_(worker), sink_(sink) {}

  void Enqueue(TaskNode& node);
  void Flush();

  TaskGraph* graph_;
  uint32_t worker_;
  SpawnSink* sink_;
  TaskNode* current_ = nullptr;
  bool deferred_ = false;
  uint32_t batch_size_ = 0;
  runtime::WorkItem batch_[kSpawnBatch];
};

}  // namespace optsched::task

#endif  // OPTSCHED_SRC_TASK_TASK_H_
