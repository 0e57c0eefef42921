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
//     the mc `forkjoin` harness). That decrement is the only shared-line RMW
//     on the fork/join path: fork and fire counts are single-writer stores.
//   * Nodes live in an arena preallocated by the graph. A node is dead once
//     its own RunItemOn returns (children point at the continuation, never
//     at the node that forked them), so the worker that ran it pushes it on
//     its own LIFO free list and its next fork reuses the line still in L1.
//     Surplus nodes move to a graph-wide pool in 16-node chunks; the arena is
//     bumped only when both are empty, so its high-water mark tracks live
//     nodes, not total work. Recursive decomposition performs ZERO heap
//     allocations — spawns append to a small worker-local batch that flushes
//     through Executor::SubmitFromWorker onto the owner's deque-bottom push
//     path (rule hot-path-alloc; audited by bench_e16).
//   * The flush that ends a body — a fork's children, or the continuation a
//     join just fired — stays in the worker's private spawn segment
//     (Executor::HandOffFromWorker), and the worker runs its newest item
//     next: the last child spawned, or the fired continuation. Kept items
//     skip the deque push, its pop and their fences until a sibling is idle
//     and the worker publishes them, so while every worker is busy a
//     fork-join run touches no deque at all.
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
// the continuation are ready". Lifetime rule: nothing may touch a node after
// its own run returned; results flow into the continuation's env words.

#ifndef OPTSCHED_SRC_TASK_TASK_H_
#define OPTSCHED_SRC_TASK_TASK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/runtime/executor.h"
#include "src/runtime/spinlock.h"
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
  // `parent` of the graph root, and the end of a free list.
  static constexpr uint32_t kNoNode = UINT32_MAX;

  TaskBody body = nullptr;
  // Arena index of the join node notified when this task completes (kNoNode
  // = graph root: its completion sets TaskGraph::done). For a continuation
  // node this is the join the FORKING task owed — adopted at ForkN time.
  // While the node is free, it links the next node of its free list.
  uint32_t parent = kNoNode;
  // Children still outstanding; the decrement that reaches zero fires the
  // continuation. acq_rel on the RMW chains every child's env writes into
  // visibility for the last arriver, whose queue push then publishes them to
  // whichever worker pops the continuation.
  // mc: kTaskJoinDec, kTaskJoinLoad
  std::atomic<int32_t> join{0};
  // Worker that forked this continuation — the fork count it was charged to
  // (see TaskGraph::OutstandingFor).
  uint32_t forker = 0;
  // Lifetimes this arena slot has begun: the high half of the item id, so a
  // reused slot never repeats an id (TaskGraph::ItemFor).
  uint32_t generation = 0;
  uint64_t env[kEnvWords] = {};
};
static_assert(sizeof(TaskNode) == runtime::kCacheLineSize,
              "TaskNode is sized to exactly one cache line");
static_assert(std::is_trivially_destructible_v<TaskNode>,
              "the arena releases its storage without running destructors");

// Where a flushed spawn batch lands. The executor binding routes to
// Executor::SubmitFromWorker, and a body's final flush to
// Executor::HandOffFromWorker (the private spawn segment); the mc harness
// does the same through its own sink, adding its notes, and the allocation
// audit drives ConcurrentMachine directly, so the whole fork/join/spawn path
// runs unmodified under the model checker.
class SpawnSink {
 public:
  virtual ~SpawnSink() = default;

  // `count` ready-to-run items for `worker`'s OWN runqueue (owner push path).
  virtual void SubmitBatch(uint32_t worker, const runtime::WorkItem* items,
                           uint32_t count) = 0;

  // The flush that ends a body (RunItemOn's last). The executor binding
  // keeps it in `worker`'s private spawn segment (Executor::
  // HandOffFromWorker); every other sink takes it as one more SubmitBatch.
  virtual void SubmitFinalBatch(uint32_t worker, const runtime::WorkItem* items,
                                uint32_t count) {
    SubmitBatch(worker, items, count);
  }

  // Observation hooks for the mc harness (default no-ops): a fork created
  // continuation `continuation_id` expecting `children` completions; a join
  // counter reached zero and queued that continuation. Ids are item ids, so
  // they name one node lifetime, not an arena slot. In a correct run every
  // forked id fires exactly once (join-fires-exactly-once).
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
  // Nodes preallocated per graph. Nodes are reused as tasks finish, so the
  // arena must hold the nodes live at once plus the free-list slack (up to
  // 32 per worker, handed out in 16-node chunks). Workers run their spawn
  // segments newest first, so that is O(W * depth) on both backends while
  // few workers idle (fib(36, 12) on 3 workers: 96-112 nodes on chase_lev,
  // 128-144 on locked), but published items run oldest first on the locked
  // backend. Exhaustion is a loud CHECK, never a silent fallback allocation
  // (docs/tasks.md#sizing).
  uint32_t arena_capacity = 1u << 14;
  // Fault knob (mc `forkjoin` harness): replace the atomic join decrement
  // with a plain load/store pair. Two last-arriving children can then read
  // the same counter value, lose a decrement, and strand the continuation —
  // the checker must find and minimize the join-fires-exactly-once
  // violation (tests/golden/mc_broken_join_counter.json).
  bool broken_join_counter = false;
  // Fault knob (mc `forkjoin` harness): a child whose decrement does NOT
  // reach zero also frees the continuation. The freeing worker's next fork
  // reuses the node while the other children still point at it, so the
  // original join never fires — the checker must find and minimize it
  // (tests/golden/mc_broken_node_recycle.json).
  bool broken_node_recycle = false;
};

// A reusable fork-join DAG: arena, join protocol, and the executor binding.
// Thread-compatible setup (NewRoot/Reset between runs, single thread);
// thread-safe execution (RunItem from any bound worker).
class TaskGraph : public runtime::TaskRunner {
 public:
  explicit TaskGraph(const TaskGraphOptions& options);

  // Allocates the root task (parent = null). Call between runs only.
  TaskNode& NewRoot(TaskBody body);

  // The submittable item for `node`: id = generation << 32 | (arena index +
  // 1), unique per node lifetime; task = the node handle. Submit through
  // Executor::Submit/Seed before Run().
  runtime::WorkItem ItemFor(TaskNode& node) const;

  // True once the root task's subgraph fully completed.
  bool done() const { return done_.load(std::memory_order_acquire); }

  // Rewinds the arena, the free lists, the pool, the counts and the done
  // flag for the next run. All nodes handed out so far are invalidated;
  // steady-state reruns allocate nothing.
  void Reset();

  // Arena high-water since construction/Reset: nodes ever bumped out of the
  // arena, in 16-node chunks. Reused nodes do not count again, so this tracks
  // the live-node peak plus free-list slack, not the nodes a run executed.
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

  // Arena bumps and pool transfers move this many nodes at once.
  static constexpr uint32_t kChunk = 16;
  // A free list longer than this spills its kChunk coldest nodes to the pool.
  static constexpr uint32_t kFreeListMax = 32;

  // Owner-private except `forks`, which the watchdog reads.
  struct alignas(runtime::kCacheLineSize) WorkerState {
    // LIFO free list, linked through TaskNode::parent: the head is the node
    // this worker freed last, still hot in its cache.
    uint32_t free_head = TaskNode::kNoNode;
    uint32_t free_count = 0;
    // Continuations this worker forked since Reset. Single writer (this
    // worker) bumping with load+store; the watchdog subtracts the fires.
    // optsched-lint: allow(mc-hook-coverage): watchdog pending-work bookkeeping, read only by the supervisor outside the checked protocol
    std::atomic<int64_t> forks{0};
  };

  // One firer's row: continuations it fired, indexed by their forker.
  struct alignas(runtime::kCacheLineSize) FireLine {
    static constexpr uint32_t kSlots = runtime::kCacheLineSize / sizeof(int64_t);
    // Single writer (the firing worker), release stores so OutstandingFor's
    // acquire reads of the fires see every fork they settle.
    // optsched-lint: allow(mc-hook-coverage): watchdog pending-work bookkeeping, read only by the supervisor outside the checked protocol
    std::atomic<int64_t> by_forker[kSlots];
  };

  uint32_t IndexOf(const TaskNode& node) const {
    return static_cast<uint32_t>(&node - arena_.get());
  }
  std::atomic<int64_t>& FireCount(uint32_t firer, uint32_t forker) const {
    return fires_[firer * fire_lines_per_row_ + forker / FireLine::kSlots]
        .by_forker[forker % FireLine::kSlots];
  }

  TaskNode* AllocNode(uint32_t worker);
  void FreeNode(WorkerState& state, TaskNode* node);
  // Cold paths of the free list: refill an empty list from the pool, else
  // from a fresh arena chunk; spill a list past kFreeListMax to the pool.
  void Refill(WorkerState& state);
  void Spill(WorkerState& state);
  // Join protocol for a task that returned complete: decrement the counter
  // of its parent (arena index, or kNoNode for the root); the arriver that
  // reaches zero queues the continuation.
  void CompleteTask(uint32_t parent_index, TaskContext& ctx);

  // Raw storage: a node is constructed when a bump first hands it out, so
  // pages past the high-water are never touched and resident memory tracks
  // the live nodes, not arena_capacity.
  struct ArenaDeleter {
    void operator()(TaskNode* nodes) const;
  };

  TaskGraphOptions options_;
  std::unique_ptr<TaskNode[], ArenaDeleter> arena_;
  // Nodes below this index were constructed by an earlier run and keep their
  // generation. Advanced only by Reset, so workers read it race-free.
  uint32_t constructed_ = 0;
  // Shared arena cursor, bumped a chunk at a time once a worker's list and
  // the pool are empty. Chunk handout order is irrelevant to the protocol
  // (any distinct indices work), so concurrent bumps commute.
  // optsched-lint: allow(mc-hook-coverage): arena chunk cursor — handout order is protocol-irrelevant, any interleaving yields distinct indices
  std::atomic<uint32_t> arena_next_{0};
  std::unique_ptr<WorkerState[]> worker_state_;
  uint32_t fire_lines_per_row_;
  std::unique_ptr<FireLine[]> fires_;
  // Graph-wide pool of kChunk-node free lists, by head index. Sized for
  // every node at once, so pushing never allocates.
  runtime::SpinLock pool_lock_;
  std::unique_ptr<uint32_t[]> pool_ OPTSCHED_PT_GUARDED_BY(pool_lock_);
  uint32_t pool_capacity_;
  // Chunks in the pool. Written under pool_lock_; Refill peeks it without the
  // lock so an empty pool costs no lock round trip.
  // optsched-lint: allow(mc-hook-coverage): pool occupancy peek — a stale read only sends a refill to the arena or to an empty pool, and pool_lock_ carries the hooks
  std::atomic<uint32_t> pool_chunks_{0};
  // Root-completion flag. The executor terminates on its TerminationCounts
  // quiescence sum; harnesses and benches poll this at loop boundaries
  // (every poll sits between Yield decision points under the checker).
  // optsched-lint: allow(mc-hook-coverage): termination flag polled at harness loop boundaries, mirrored by TerminationCounts under the executor
  std::atomic<bool> done_{false};
};

// The per-item view a running body forks and spawns through. Stack-allocated
// by RunItemOn; holds the worker-local spawn batch (flushed to the sink at
// the latest when the body's item finishes, the final flush through
// SpawnSink::SubmitFinalBatch, so a worker never exits an item holding back
// runnable work outside its spawn segment).
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
  // Mid-body flush of a full batch (SubmitBatch), and the body's last flush
  // (SubmitFinalBatch).
  void Flush();
  void FlushFinal();

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
