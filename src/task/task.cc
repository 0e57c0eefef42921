#include "src/task/task.h"

#include <algorithm>
#include <memory>
#include <new>

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::task {

namespace mc_hooks = runtime::mc_hooks;

using runtime::WorkItem;

namespace {

// The executor binding: spawn batches land on the worker's own deque through
// the worker-context submit seam, and a body's final flush stays in the
// worker's private spawn segment.
class ExecutorSink final : public SpawnSink {
 public:
  explicit ExecutorSink(runtime::Executor& executor) : executor_(executor) {}

  void SubmitBatch(uint32_t worker, const WorkItem* items, uint32_t count) override {
    executor_.SubmitFromWorker(worker, items, count);
  }
  void SubmitFinalBatch(uint32_t worker, const WorkItem* items, uint32_t count) override {
    executor_.HandOffFromWorker(worker, items, count);
  }

 private:
  runtime::Executor& executor_;
};

}  // namespace

void TaskGraph::ArenaDeleter::operator()(TaskNode* nodes) const {
  ::operator delete(nodes, std::align_val_t{alignof(TaskNode)});
}

TaskGraph::TaskGraph(const TaskGraphOptions& options)
    : options_(options),
      arena_(static_cast<TaskNode*>(::operator new(sizeof(TaskNode) * options.arena_capacity,
                                                   std::align_val_t{alignof(TaskNode)}))),
      worker_state_(std::make_unique<WorkerState[]>(options.max_workers)),
      fire_lines_per_row_((options.max_workers + FireLine::kSlots - 1) / FireLine::kSlots),
      fires_(std::make_unique<FireLine[]>(options.max_workers * fire_lines_per_row_)),
      pool_(std::make_unique_for_overwrite<uint32_t[]>(options.arena_capacity / kChunk + 1)),
      pool_capacity_(options.arena_capacity / kChunk + 1) {
  OPTSCHED_CHECK(options_.max_workers >= 1);
  OPTSCHED_CHECK(options_.arena_capacity >= 1 && options_.arena_capacity < TaskNode::kNoNode);
}

TaskNode& TaskGraph::NewRoot(TaskBody body) {
  TaskNode* node = AllocNode(0);
  node->body = body;
  done_.store(false, std::memory_order_relaxed);  // order: setup-single-threaded
  return *node;
}

WorkItem TaskGraph::ItemFor(TaskNode& node) const {
  const uint64_t id = (static_cast<uint64_t>(node.generation) << 32) | (IndexOf(node) + 1ull);
  return WorkItem{.id = id,
                  .work_units = 1,
                  .weight = 1024,
                  .arrival_ns = 0,
                  .task = reinterpret_cast<uint64_t>(&node)};
}

void TaskGraph::Reset() {
  constructed_ = std::max(constructed_, nodes_allocated());
  arena_next_.store(0, std::memory_order_relaxed);  // order: setup-single-threaded
  pool_chunks_.store(0, std::memory_order_relaxed);  // order: setup-single-threaded
  for (uint32_t w = 0; w < options_.max_workers; ++w) {
    worker_state_[w].free_head = TaskNode::kNoNode;
    worker_state_[w].free_count = 0;
    worker_state_[w].forks.store(0, std::memory_order_relaxed);  // order: setup-single-threaded
    for (uint32_t f = 0; f < options_.max_workers; ++f) {
      std::atomic<int64_t>& fired = FireCount(f, w);
      fired.store(0, std::memory_order_relaxed);  // order: setup-single-threaded
    }
  }
  done_.store(false, std::memory_order_relaxed);  // order: setup-single-threaded
}

uint32_t TaskGraph::nodes_allocated() const {
  // Bumps move whole chunks, so this over-counts by the unused tails of the
  // chunks on the free lists; fine for a headroom metric.
  const uint32_t next = arena_next_.load(std::memory_order_relaxed);  // order: arena-chunk-commutes
  return next < options_.arena_capacity ? next : options_.arena_capacity;
}

int64_t TaskGraph::OutstandingFor(uint32_t worker) const {
  if (worker >= options_.max_workers) {
    return 0;
  }
  // Fires first, with acquire: a fire read here carries the fork it settles,
  // so the difference never goes negative.
  int64_t settled = 0;
  for (uint32_t f = 0; f < options_.max_workers; ++f) {
    const std::atomic<int64_t>& fired = FireCount(f, worker);
    settled += fired.load(std::memory_order_acquire);
  }
  // order: watchdog-pending
  return worker_state_[worker].forks.load(std::memory_order_relaxed) - settled;
}

// Node handout is on the spawn hot path: a pop off the worker's own LIFO
// list, so the node returned is the one it freed last.
OPTSCHED_HOT_PATH TaskNode* TaskGraph::AllocNode(uint32_t worker) {
  OPTSCHED_CHECK(worker < options_.max_workers);
  WorkerState& state = worker_state_[worker];
  if (state.free_head == TaskNode::kNoNode) {
    Refill(state);
  }
  TaskNode* node = &arena_[state.free_head];
  state.free_head = node->parent;
  --state.free_count;
  ++node->generation;
  node->parent = TaskNode::kNoNode;
  node->join.store(0, std::memory_order_relaxed);  // order: join-init-prepublish
  node->forker = worker;
  return node;
}

OPTSCHED_HOT_PATH void TaskGraph::FreeNode(WorkerState& state, TaskNode* node) {
  node->parent = state.free_head;
  state.free_head = IndexOf(*node);
  if (++state.free_count > kFreeListMax) {
    Spill(state);
  }
}

void TaskGraph::Refill(WorkerState& state) {
  // order: pool-peek
  if (pool_chunks_.load(std::memory_order_relaxed) != 0) {
    LockGuard<runtime::SpinLock> guard(pool_lock_);
    const uint32_t chunks = pool_chunks_.load(std::memory_order_relaxed);  // order: pool-locked
    if (chunks != 0) {
      state.free_head = pool_[chunks - 1];
      state.free_count = kChunk;
      pool_chunks_.store(chunks - 1, std::memory_order_relaxed);  // order: pool-locked
      return;
    }
  }
  // order: arena-chunk-commutes
  const uint32_t begin = arena_next_.fetch_add(kChunk, std::memory_order_relaxed);
  OPTSCHED_CHECK_MSG(begin < options_.arena_capacity,
                     "TaskGraph arena exhausted — size arena_capacity for the live nodes "
                     "(docs/tasks.md#sizing)");
  const uint32_t end = std::min(begin + kChunk, options_.arena_capacity);
  // Linked back to front, so the chunk is handed out in index order.
  for (uint32_t i = end; i-- > begin;) {
    if (i >= constructed_) {
      std::construct_at(&arena_[i]);
    }
    arena_[i].parent = state.free_head;
    state.free_head = i;
  }
  state.free_count = end - begin;
}

void TaskGraph::Spill(WorkerState& state) {
  // Keep the most recently freed nodes (still in cache); the kChunk below
  // them, the list's bottom, become one pool chunk.
  uint32_t last_kept = state.free_head;
  for (uint32_t i = 1; i < state.free_count - kChunk; ++i) {
    last_kept = arena_[last_kept].parent;
  }
  const uint32_t chunk = arena_[last_kept].parent;
  arena_[last_kept].parent = TaskNode::kNoNode;
  state.free_count -= kChunk;
  LockGuard<runtime::SpinLock> guard(pool_lock_);
  const uint32_t chunks = pool_chunks_.load(std::memory_order_relaxed);  // order: pool-locked
  OPTSCHED_CHECK_MSG(chunks < pool_capacity_, "TaskGraph pool overflow: a node was freed twice");
  pool_[chunks] = chunk;
  pool_chunks_.store(chunks + 1, std::memory_order_relaxed);  // order: pool-locked
}

// The join protocol: one atomic RMW per completed task, and the decrement
// that reaches zero queues the continuation on the arriver's own queue. The
// acq_rel RMW chain makes every sibling's result writes visible to the last
// arriver; its queue push then publishes them to whoever pops the
// continuation. Workers never wait here — that is the whole design.
OPTSCHED_HOT_PATH void TaskGraph::CompleteTask(uint32_t parent_index, TaskContext& ctx) {
  if (parent_index == TaskNode::kNoNode) {
    // Root completed: the graph is done. Release pairs with done()'s acquire
    // so a poller that sees the flag also sees the root's result words.
    done_.store(true, std::memory_order_release);
    return;
  }
  TaskNode* parent = &arena_[parent_index];
  int32_t remaining;
  if (options_.broken_join_counter) {
    // Fault variant: a plain load/store pair instead of the RMW. Two
    // children interleaved between the load and the store both observe the
    // same value, one decrement is lost, and the join never fires — the
    // counterexample the mc harness must find and minimize.
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kTaskJoinLoad, &parent->join);
    // order: broken-join-fault-knob
    const int32_t observed = parent->join.load(std::memory_order_relaxed);
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kTaskJoinDec, &parent->join);
    parent->join.store(observed - 1, std::memory_order_relaxed);  // order: broken-join-fault-knob
    remaining = observed - 1;
  } else {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kTaskJoinDec, &parent->join);
    remaining = parent->join.fetch_sub(1, std::memory_order_acq_rel) - 1;
  }
  if (remaining != 0) {
    if (options_.broken_node_recycle) {
      // Fault variant: free the continuation while siblings still owe it.
      FreeNode(worker_state_[ctx.worker_], parent);
    }
    return;
  }
  // Last arriver: the continuation's inputs are all written; settle the
  // forker's count on this worker's own row and queue the continuation.
  std::atomic<int64_t>& fired = FireCount(ctx.worker_, parent->forker);
  // order: single-writer-count
  fired.store(fired.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  ctx.sink_->OnJoinFire(ctx.worker_, ItemFor(*parent).id);
  ctx.Enqueue(*parent);
}

OPTSCHED_HOT_PATH void TaskGraph::RunItemOn(const WorkItem& item, uint32_t worker,
                                            SpawnSink& sink) {
  TaskNode* node = reinterpret_cast<TaskNode*>(item.task);
  OPTSCHED_CHECK(node != nullptr);
  TaskContext ctx(this, worker, &sink);
  ctx.current_ = node;
  node->body(ctx, *node);
  // The node is dead: a fork moved its obligation to the continuation, and
  // its children point there. Free it before the join, so the root's done
  // flag is published after this worker's last write to the graph.
  const uint32_t parent = node->parent;
  FreeNode(worker_state_[worker], node);
  if (!ctx.deferred_) {
    CompleteTask(parent, ctx);
  }
  // Flush strictly before returning: the worker is about to FinishCurrent
  // and look for more work, and held-back spawns would be invisible to
  // thieves and to the termination count. The sink may keep the flush in
  // this worker's private spawn segment; it is counted all the same.
  ctx.FlushFinal();
}

void TaskGraph::RunItem(const WorkItem& item, runtime::Executor& executor, uint32_t worker) {
  ExecutorSink sink(executor);
  RunItemOn(item, worker, sink);
}

OPTSCHED_HOT_PATH TaskNode& TaskContext::ForkN(TaskBody continuation, uint32_t children) {
  OPTSCHED_CHECK_MSG(!deferred_, "a body may fork at most once");
  OPTSCHED_CHECK(children >= 1);
  TaskNode* cont = graph_->AllocNode(worker_);
  cont->body = continuation;
  // The continuation adopts the current task's completion obligation: same
  // parent, and the current task will NOT decrement it on return.
  cont->parent = current_->parent;
  // order: join-init-prepublish
  cont->join.store(static_cast<int32_t>(children), std::memory_order_relaxed);
  deferred_ = true;
  std::atomic<int64_t>& forked = graph_->worker_state_[worker_].forks;
  // order: single-writer-count
  forked.store(forked.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  sink_->OnFork(worker_, graph_->ItemFor(*cont).id, children);
  return *cont;
}

OPTSCHED_HOT_PATH TaskContext::Fork2Nodes TaskContext::Fork2(TaskBody continuation,
                                                             TaskBody left, TaskBody right) {
  TaskNode& cont = ForkN(continuation, 2);
  return Fork2Nodes{cont, NewChild(left, cont), NewChild(right, cont)};
}

OPTSCHED_HOT_PATH TaskNode& TaskContext::NewChild(TaskBody body, TaskNode& parent) {
  TaskNode* child = graph_->AllocNode(worker_);
  child->body = body;
  child->parent = graph_->IndexOf(parent);
  return *child;
}

OPTSCHED_HOT_PATH void TaskContext::Spawn(TaskNode& child) { Enqueue(child); }

OPTSCHED_HOT_PATH void TaskContext::Enqueue(TaskNode& node) {
  if (batch_size_ == kSpawnBatch) {
    Flush();
  }
  batch_[batch_size_++] = graph_->ItemFor(node);
}

OPTSCHED_HOT_PATH void TaskContext::Flush() {
  if (batch_size_ == 0) {
    return;
  }
  const uint32_t count = batch_size_;
  batch_size_ = 0;
  sink_->SubmitBatch(worker_, batch_, count);
}

OPTSCHED_HOT_PATH void TaskContext::FlushFinal() {
  if (batch_size_ == 0) {
    return;
  }
  const uint32_t count = batch_size_;
  batch_size_ = 0;
  sink_->SubmitFinalBatch(worker_, batch_, count);
}

}  // namespace optsched::task
