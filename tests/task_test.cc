// The continuation-counted task layer (src/task): join-counter semantics,
// last-arriver continuation hand-off, graph reuse across runs, the recursive
// kernels on the real executor over both queue backends, and the watchdog's
// outstanding-continuation accounting. The multi-worker tests double as the
// TSan stress when the suite is built with -fsanitize=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <random>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"
#include "src/workload/forkjoin.h"

namespace optsched {
namespace {

using runtime::WorkItem;
using task::TaskContext;
using task::TaskGraph;
using task::TaskGraphOptions;
using task::TaskNode;

// Direct-drive sink: spawned items land in a local FIFO, forks and fires are
// recorded. Lets a single test thread play "the worker" and step the join
// protocol one task at a time.
class RecordingSink final : public task::SpawnSink {
 public:
  void SubmitBatch(uint32_t /*worker*/, const WorkItem* items, uint32_t count) override {
    for (uint32_t i = 0; i < count; ++i) {
      ready.push_back(items[i]);
    }
  }
  void OnFork(uint32_t /*worker*/, uint64_t continuation_id, uint32_t children) override {
    forks.push_back({continuation_id, children});
  }
  void OnJoinFire(uint32_t /*worker*/, uint64_t continuation_id) override {
    fires.push_back(continuation_id);
  }

  std::deque<WorkItem> ready;
  std::vector<std::pair<uint64_t, uint32_t>> forks;
  std::vector<uint64_t> fires;
};

// A body that forks `env[1]` leaf children (each bumps the counter at
// env[0]) under a continuation that adds 1000 to the same counter.
void CountingLeaf(TaskContext& /*ctx*/, TaskNode& self) {
  *reinterpret_cast<uint64_t*>(self.env[0]) += 1;
}

void CountingCont(TaskContext& /*ctx*/, TaskNode& self) {
  *reinterpret_cast<uint64_t*>(self.env[0]) += 1000;
}

void CountingRoot(TaskContext& ctx, TaskNode& self) {
  const uint32_t children = static_cast<uint32_t>(self.env[1]);
  TaskNode& cont = ctx.ForkN(CountingCont, children);
  cont.env[0] = self.env[0];
  for (uint32_t i = 0; i < children; ++i) {
    TaskNode& child = ctx.NewChild(CountingLeaf, cont);
    child.env[0] = self.env[0];
    ctx.Spawn(child);
  }
}

TEST(TaskGraphTest, JoinFiresOnlyOnLastArriver) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 1, .arena_capacity = 64});
  RecordingSink sink;
  uint64_t counter = 0;

  TaskNode& root = graph.NewRoot(CountingRoot);
  root.env[0] = reinterpret_cast<uint64_t>(&counter);
  root.env[1] = 3;
  graph.RunItemOn(graph.ItemFor(root), 0, sink);

  // The root forked: its obligation moved to the continuation, nothing fired
  // yet, three children are ready, and the forker owes one continuation.
  ASSERT_EQ(sink.forks.size(), 1u);
  EXPECT_EQ(sink.forks[0].second, 3u);
  EXPECT_TRUE(sink.fires.empty());
  ASSERT_EQ(sink.ready.size(), 3u);
  EXPECT_EQ(graph.OutstandingFor(0), 1);
  EXPECT_FALSE(graph.done());

  // First two arrivers decrement and walk away — no fire, no new spawn.
  for (int i = 0; i < 2; ++i) {
    const WorkItem child = sink.ready.front();
    sink.ready.pop_front();
    const size_t ready_before = sink.ready.size();
    graph.RunItemOn(child, 0, sink);
    EXPECT_TRUE(sink.fires.empty()) << "join fired before the last arriver";
    EXPECT_EQ(sink.ready.size(), ready_before);
  }
  EXPECT_EQ(counter, 2u);

  // The last arriver fires the join exactly once and enqueues the
  // continuation on its own queue; the obligation is settled.
  ASSERT_EQ(sink.ready.size(), 1u);
  const WorkItem last = sink.ready.front();
  sink.ready.pop_front();
  graph.RunItemOn(last, 0, sink);
  ASSERT_EQ(sink.fires.size(), 1u);
  EXPECT_EQ(sink.fires[0], sink.forks[0].first);
  ASSERT_EQ(sink.ready.size(), 1u);
  EXPECT_EQ(graph.OutstandingFor(0), 0);
  EXPECT_FALSE(graph.done());

  // Running the continuation completes the root's (transferred) obligation.
  const WorkItem cont = sink.ready.front();
  sink.ready.pop_front();
  graph.RunItemOn(cont, 0, sink);
  EXPECT_EQ(counter, 1003u);
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(sink.fires.size(), 1u);
}

TEST(TaskGraphTest, ResetRecyclesTheArenaAcrossRuns) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 1, .arena_capacity = 64});
  RecordingSink sink;
  for (int run = 0; run < 3; ++run) {
    uint64_t counter = 0;
    graph.Reset();
    EXPECT_EQ(graph.nodes_allocated(), 0u);
    TaskNode& root = graph.NewRoot(CountingRoot);
    root.env[0] = reinterpret_cast<uint64_t>(&counter);
    root.env[1] = 2;
    graph.RunItemOn(graph.ItemFor(root), 0, sink);
    while (!sink.ready.empty()) {
      const WorkItem item = sink.ready.front();
      sink.ready.pop_front();
      graph.RunItemOn(item, 0, sink);
    }
    EXPECT_TRUE(graph.done());
    EXPECT_EQ(counter, 1002u);
    // The high-water is one bumped chunk, run over run: the four nodes of
    // the tree come out of it, and reuse never bumps again.
    EXPECT_EQ(graph.nodes_allocated(), 16u);
  }
}

TEST(TaskGraphTest, ArenaIndexIdsAreStable) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 1, .arena_capacity = 16});
  RecordingSink sink;
  TaskNode& root = graph.NewRoot(CountingLeaf);
  uint64_t counter = 0;
  root.env[0] = reinterpret_cast<uint64_t>(&counter);
  const WorkItem item = graph.ItemFor(root);
  // Low half: arena index 0 → 1 (0 is "no task"); high half: the slot's
  // first lifetime.
  EXPECT_EQ(item.id, (uint64_t{1} << 32) | 1u);
  EXPECT_EQ(graph.ItemFor(root).id, item.id);  // stable for the lifetime
  EXPECT_NE(item.task, 0u);
  EXPECT_EQ(item.work_units, 1u);
  graph.RunItemOn(item, 0, sink);
  EXPECT_TRUE(graph.done());

  // Reset rewinds the arena, so the next root takes slot 0 again. The slot
  // keeps its generation across Reset, so the id's high half moves on: same
  // low half, new id.
  graph.Reset();
  TaskNode& again = graph.NewRoot(CountingLeaf);
  const WorkItem reused = graph.ItemFor(again);
  EXPECT_EQ(&again, &root);
  EXPECT_EQ(reused.id, (uint64_t{2} << 32) | 1u);
}

// A round forks `kLeaves` leaves under a continuation that is the next
// round: env[0] = rounds left, env[1] = leaf counter.
constexpr uint32_t kLeaves = 4;

void RoundTask(TaskContext& ctx, TaskNode& self) {
  if (self.env[0] == 0) {
    return;
  }
  TaskNode& next = ctx.ForkN(RoundTask, kLeaves);
  next.env[0] = self.env[0] - 1;
  next.env[1] = self.env[1];
  for (uint32_t i = 0; i < kLeaves; ++i) {
    TaskNode& leaf = ctx.NewChild(CountingLeaf, next);
    leaf.env[0] = self.env[1];
    ctx.Spawn(leaf);
  }
}

TEST(TaskGraphTest, NodesFreedOnAnotherWorkerComeBackThroughThePool) {
  // Worker 0 runs every round and allocates every node; worker 1 runs every
  // leaf and so frees four nodes a round that it never allocates. Without
  // the pool worker 0 would bump the arena each round and exhaust it; with
  // it, a run of 50x the arena's capacity stays inside the arena.
  constexpr uint32_t kCapacity = 64;
  constexpr uint64_t kRounds = 50 * kCapacity / (kLeaves + 1) + 1;
  TaskGraph graph(TaskGraphOptions{.max_workers = 2, .arena_capacity = kCapacity});
  RecordingSink sinks[2];
  uint64_t leaves = 0;
  TaskNode& root = graph.NewRoot(RoundTask);
  root.env[0] = kRounds;
  root.env[1] = reinterpret_cast<uint64_t>(&leaves);
  std::deque<WorkItem> queues[2];
  queues[0].push_back(graph.ItemFor(root));
  uint64_t executed = 0;
  while (!queues[0].empty() || !queues[1].empty()) {
    const uint32_t w = queues[0].empty() ? 1 : 0;
    const WorkItem item = queues[w].front();
    queues[w].pop_front();
    graph.RunItemOn(item, w, sinks[w]);
    ++executed;
    for (RecordingSink& sink : sinks) {
      for (const WorkItem& ready : sink.ready) {
        const bool leaf = reinterpret_cast<TaskNode*>(ready.task)->body == CountingLeaf;
        queues[leaf ? 1 : 0].push_back(ready);
      }
      sink.ready.clear();
    }
    // Worker 0 forked the round whose leaves are queued; worker 1 fires it.
    EXPECT_EQ(graph.OutstandingFor(0), queues[1].empty() ? 0 : 1);
    EXPECT_EQ(graph.OutstandingFor(1), 0);
  }
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(leaves, kRounds * kLeaves);
  EXPECT_EQ(executed, kRounds * (kLeaves + 1) + 1);
  EXPECT_GE(executed, 50u * kCapacity);
  EXPECT_LE(graph.nodes_allocated(), kCapacity);
  EXPECT_EQ(sinks[0].forks.size(), kRounds);
  EXPECT_TRUE(sinks[0].fires.empty());
  EXPECT_EQ(sinks[1].fires.size(), kRounds);
}

TEST(TaskGraphTest, ItemIdsAreUniqueWithinADrain) {
  // A drain of ~1k tasks through a 64-node arena reuses every slot many
  // times over; the generation keeps every item id distinct.
  TaskGraph graph(TaskGraphOptions{.max_workers = 1, .arena_capacity = 64});
  RecordingSink sink;
  uint64_t result = 0;
  std::vector<WorkItem> stack = {workload::MakeFibRoot(graph, 18, 6, &result)};
  std::vector<uint64_t> ids;
  std::vector<uint64_t> slots;
  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    ids.push_back(item.id);
    slots.push_back(item.id & 0xffffffffu);
    graph.RunItemOn(item, 0, sink);
    stack.insert(stack.end(), sink.ready.begin(), sink.ready.end());
    sink.ready.clear();
  }
  ASSERT_TRUE(graph.done());
  EXPECT_EQ(result, workload::FibSequential(18));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "an item id repeated";
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  EXPECT_LE(slots.size(), 64u);
  EXPECT_GT(ids.size(), 10 * slots.size());
}

class TaskExecutorTest : public ::testing::TestWithParam<runtime::QueueBackend> {};

runtime::ExecutorConfig BaseConfig(runtime::QueueBackend backend, TaskGraph& graph,
                                   uint32_t workers = 4) {
  runtime::ExecutorConfig config;
  config.num_workers = workers;
  config.backend = backend;
  config.chase_lev_capacity = 4096;
  config.task_runner = &graph;
  return config;
}

TEST_P(TaskExecutorTest, FibComputesOnTheExecutorAndReusesTheGraph) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));

  for (int run = 0; run < 2; ++run) {
    graph.Reset();
    uint64_t result = 0;
    executor.Seed(0, {workload::MakeFibRoot(graph, 25, 10, &result)});
    const runtime::ExecutorReport report = executor.Run();
    EXPECT_TRUE(graph.done());
    EXPECT_EQ(result, 75025u) << report.ToString();
    for (uint32_t w = 0; w < 4; ++w) {
      EXPECT_EQ(graph.OutstandingFor(w), 0) << "worker " << w << " run " << run;
    }
  }
}

TEST_P(TaskExecutorTest, FourThiefStressOverFib) {
  // The TSan stress: 4 workers racing pops, steals, spawns and join
  // decrements over a ~7.7k-node tree, repeated so thief/owner interleavings
  // vary. Under plain builds this doubles as a determinism check.
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));
  for (int run = 0; run < 4; ++run) {
    graph.Reset();
    uint64_t result = 0;
    executor.Seed(0, {workload::MakeFibRoot(graph, 25, 10, &result)});
    executor.Run();
    ASSERT_EQ(result, 75025u) << "run " << run;
  }
}

// Internal (forking) nodes of fib(n) above `cutoff`; the run executes
// 3 * internal + 1 task items (root, two children and a continuation per
// fork).
uint64_t FibInternalNodes(uint64_t n, uint64_t cutoff) {
  return n < cutoff ? 0 : 1 + FibInternalNodes(n - 1, cutoff) + FibInternalNodes(n - 2, cutoff);
}

TEST_P(TaskExecutorTest, FibRunsInAnArenaAFractionOfItsNodes) {
  // fib(36, cutoff 12) executes 3 * I(36) + 1 = 589,252 tasks on three
  // workers. On chase_lev the owner pops its newest item, so the live nodes
  // stay O(W * depth) and an arena sized for fib(30) — 32,836 nodes, 1/18 of
  // the tasks — holds the run. DEVIATION: the locked backend pops its oldest
  // item, so its live set is breadth-first. The run-next handoff runs each
  // fork's second child and each fired continuation depth-first, which cut
  // its high-water from 87k–121k nodes to 25k–79k (20 runs, 4-vCPU VM), but
  // a single run can still pass the fib(30) arena, so it gets the full-tree
  // arena, and the run must still be exact. Either way every worker's fork
  // count must settle.
  const bool lifo = GetParam() == runtime::QueueBackend::kChaseLev;
  const uint64_t tasks = 3 * FibInternalNodes(36, 12) + 1;
  const uint32_t capacity =
      static_cast<uint32_t>(lifo ? 3 * FibInternalNodes(30, 12) + 1 : tasks);
  TaskGraph graph(TaskGraphOptions{.max_workers = 3, .arena_capacity = capacity});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph, 3));
  uint64_t result = 0;
  executor.Seed(0, {workload::MakeFibRoot(graph, 36, 12, &result)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(result, workload::FibSequential(36));
  // A fork's second child and a fired continuation never enter a queue (the
  // run-next handoff), yet each is submitted and executed exactly once.
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(report.total_items, tasks);
  EXPECT_EQ(executed, tasks);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  if (lifo) {
    EXPECT_EQ(capacity, 32836u);
    EXPECT_GT(tasks, 17u * capacity);
  }
  EXPECT_LE(graph.nodes_allocated(), capacity);
  for (uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(graph.OutstandingFor(w), 0) << "worker " << w;
  }
}

TEST_P(TaskExecutorTest, BackToBackTinyDrainsNeverTerminateEarly) {
  // Closed-run termination under churn: 500 tiny drains, each only a few
  // dozen items, so almost every item races the idle workers' quiescence
  // sums. Run() returns once every worker has left its loop on a "drained"
  // sum; if the sums could read drained while a spawned child or a fired
  // continuation was still queued, a run would end with the graph
  // unfinished or with fewer executions than nodes.
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));
  const uint64_t nodes = 3 * FibInternalNodes(8, 3) + 1;
  for (int run = 0; run < 500; ++run) {
    graph.Reset();
    uint64_t result = 0;
    executor.Seed(0, {workload::MakeFibRoot(graph, 8, 3, &result)});
    const runtime::ExecutorReport report = executor.Run();
    ASSERT_TRUE(graph.done()) << "run " << run << ": " << report.ToString();
    uint64_t executed = 0;
    for (const runtime::WorkerStats& w : report.workers) {
      executed += w.items_executed;
    }
    ASSERT_EQ(executed, nodes) << "run " << run;
    ASSERT_EQ(report.total_items, nodes) << "run " << run;
    ASSERT_EQ(result, 21u) << "run " << run;
  }
}

TEST_P(TaskExecutorTest, MergesortSortsOnTheExecutor) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));

  const uint64_t n = 1u << 16;
  std::vector<uint64_t> data(n);
  std::vector<uint64_t> scratch(n);
  std::mt19937_64 rng(42);
  for (uint64_t& v : data) {
    v = rng();
  }
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  executor.Seed(0, {workload::MakeMergesortRoot(graph, data.data(), scratch.data(), n,
                                                /*cutoff=*/1024)});
  executor.Run();
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(data, want);
}

TEST_P(TaskExecutorTest, PrefixScanMatchesSequentialReference) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));

  const uint64_t n = 1u << 15;
  const uint64_t block = 1u << 10;
  std::vector<uint64_t> data(n);
  std::iota(data.begin(), data.end(), 1);
  std::vector<uint64_t> want(n);
  std::partial_sum(data.begin(), data.end(), want.begin());
  std::vector<uint64_t> block_sums((n + block - 1) / block);

  executor.Seed(0, {workload::MakeScanRoot(graph, data.data(), n, block, block_sums.data())});
  executor.Run();
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(data, want);
}

TEST_P(TaskExecutorTest, SkewedTreeCompletesAndSpreadsWork) {
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));

  executor.Seed(0, {workload::MakeSkewedRoot(graph, /*depth=*/16, /*leaves=*/8,
                                             /*leaf_spins=*/2000)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_TRUE(graph.done());
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  // depth*(leaves+2) tasks plus the root's continuation chain, all executed.
  EXPECT_EQ(executed, report.total_items);
}

TEST_P(TaskExecutorTest, WatchdogCountsOutstandingContinuationsAsPending) {
  // The satellite: a deep fork-join drain must classify as transient load —
  // forked-but-unfired continuations are PENDING work, so the watchdog never
  // escalates a persistent work-conservation violation against a worker that
  // is busy running the subtree of a join it owes.
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::ExecutorConfig config = BaseConfig(GetParam(), graph);
  config.watchdog = true;
  config.supervisor_poll_us = 100;
  // Generous persistence threshold (~200ms of *continuous* idle-while-
  // overloaded before escalation): under TSan on a 2-hw-thread host a worker
  // can be descheduled for tens of milliseconds, which is scheduler noise,
  // not an accounting bug. A worker genuinely blocked on a join would idle
  // for the entire drain and still trip this.
  config.watchdog_threshold_samples = 2000;
  runtime::Executor executor(policies::MakeThreadCount(), config);

  uint64_t result = 0;
  executor.Seed(0, {workload::MakeFibRoot(graph, 25, 10, &result)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_EQ(result, 75025u);
  EXPECT_EQ(report.watchdog.persistent_violations, 0u) << report.ToString();
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(graph.OutstandingFor(w), 0);
  }
}

// A chain of `env[1]` links, each forking one child under a one-child
// continuation; every body bumps the counter at env[0] and spins env[2]
// iterations. Every body but the last ends with a flush of exactly one item
// (the child, or the continuation its completion fired), so every body hands
// its worker the item it runs next, nothing is ever pushed, and exactly one
// item is outstanding at any time. 2 * links + 1 items in all.
void SpinFor(uint64_t iterations) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    sink = sink + i;
  }
}

void ChainCont(TaskContext& /*ctx*/, TaskNode& self) {
  *reinterpret_cast<uint64_t*>(self.env[0]) += 1;
  SpinFor(self.env[2]);
}

void ChainLink(TaskContext& ctx, TaskNode& self) {
  *reinterpret_cast<uint64_t*>(self.env[0]) += 1;
  SpinFor(self.env[2]);
  if (self.env[1] == 0) {
    return;
  }
  TaskNode& cont = ctx.ForkN(ChainCont, 1);
  cont.env[0] = self.env[0];
  cont.env[2] = self.env[2];
  TaskNode& child = ctx.NewChild(ChainLink, cont);
  child.env[0] = self.env[0];
  child.env[1] = self.env[1] - 1;
  child.env[2] = self.env[2];
  ctx.Spawn(child);
}

WorkItem ChainRoot(TaskGraph& graph, uint64_t links, uint64_t spins, uint64_t* counter) {
  TaskNode& root = graph.NewRoot(ChainLink);
  root.env[0] = reinterpret_cast<uint64_t>(counter);
  root.env[1] = links;
  root.env[2] = spins;
  return graph.ItemFor(root);
}

TEST_P(TaskExecutorTest, CrashAfterAHandoffPushesTheHandedItemBack) {
  // Every item of the chain but the last ends in a handoff, so every crash
  // at the end of an item strikes a worker holding a handed item. The loop
  // must push it back (counted since the handoff) for the restarted worker
  // or a thief: the chain completes and every item runs exactly once.
  constexpr uint64_t kLinks = 2000;
  TaskGraph graph(TaskGraphOptions{.max_workers = 4});
  runtime::ExecutorConfig config = BaseConfig(GetParam(), graph);
  config.fault_plan.crash_rate = 0.01;
  config.fault_plan.crash_restart_us = 20;
  config.fault_plan.seed = 3;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  uint64_t counter = 0;
  executor.Seed(0, {ChainRoot(graph, kLinks, /*spins=*/0, &counter)});
  const runtime::ExecutorReport report = executor.Run();
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_GT(report.Totals().crashes, 0u);
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(counter, 2 * kLinks + 1);
  EXPECT_EQ(report.total_items, 2 * kLinks + 1) << report.ToString();
  EXPECT_EQ(executed, report.total_items);
}

TEST_P(TaskExecutorTest, DeadlineWithAHandoffPendingKeepsItCountedAndQueued) {
  // The chain outlasts the deadline, so the worker running it holds a handed
  // item when it sees the stop. It pushes the item back: the report counts
  // exactly that one item as left unexecuted, it sits on a queue, and the
  // next closed run finishes the chain from it.
  constexpr uint64_t kLinks = 20000;
  TaskGraph graph(TaskGraphOptions{.max_workers = 4, .arena_capacity = 2 * kLinks + 64});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph));
  uint64_t counter = 0;
  executor.Seed(0, {ChainRoot(graph, kLinks, /*spins=*/2000, &counter)});
  const runtime::ExecutorReport first = executor.RunFor(/*duration_ms=*/5);
  ASSERT_FALSE(graph.done()) << "the chain finished before the deadline: lengthen it";
  uint64_t executed_first = 0;
  for (const runtime::WorkerStats& w : first.workers) {
    executed_first += w.items_executed;
  }
  EXPECT_EQ(first.items_left_unexecuted, 1u) << first.ToString();
  EXPECT_EQ(first.total_items, executed_first + 1);
  int64_t queued = 0;
  for (uint32_t q = 0; q < 4; ++q) {
    queued += executor.machine().queue(q).ExactLoad().task_count;
  }
  EXPECT_EQ(queued, 1);

  const runtime::ExecutorReport second = executor.Run();
  uint64_t executed_second = 0;
  for (const runtime::WorkerStats& w : second.workers) {
    executed_second += w.items_executed;
  }
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(counter, 2 * kLinks + 1);
  EXPECT_EQ(executed_first + executed_second, 2 * kLinks + 1);
  EXPECT_EQ(second.total_items, executed_second);
  EXPECT_EQ(second.items_left_unexecuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, TaskExecutorTest,
                         ::testing::Values(runtime::QueueBackend::kLocked,
                                           runtime::QueueBackend::kChaseLev),
                         [](const auto& info) {
                           return std::string(runtime::QueueBackendName(info.param));
                         });

}  // namespace
}  // namespace optsched
