// The continuation-counted task layer (src/task): join-counter semantics,
// last-arriver continuation hand-off, graph reuse across runs, the recursive
// kernels on the real executor over both queue backends, and the watchdog's
// outstanding-continuation accounting. The multi-worker tests double as the
// TSan stress when the suite is built with -fsanitize=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
  // workers in an arena sized for fib(30) — 32,836 nodes, 1/18 of the tasks.
  // Each worker runs its spawn segment newest first, and only publishes to
  // its queue while a sibling is idle, so the live nodes stay O(W * depth)
  // on both backends even though the locked backend pops its oldest item:
  // 96-112 nodes on chase_lev and 128-144 on locked (20 runs, 4-vCPU VM).
  // Every worker's fork count must settle.
  const uint64_t tasks = 3 * FibInternalNodes(36, 12) + 1;
  const uint32_t capacity = static_cast<uint32_t>(3 * FibInternalNodes(30, 12) + 1);
  TaskGraph graph(TaskGraphOptions{.max_workers = 3, .arena_capacity = capacity});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph, 3));
  uint64_t result = 0;
  executor.Seed(0, {workload::MakeFibRoot(graph, 36, 12, &result)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(result, workload::FibSequential(36));
  // Kept items never enter a queue unless published, yet each is submitted
  // and executed exactly once.
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(report.total_items, tasks);
  EXPECT_EQ(executed, tasks);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(capacity, 32836u);
  EXPECT_GT(tasks, 17u * capacity);
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

// Spins `iterations` times: a task body's stand-in for work.
void SpinFor(uint64_t iterations) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    sink = sink + i;
  }
}

// A ladder of `levels` links: link k forks a leaf and link k - 1 under one
// continuation and spawns the leaf first, so the link runs next and every
// level leaves its leaf in the worker's spawn segment — a left-deep chain
// whose kept items grow by one per level. Each body marks its own slot of a
// hit table (link k: 3k, its leaf: 3k - 2, its continuation: 3k - 1) and
// spins env[2] iterations; 3 * levels + 1 items in all. env[3], when set,
// points at a LadderBottom that link 0 fills in.
struct LadderBottom {
  runtime::Executor* executor = nullptr;
  int64_t queued = -1;  // items on link 0's own queue while it runs
};

void LadderHit(TaskNode& self) {
  reinterpret_cast<std::atomic<uint32_t>*>(self.env[0])[self.env[1]].fetch_add(
      1, std::memory_order_relaxed);
  SpinFor(self.env[2]);
}

void LadderLeaf(TaskContext& /*ctx*/, TaskNode& self) { LadderHit(self); }

void LadderLink(TaskContext& ctx, TaskNode& self) {
  LadderHit(self);
  const uint64_t level = self.env[1] / 3;
  if (level == 0) {
    if (auto* bottom = reinterpret_cast<LadderBottom*>(self.env[3])) {
      bottom->queued = bottom->executor->machine().queue(ctx.worker()).ExactLoad().task_count;
    }
    return;
  }
  TaskContext::Fork2Nodes fork = ctx.Fork2(LadderLeaf, LadderLeaf, LadderLink);
  for (TaskNode* node : {&fork.cont, &fork.left, &fork.right}) {
    node->env[0] = self.env[0];
    node->env[2] = self.env[2];
    node->env[3] = self.env[3];
  }
  fork.left.env[1] = 3 * level - 2;
  fork.cont.env[1] = 3 * level - 1;
  fork.right.env[1] = 3 * (level - 1);
  ctx.Spawn(fork.left);
  ctx.Spawn(fork.right);
}

// The hit table of a ladder of `levels` links, all zero.
std::vector<std::atomic<uint32_t>> LadderHits(uint64_t levels) {
  return std::vector<std::atomic<uint32_t>>(3 * levels + 1);
}

WorkItem LadderRoot(TaskGraph& graph, uint64_t levels, uint64_t spins,
                    std::vector<std::atomic<uint32_t>>& hits, LadderBottom* bottom = nullptr) {
  TaskNode& root = graph.NewRoot(LadderLink);
  root.env[0] = reinterpret_cast<uint64_t>(hits.data());
  root.env[1] = 3 * levels;
  root.env[2] = spins;
  root.env[3] = reinterpret_cast<uint64_t>(bottom);
  return graph.ItemFor(root);
}

// Slots hit other than exactly once: lost items and items run twice.
uint64_t MissedOrRepeated(const std::vector<std::atomic<uint32_t>>& hits) {
  return static_cast<uint64_t>(std::count_if(hits.begin(), hits.end(), [](const auto& hit) {
    return hit.load(std::memory_order_relaxed) != 1;
  }));
}

TEST_P(TaskExecutorTest, LadderDeeperThanTheSpawnSegmentSpillsIntoTheQueue) {
  // One worker has no idle sibling, so only overflow publishes: at the
  // ladder's bottom every level's leaf is still kept, and all but at most a
  // segment's worth of them must have spilled onto the queue.
  constexpr uint64_t kLevels = 4 * runtime::Executor::kSpawnSegmentCapacity;
  TaskGraph graph(TaskGraphOptions{.max_workers = 1});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph, 1));
  std::vector<std::atomic<uint32_t>> hits = LadderHits(kLevels);
  LadderBottom bottom{.executor = &executor};
  executor.Seed(0, {LadderRoot(graph, kLevels, /*spins=*/0, hits, &bottom)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(MissedOrRepeated(hits), 0u);
  EXPECT_EQ(report.total_items, 3 * kLevels + 1);
  EXPECT_EQ(report.workers[0].items_executed, 3 * kLevels + 1);
  // Link 0 itself runs, so the queue shows it on top of the spilled leaves.
  EXPECT_GE(bottom.queued,
            static_cast<int64_t>(kLevels - runtime::Executor::kSpawnSegmentCapacity));
}

TEST_P(TaskExecutorTest, CrashWithKeptSpawnsLosesNoItemAndRunsNoneTwice) {
  // Every link ends with a two-item flush into the spawn segment, so a crash
  // at the end of a link strikes a worker with kept items, and with no idle
  // sibling to publish to the segment grows to its capacity. The loop must
  // push the whole segment back, counted since its handoff.
  constexpr uint64_t kLevels = 3000;
  TaskGraph graph(TaskGraphOptions{.max_workers = 2, .arena_capacity = 3 * kLevels + 64});
  runtime::ExecutorConfig config = BaseConfig(GetParam(), graph, 2);
  config.fault_plan.crash_rate = 0.01;
  config.fault_plan.crash_restart_us = 20;
  config.fault_plan.seed = 5;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<std::atomic<uint32_t>> hits = LadderHits(kLevels);
  executor.Seed(0, {LadderRoot(graph, kLevels, /*spins=*/0, hits)});
  const runtime::ExecutorReport report = executor.Run();
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_GT(report.Totals().crashes, 0u);
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(MissedOrRepeated(hits), 0u);
  EXPECT_EQ(report.total_items, 3 * kLevels + 1) << report.ToString();
  EXPECT_EQ(executed, report.total_items);
}

TEST_P(TaskExecutorTest, DeadlineWithKeptSpawnsCarriesThemIntoTheNextRun) {
  // One worker descends the ladder with no sibling to publish to, so at the
  // deadline its segment holds many leaves. It pushes all of them back: the
  // report counts them as left unexecuted, they sit on the queue, and the
  // next closed run finishes the ladder from them, each counted once.
  constexpr uint64_t kLevels = 20000;
  TaskGraph graph(TaskGraphOptions{.max_workers = 1, .arena_capacity = 3 * kLevels + 64});
  runtime::Executor executor(policies::MakeThreadCount(), BaseConfig(GetParam(), graph, 1));
  std::vector<std::atomic<uint32_t>> hits = LadderHits(kLevels);
  executor.Seed(0, {LadderRoot(graph, kLevels, /*spins=*/2000, hits)});
  const runtime::ExecutorReport first = executor.RunFor(/*duration_ms=*/5);
  ASSERT_FALSE(graph.done()) << "the ladder finished before the deadline: lengthen it";
  const uint64_t executed_first = first.workers[0].items_executed;
  EXPECT_GT(first.items_left_unexecuted, 1u) << first.ToString();
  EXPECT_EQ(first.total_items, executed_first + first.items_left_unexecuted);
  EXPECT_EQ(executor.machine().queue(0).ExactLoad().task_count,
            static_cast<int64_t>(first.items_left_unexecuted));

  const runtime::ExecutorReport second = executor.Run();
  const uint64_t executed_second = second.workers[0].items_executed;
  EXPECT_TRUE(graph.done());
  EXPECT_EQ(MissedOrRepeated(hits), 0u);
  EXPECT_EQ(executed_first + executed_second, 3 * kLevels + 1);
  EXPECT_EQ(first.total_items + second.total_items - first.items_left_unexecuted,
            3 * kLevels + 1);
  EXPECT_EQ(second.total_items, executed_second);
  EXPECT_EQ(second.items_left_unexecuted, 0u);
}

// Runs the graph's items, but until worker 1 has run one, every item worker
// 0 runs first waits up to 1 ms for that, so worker 1 has time to start and
// go idle however loaded the host is.
class WaitForSibling final : public runtime::TaskRunner {
 public:
  explicit WaitForSibling(TaskGraph& graph) : graph_(graph) {}

  void RunItem(const WorkItem& item, runtime::Executor& executor, uint32_t worker) override {
    if (worker != 0) {
      sibling_ran_.store(true, std::memory_order_relaxed);
    } else {
      const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      while (!sibling_ran_.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < until) {
      }
    }
    graph_.RunItem(item, executor, worker);
  }
  int64_t OutstandingFor(uint32_t worker) const override { return graph_.OutstandingFor(worker); }

 private:
  TaskGraph& graph_;
  std::atomic<bool> sibling_ran_{false};
};

TEST_P(TaskExecutorTest, AnIdleSiblingGetsPublishedWork) {
  // The root is worker 0's only queued item, and a queue of one item is
  // never stealable, so every item worker 1 runs was published from worker
  // 0's spawn segment after worker 1 announced itself idle.
  TaskGraph graph(TaskGraphOptions{.max_workers = 2});
  WaitForSibling runner(graph);
  runtime::ExecutorConfig config = BaseConfig(GetParam(), graph, 2);
  config.task_runner = &runner;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  uint64_t result = 0;
  executor.Seed(0, {workload::MakeFibRoot(graph, 20, 8, &result)});
  const runtime::ExecutorReport report = executor.Run();
  EXPECT_EQ(result, workload::FibSequential(20));
  EXPECT_GT(report.workers[1].items_executed, 0u) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, TaskExecutorTest,
                         ::testing::Values(runtime::QueueBackend::kLocked,
                                           runtime::QueueBackend::kChaseLev),
                         [](const auto& info) {
                           return std::string(runtime::QueueBackendName(info.param));
                         });

}  // namespace
}  // namespace optsched
