// Experiment E16 — structured parallelism on the executor: the src/task
// continuation-counted fork-join layer driving recursive kernels
// (src/workload/forkjoin.h) through the real spawn/steal machinery.
//
//   E16a (alloc audit): a single-threaded micro-harness drains the entire
//       fib and mergesort task trees through TaskGraph::RunItemOn with a
//       sink that pushes straight into a ConcurrentRunQueue — the full
//       steady-state spawn path (fork, child allocation from the worker's
//       free list, batched owner push, join decrement, continuation hand-off)
//       with global operator-new calls counted inside the measured region.
//       The first drain warms the arena and the queue to their high-water
//       marks OUTSIDE the counted region; the audited rerun must allocate
//       exactly zero on the chase_lev backend (fixed ring). The locked
//       backend row is reported, not gated: its ready ring is allocation-free
//       once the warm-up drain has grown it to its high-water size.
//   E16b (spawn throughput + tree steal bound): fib(30, cutoff 18) and
//       mergesort(1M) on the real executor, W workers, both backends,
//       measuring completed tasks/ms and steal traffic. The fib tree is the
//       rooted-tree reference workload for the Leiserson-Schardl-Suksompong
//       steal bound: on chase_lev (owner LIFO bottom, thief FIFO top) the
//       run must finish within 64 * W * depth successful steals, depth
//       being the longest spawn chain (n - cutoff + 1). The locked backend
//       steals newest-first and is exempt — its row shows WHY the bound
//       needs the deque.
//   E16c (skewed tree, steal-one vs steal-half): the skewed spine workload
//       — each spine node forks `leaves` heavy leaves plus the next spine
//       node, so ready leaves pile up in one owner's deque. Batched
//       steal-half (cap 8) must move at least as much work per unit time as
//       steal-one (cap 1): with the victim rebuilding its pile after every
//       handoff, each successful steal should carry a batch, not a leaf.
//
// Writes a machine-readable summary to BENCH_e16_forkjoin.json (override
// with --out=PATH). CI's perf-smoke job gates tasks/ms and the steal-half /
// steal-one ratio against bench/e16_forkjoin_floor.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/policies/thread_count.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"
#include "src/trace/chrome_trace.h"
#include "src/workload/forkjoin.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_count_allocs{false};

inline void CountAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Global allocation counter for E16a. Only the default-aligned forms are
// replaced (the spawn path allocates nothing over-aligned); the deletes must
// pair with the replaced news, hence the full set.
void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace optsched {
namespace {

using bench::F;

// --- E16a: steady-state allocation audit of the spawn/join path -------------

// Direct-drive sink: spawned batches go straight onto one queue's owner end —
// the same push the executor's SubmitFromWorker bottoms out in, minus the
// wakeup bookkeeping (which the single-threaded drain has no use for).
class QueueSink final : public task::SpawnSink {
 public:
  explicit QueueSink(runtime::ConcurrentRunQueue& queue) : queue_(queue) {}
  void SubmitBatch(uint32_t /*worker*/, const runtime::WorkItem* items,
                   uint32_t count) override {
    queue_.PushBatchOwner(items, count);
  }
  void OnFork(uint32_t /*worker*/, uint64_t /*continuation_id*/,
              uint32_t /*children*/) override {}
  void OnJoinFire(uint32_t /*worker*/, uint64_t /*continuation_id*/) override {}

 private:
  runtime::ConcurrentRunQueue& queue_;
};

struct AllocAudit {
  std::string kernel;
  std::string backend;
  uint64_t tasks = 0;
  uint64_t arena_high_water = 0;  // TaskGraph::nodes_allocated() after the drain
  uint64_t allocs = 0;
  bool gated = false;  // only the chase_lev rows gate the exit code
};

// Drains the graph's current root to completion through one queue; returns
// tasks run. `counted` toggles the operator-new counter around the whole
// drain (body execution included — the kernels themselves must not allocate).
uint64_t DrainRoot(task::TaskGraph& graph, runtime::ConcurrentRunQueue& queue,
                   const runtime::WorkItem& root, bool counted) {
  QueueSink sink(queue);
  queue.PushBatchOwner(&root, 1);
  uint64_t tasks = 0;
  if (counted) {
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  while (std::optional<runtime::WorkItem> item = queue.PopForRun()) {
    graph.RunItemOn(*item, 0, sink);
    queue.FinishCurrent();
    ++tasks;
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  return tasks;
}

AllocAudit RunFibAudit(runtime::QueueBackend backend, uint64_t n, uint64_t cutoff) {
  runtime::ConcurrentMachine machine(1, runtime::MachineOptions{.backend = backend});
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = 1});
  AllocAudit audit;
  audit.kernel = "fib";
  audit.backend = runtime::QueueBackendName(backend);
  audit.gated = backend == runtime::QueueBackend::kChaseLev;
  uint64_t result = 0;
  // Warm drain: the arena reaches its node high-water mark, the queue its
  // layout; every later run recycles both.
  DrainRoot(graph, machine.queue(0),
            workload::MakeFibRoot(graph, n, cutoff, &result), /*counted=*/false);
  graph.Reset();
  g_allocs.store(0);
  audit.tasks = DrainRoot(graph, machine.queue(0),
                          workload::MakeFibRoot(graph, n, cutoff, &result),
                          /*counted=*/true);
  audit.allocs = g_allocs.load();
  audit.arena_high_water = graph.nodes_allocated();
  if (result != workload::FibSequential(n)) {
    std::fprintf(stderr, "E16a fib audit computed the wrong value\n");
    std::abort();
  }
  return audit;
}

AllocAudit RunMergesortAudit(runtime::QueueBackend backend, uint64_t n, uint64_t cutoff) {
  runtime::ConcurrentMachine machine(1, runtime::MachineOptions{.backend = backend});
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = 1});
  AllocAudit audit;
  audit.kernel = "mergesort";
  audit.backend = runtime::QueueBackendName(backend);
  audit.gated = backend == runtime::QueueBackend::kChaseLev;
  std::vector<uint64_t> data(n);
  std::vector<uint64_t> scratch(n);
  std::mt19937_64 rng(1);
  for (uint64_t& v : data) {
    v = rng();
  }
  const std::vector<uint64_t> shuffled = data;  // reshuffle source for run 2
  DrainRoot(graph, machine.queue(0),
            workload::MakeMergesortRoot(graph, data.data(), scratch.data(), n, cutoff),
            /*counted=*/false);
  data = shuffled;  // un-sort outside the counted region
  graph.Reset();
  g_allocs.store(0);
  audit.tasks = DrainRoot(
      graph, machine.queue(0),
      workload::MakeMergesortRoot(graph, data.data(), scratch.data(), n, cutoff),
      /*counted=*/true);
  audit.allocs = g_allocs.load();
  audit.arena_high_water = graph.nodes_allocated();
  if (!std::is_sorted(data.begin(), data.end())) {
    std::fprintf(stderr, "E16a mergesort audit left the data unsorted\n");
    std::abort();
  }
  return audit;
}

// --- E16b: spawn throughput + the rooted-tree steal bound --------------------

struct KernelResult {
  std::string kernel;
  std::string backend;
  uint64_t tasks = 0;
  // Highest TaskGraph::nodes_allocated() over the measured runs: nodes are
  // reused, so this tracks live nodes, not `tasks`.
  uint64_t arena_high_water = 0;
  double tasks_per_ms = 0.0;
  uint64_t steal_successes = 0;
  uint64_t items_stolen = 0;
  uint64_t steal_bound = 0;  // fib only: 64 * W * (n - cutoff + 1)
  bool within_bound = true;
};

runtime::ExecutorConfig TaskConfig(runtime::QueueBackend backend, task::TaskGraph& graph,
                                   uint32_t workers, uint32_t max_batch, uint64_t seed) {
  runtime::ExecutorConfig config;
  config.num_workers = workers;
  config.backend = backend;
  config.chase_lev_capacity = 4096;
  config.max_steal_batch = max_batch;
  config.task_runner = &graph;
  config.seed = seed;
  return config;
}

KernelResult RunFib(runtime::QueueBackend backend, uint32_t workers, uint64_t n,
                    uint64_t cutoff, int repeat) {
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = workers});
  KernelResult result;
  result.kernel = "fib";
  result.backend = runtime::QueueBackendName(backend);
  // Longest spawn chain: the leftmost n -> n-1 -> ... descent to the cutoff.
  result.steal_bound = 64ull * workers * (n - cutoff + 1);
  const uint64_t want = workload::FibSequential(n);
  for (int run = -1; run < repeat; ++run) {
    graph.Reset();
    uint64_t fib = 0;
    runtime::Executor executor(
        policies::MakeThreadCount(),
        TaskConfig(backend, graph, workers, 8, static_cast<uint64_t>(run + 2)));
    executor.Seed(0, {workload::MakeFibRoot(graph, n, cutoff, &fib)});
    const runtime::ExecutorReport report = executor.Run();
    if (fib != want) {
      std::fprintf(stderr, "E16b fib computed %llu, want %llu\n",
                   (unsigned long long)fib, (unsigned long long)want);
      std::abort();
    }
    if (run < 0) {
      continue;  // discarded warmup: thread startup, first-touch, ramp
    }
    result.arena_high_water = std::max<uint64_t>(result.arena_high_water, graph.nodes_allocated());
    if (report.throughput_items_per_ms() > result.tasks_per_ms) {
      result.tasks_per_ms = report.throughput_items_per_ms();
      result.tasks = report.total_items;
      const runtime::StealCounters steals = report.Totals().steals;
      result.steal_successes = steals.successes;
      result.items_stolen = steals.items_stolen;
    }
  }
  // Only chase_lev promises the bound (owner depth-first, thieves take the
  // shallowest node, every steal hands off a subtree); the locked row is the
  // ablation contrast.
  if (backend == runtime::QueueBackend::kChaseLev) {
    result.within_bound = result.steal_successes <= result.steal_bound;
  }
  return result;
}

KernelResult RunMergesort(runtime::QueueBackend backend, uint32_t workers, uint64_t n,
                          uint64_t cutoff, int repeat) {
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = workers});
  KernelResult result;
  result.kernel = "mergesort";
  result.backend = runtime::QueueBackendName(backend);
  std::vector<uint64_t> data(n);
  std::vector<uint64_t> scratch(n);
  std::mt19937_64 rng(7);
  for (uint64_t& v : data) {
    v = rng();
  }
  const std::vector<uint64_t> shuffled = data;
  for (int run = -1; run < repeat; ++run) {
    data = shuffled;
    graph.Reset();
    runtime::Executor executor(
        policies::MakeThreadCount(),
        TaskConfig(backend, graph, workers, 8, static_cast<uint64_t>(run + 2)));
    executor.Seed(0, {workload::MakeMergesortRoot(graph, data.data(), scratch.data(), n,
                                                  cutoff)});
    const runtime::ExecutorReport report = executor.Run();
    if (!std::is_sorted(data.begin(), data.end())) {
      std::fprintf(stderr, "E16b mergesort left the data unsorted\n");
      std::abort();
    }
    if (run < 0) {
      continue;
    }
    result.arena_high_water = std::max<uint64_t>(result.arena_high_water, graph.nodes_allocated());
    if (report.throughput_items_per_ms() > result.tasks_per_ms) {
      result.tasks_per_ms = report.throughput_items_per_ms();
      result.tasks = report.total_items;
      const runtime::StealCounters steals = report.Totals().steals;
      result.steal_successes = steals.successes;
      result.items_stolen = steals.items_stolen;
    }
  }
  return result;
}

// --- E16c: skewed tree, steal-one vs steal-half ------------------------------

struct SkewResult {
  std::string mode;
  uint64_t tasks = 0;
  double tasks_per_ms = 0.0;
  uint64_t steal_successes = 0;
  uint64_t items_stolen = 0;
  double items_per_steal = 0.0;
};

SkewResult RunSkewed(uint32_t workers, uint32_t max_batch, const std::string& mode,
                     uint64_t depth, uint64_t leaves, uint64_t leaf_spins, int repeat) {
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = workers});
  SkewResult result;
  result.mode = mode;
  for (int run = -1; run < repeat; ++run) {
    graph.Reset();
    runtime::Executor executor(policies::MakeThreadCount(),
                               TaskConfig(runtime::QueueBackend::kChaseLev, graph, workers,
                                          max_batch, static_cast<uint64_t>(run + 2)));
    executor.Seed(0, {workload::MakeSkewedRoot(graph, depth, leaves, leaf_spins)});
    const runtime::ExecutorReport report = executor.Run();
    if (run < 0) {
      continue;
    }
    if (report.throughput_items_per_ms() > result.tasks_per_ms) {
      result.tasks_per_ms = report.throughput_items_per_ms();
      result.tasks = report.total_items;
      const runtime::StealCounters steals = report.Totals().steals;
      result.steal_successes = steals.successes;
      result.items_stolen = steals.items_stolen;
    }
  }
  result.items_per_steal = result.steal_successes > 0
                               ? static_cast<double>(result.items_stolen) /
                                     static_cast<double>(result.steal_successes)
                               : 0.0;
  return result;
}

std::string FlagValue(int argc, char** argv, const char* name, const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

int Main(int argc, char** argv) {
  const uint32_t workers =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "workers", "8").c_str()));
  const uint64_t fib_n =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "fib-n", "30").c_str()));
  // Cutoff 18 leaves ~1.8k tasks of ~fib(17) sequential work each: deep
  // enough that the tree unfolds across workers, leafy enough that spawn
  // overhead (what E16 measures) stays a visible fraction.
  const uint64_t fib_cutoff =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "fib-cutoff", "18").c_str()));
  const uint64_t sort_n =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "sort-n", "1048576").c_str()));
  const uint64_t sort_cutoff =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "sort-cutoff", "4096").c_str()));
  const uint64_t skew_depth =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "skew-depth", "192").c_str()));
  const uint64_t skew_leaves =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "skew-leaves", "8").c_str()));
  const uint64_t skew_spins =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "skew-spins", "4000").c_str()));
  const int repeat = std::atoi(FlagValue(argc, argv, "repeat", "3").c_str());
  const std::string out = FlagValue(argc, argv, "out", "BENCH_e16_forkjoin.json");

  bench::Section(F("E16a — steady-state allocation audit (fib(%llu, cutoff %llu), "
                   "mergesort(%llu))",
                   (unsigned long long)fib_n, (unsigned long long)fib_cutoff,
                   (unsigned long long)sort_n));
  std::vector<AllocAudit> audits;
  for (const auto backend :
       {runtime::QueueBackend::kChaseLev, runtime::QueueBackend::kLocked}) {
    audits.push_back(RunFibAudit(backend, fib_n, fib_cutoff));
    audits.push_back(RunMergesortAudit(backend, sort_n, sort_cutoff));
  }
  std::vector<std::vector<std::string>> rows;
  for (const AllocAudit& a : audits) {
    rows.push_back({a.kernel, a.backend, F("%llu", (unsigned long long)a.tasks),
                    F("%llu", (unsigned long long)a.arena_high_water),
                    F("%llu", (unsigned long long)a.allocs), a.gated ? "yes" : "no"});
  }
  bench::PrintTable({"kernel", "backend", "tasks", "arena high-water", "heap allocs", "gated"},
                    rows);
  bool audit_ok = true;
  for (const AllocAudit& a : audits) {
    if (a.gated && a.allocs != 0) {
      audit_ok = false;
      bench::Note(F("FAIL: %s spawn path allocated on chase_lev in steady state",
                    a.kernel.c_str()));
    }
  }
  if (audit_ok) {
    bench::Note("zero heap allocations across both chase_lev kernel drains");
  }

  bench::Section(F("E16b — spawn throughput, %u workers, both backends", workers));
  std::vector<KernelResult> kernels;
  for (const auto backend :
       {runtime::QueueBackend::kChaseLev, runtime::QueueBackend::kLocked}) {
    kernels.push_back(RunFib(backend, workers, fib_n, fib_cutoff, repeat));
    kernels.push_back(RunMergesort(backend, workers, sort_n, sort_cutoff, repeat));
  }
  rows.clear();
  for (const KernelResult& k : kernels) {
    rows.push_back({k.kernel, k.backend, F("%llu", (unsigned long long)k.tasks),
                    F("%llu", (unsigned long long)k.arena_high_water),
                    F("%.1f", k.tasks_per_ms),
                    F("%llu", (unsigned long long)k.steal_successes),
                    F("%llu", (unsigned long long)k.items_stolen),
                    k.steal_bound ? F("%llu", (unsigned long long)k.steal_bound) : "-",
                    k.within_bound ? "yes" : "NO"});
  }
  bench::PrintTable(
      {"kernel", "backend", "tasks", "arena high-water", "tasks/ms", "steals", "items stolen",
       "bound", "within"},
      rows);
  bool tree_bound_ok = true;
  for (const KernelResult& k : kernels) {
    tree_bound_ok &= k.within_bound;
  }
  if (!tree_bound_ok) {
    bench::Note("FAIL: chase_lev fib steal count exceeded the O(W*depth) bound");
  }

  bench::Section(F("E16c — skewed spine tree (depth %llu, %llu leaves/level), "
                   "steal-one vs steal-half, chase_lev",
                   (unsigned long long)skew_depth, (unsigned long long)skew_leaves));
  std::vector<SkewResult> skews;
  skews.push_back(
      RunSkewed(workers, 1, "steal_one", skew_depth, skew_leaves, skew_spins, repeat));
  skews.push_back(
      RunSkewed(workers, 8, "steal_half", skew_depth, skew_leaves, skew_spins, repeat));
  rows.clear();
  for (const SkewResult& s : skews) {
    rows.push_back({s.mode, F("%llu", (unsigned long long)s.tasks),
                    F("%.1f", s.tasks_per_ms),
                    F("%llu", (unsigned long long)s.steal_successes),
                    F("%llu", (unsigned long long)s.items_stolen),
                    F("%.2f", s.items_per_steal)});
  }
  bench::PrintTable({"mode", "tasks", "tasks/ms", "steals", "items stolen", "items/steal"},
                    rows);
  double skew_ratio = 0.0;
  if (skews[0].tasks_per_ms > 0) {
    skew_ratio = skews[1].tasks_per_ms / skews[0].tasks_per_ms;
    bench::Note(F("steal_half / steal_one = %.2fx (items/steal %.2f vs %.2f)", skew_ratio,
                  skews[1].items_per_steal, skews[0].items_per_steal));
  }

  // Machine-readable summary (CI perf-smoke artifact + floor check).
  std::string json = F(
      "{\"experiment\":\"e16_forkjoin\",\"workers\":%u,\"fib_n\":%llu,"
      "\"fib_cutoff\":%llu,\"sort_n\":%llu,\"sort_cutoff\":%llu,\"alloc_audit\":[",
      workers, (unsigned long long)fib_n, (unsigned long long)fib_cutoff,
      (unsigned long long)sort_n, (unsigned long long)sort_cutoff);
  for (size_t i = 0; i < audits.size(); ++i) {
    json += F("%s{\"kernel\":\"%s\",\"backend\":\"%s\",\"tasks\":%llu,"
              "\"arena_high_water\":%llu,\"heap_allocs\":%llu,\"gated\":%s}",
              i ? "," : "", audits[i].kernel.c_str(), audits[i].backend.c_str(),
              (unsigned long long)audits[i].tasks,
              (unsigned long long)audits[i].arena_high_water, (unsigned long long)audits[i].allocs,
              audits[i].gated ? "true" : "false");
  }
  json += "],\"kernels\":[";
  for (size_t i = 0; i < kernels.size(); ++i) {
    json += F("%s{\"kernel\":\"%s\",\"backend\":\"%s\",\"tasks\":%llu,"
              "\"arena_high_water\":%llu,\"tasks_per_ms\":%.2f,\"steal_successes\":%llu,"
              "\"items_stolen\":%llu,\"steal_bound\":%llu,\"within_bound\":%s}",
              i ? "," : "", kernels[i].kernel.c_str(), kernels[i].backend.c_str(),
              (unsigned long long)kernels[i].tasks,
              (unsigned long long)kernels[i].arena_high_water, kernels[i].tasks_per_ms,
              (unsigned long long)kernels[i].steal_successes,
              (unsigned long long)kernels[i].items_stolen,
              (unsigned long long)kernels[i].steal_bound,
              kernels[i].within_bound ? "true" : "false");
  }
  json += F("],\"skewed\":{\"depth\":%llu,\"leaves\":%llu,\"spins\":%llu,"
            "\"steal_half_ratio\":%.3f,\"modes\":[",
            (unsigned long long)skew_depth, (unsigned long long)skew_leaves,
            (unsigned long long)skew_spins, skew_ratio);
  for (size_t i = 0; i < skews.size(); ++i) {
    json += F("%s{\"mode\":\"%s\",\"tasks\":%llu,\"tasks_per_ms\":%.2f,"
              "\"steal_successes\":%llu,\"items_stolen\":%llu,\"items_per_steal\":%.3f}",
              i ? "," : "", skews[i].mode.c_str(), (unsigned long long)skews[i].tasks,
              skews[i].tasks_per_ms, (unsigned long long)skews[i].steal_successes,
              (unsigned long long)skews[i].items_stolen, skews[i].items_per_steal);
  }
  json += "]}}\n";
  if (trace::WriteStringToFile(out, json)) {
    std::printf("\nsummary -> %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "failed to write '%s'\n", out.c_str());
    return 1;
  }
  return (audit_ok && tree_bound_ok) ? 0 : 1;
}

}  // namespace
}  // namespace optsched

int main(int argc, char** argv) { return optsched::Main(argc, argv); }
