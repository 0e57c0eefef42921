// Experiment E14 — hot-path throughput and allocation audit: batched
// steal-half vs steal-one vs locked selection on an overloaded-producer
// workload (every item seeded on queue 0, all other workers must steal),
// across BOTH queue backends (locked reference vs lock-free Chase-Lev).
//
//   E14a (alloc audit): a single-threaded micro-harness drives the worker
//       loop's locked-backend item cycle through thousands of SUCCESSFUL
//       batched steals and counts global operator-new calls inside the
//       measured region: selection + steal (SnapshotInto + TrySteal with a
//       reusable StealScratch, landing the first item as the thief's running
//       item), the thief executing the batch through the owner path
//       (FinishCurrentAndPop, which pops the thief's queue HEAD while the
//       landing pushed at its tail), and the victim refilled at its tail
//       (PushBatchExternal). The steady-state expectation is exactly zero:
//       snapshots refill in place, the candidate list and batch buffer reuse
//       their capacity, the eligibility callback is a non-allocating
//       FunctionRef, and the ready rings never shrink. (A std::deque fails
//       this cycle: its tail-push/head-pop churn allocates a node every 12
//       items.)
//   E14b (throughput): closed-system executor runs, N items on queue 0,
//       measuring drained items/ms for steal_one (max_steal_batch = 1),
//       steal_half (cap 8) and the locked_selection ablation, plus the same
//       steal modes on the chase_lev backend and a batch-cap sweep
//       {1, 2, 4, 8, 16}. Expectation: steal_half >= steal_one — when
//       successful steals are bounded, each one should move enough work to
//       matter — both beat locked selection, and chase_lev steal_half beats
//       the locked backend (no lock hold on either end of a steal).
//   E14c (tree steal bound): a divide-and-conquer tree (every item below the
//       leaf depth spawns two children into its owner's deque) drained by W
//       workers over the real TrySteal path. Work-stealing theory bounds
//       successful steals by O(W * depth) independent of the 2^(D+1)-1 item
//       count; the section asserts successes <= 64 * W * D per backend.
//
// Writes a machine-readable summary to BENCH_e14_throughput.json (override
// with --out=PATH). CI's perf-smoke job compares steal_half items/ms against
// the checked-in floor in bench/e14_throughput_floor.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/policies/thread_count.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/trace/chrome_trace.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_count_allocs{false};

inline void CountAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Global allocation counter for E14a. Only the default-aligned forms are
// replaced (the hot path allocates nothing over-aligned); the deletes must
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

runtime::WorkItem Item(uint64_t id, uint32_t units = 1) {
  return runtime::WorkItem{.id = id, .work_units = units, .weight = 1024};
}

// --- E14a: steady-state allocation audit of the worker loop's item cycle ----

struct AllocAudit {
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t items_moved = 0;
  uint64_t allocs = 0;
};

AllocAudit RunAllocAudit(uint64_t attempts) {
  runtime::ConcurrentMachine machine(2);
  // 10 vs 4: gap 6, so every attempt is a SUCCESSFUL batch of floor(6/2) = 3
  // items — the most allocation-prone path (filter, choice, locked snapshot,
  // batch removal, batch landing).
  uint64_t next_id = 1;
  for (; next_id <= 14; ++next_id) {
    const runtime::WorkItem item = Item(next_id);
    machine.queue(next_id <= 10 ? 0 : 1).PushBatchExternal(&item, 1);
  }
  const auto policy = policies::MakeThreadCount();
  Rng rng(1);
  runtime::StealCounters counters;
  runtime::StealScratch scratch;
  LoadSnapshot snapshot;
  std::vector<runtime::WorkItem> refill(8);
  const runtime::StealOptions options{.recheck = true, .max_batch = 8};

  // One worker-loop cycle: steal (landing the first item as running), run
  // the batch's worth of items through the owner path, refill the victim.
  // Both queues end where they started: victim 10 queued, thief 4 queued.
  auto cycle = [&](runtime::StealObservation& observation) {
    machine.SnapshotInto(snapshot);
    runtime::WorkItem landed;
    if (!machine.TrySteal(*policy, 1, snapshot, rng, options, counters, nullptr, nullptr,
                          &observation, &scratch, &landed)) {
      return false;
    }
    runtime::ConcurrentRunQueue& thief = machine.queue(1);
    for (uint32_t i = 1; i < observation.items_moved; ++i) {
      thief.FinishCurrentAndPop();
    }
    thief.FinishCurrent();
    for (uint32_t i = 0; i < observation.items_moved; ++i) {
      refill[i] = Item(next_id++);
    }
    machine.queue(0).PushBatchExternal(refill.data(), observation.items_moved);
    return true;
  };

  // Warmup: every scratch vector and ready ring reaches its high-water
  // capacity.
  for (int i = 0; i < 256; ++i) {
    runtime::StealObservation observation;
    cycle(observation);
  }

  AllocAudit audit;
  audit.attempts = attempts;
  g_allocs.store(0);
  for (uint64_t i = 0; i < attempts; ++i) {
    runtime::StealObservation observation;
    g_count_allocs.store(true, std::memory_order_relaxed);
    const bool ok = cycle(observation);
    g_count_allocs.store(false, std::memory_order_relaxed);
    if (ok) {
      ++audit.successes;
      audit.items_moved += observation.items_moved;
    }
  }
  audit.allocs = g_allocs.load();
  return audit;
}

// --- E14b: overloaded-producer throughput ----------------------------------

struct ModeResult {
  std::string mode;
  double items_per_ms = 0.0;
  uint64_t steal_actions = 0;
  uint64_t items_stolen = 0;
  uint64_t failed_recheck = 0;
};

ModeResult RunMode(const std::string& mode, uint32_t workers, uint64_t items, uint32_t units,
                   uint64_t spin_per_unit, uint32_t max_batch, bool locked_selection,
                   int repeat,
                   runtime::QueueBackend backend = runtime::QueueBackend::kLocked) {
  ModeResult result;
  result.mode = mode;
  // run < 0 is a discarded warmup: first-touch page faults, frequency ramp
  // and thread-pool jitter land there instead of in the measured repeats.
  for (int run = -1; run < repeat; ++run) {
    runtime::ExecutorConfig config;
    config.num_workers = workers;
    config.backend = backend;
    // Size the bounded ring to the working set, as a deployment would: the
    // locked backend's std::deque grows to hold the whole seed, so a ring
    // that spills most of it to the inbox would measure the spill path, not
    // the deque. Capped at 2^20 slots (~32 MiB of WorkItem words).
    uint64_t ring = 2;
    while (ring < items + 1 && ring < (1ull << 20)) {
      ring <<= 1;
    }
    config.chase_lev_capacity = static_cast<uint32_t>(ring);
    config.spin_per_unit = spin_per_unit;
    config.max_steal_batch = max_batch;
    config.locked_selection = locked_selection;
    config.seed = static_cast<uint64_t>(run < 0 ? 1 : run + 1);
    runtime::Executor executor(policies::MakeThreadCount(), config);
    std::vector<runtime::WorkItem> seed;
    seed.reserve(items);
    for (uint64_t id = 1; id <= items; ++id) {
      seed.push_back(Item(id, units));
    }
    executor.Seed(0, seed);  // the overloaded producer: one hot queue
    const runtime::ExecutorReport report = executor.Run();
    if (run < 0) {
      continue;
    }
    if (report.throughput_items_per_ms() > result.items_per_ms) {
      result.items_per_ms = report.throughput_items_per_ms();
      const runtime::StealCounters steals = report.Totals().steals;
      result.steal_actions = steals.successes;
      result.items_stolen = steals.items_stolen;
      result.failed_recheck = steals.failed_recheck;
    }
  }
  return result;
}

// --- E14c: divide-and-conquer tree, steal-count bound -----------------------

struct TreeResult {
  std::string backend;
  uint64_t total_items = 0;
  uint64_t steal_successes = 0;
  uint64_t steal_bound = 0;  // 64 * workers * depth
  double items_per_ms = 0.0;
  bool within_bound = false;
};

// Every node below `depth` spawns two children into its owner's queue (the
// owner-side batch push), so the whole 2^(depth+1)-1 node tree unfolds from
// one seeded root and spreads only through the real TrySteal path. The
// classic work-stealing argument bounds successful steals by O(W * depth):
// each steal takes a node whose subtree the thief then mines locally, and a
// node can hand off at most its depth in ancestors. 64 is generous slack for
// the policy gate's refusals and cross-core timing, NOT a tuning constant.
TreeResult RunTreeBound(runtime::QueueBackend backend, uint32_t workers, uint32_t depth,
                        uint64_t spin_per_item) {
  runtime::ConcurrentMachine machine(workers, runtime::MachineOptions{.backend = backend});
  const auto policy = policies::MakeThreadCount();
  const uint64_t total = (1ull << (depth + 1)) - 1;
  {
    runtime::WorkItem root = Item(1, /*units=*/0);  // work_units carries node depth
    machine.queue(0).PushBatchOwner(&root, 1);
  }
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> next_id{2};
  std::vector<runtime::StealCounters> counters(workers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      runtime::ConcurrentRunQueue& own = machine.queue(w);
      Rng rng(w + 1);
      runtime::StealScratch scratch;
      LoadSnapshot snapshot;
      const runtime::StealOptions options{.recheck = true, .max_batch = 1};
      while (executed.load(std::memory_order_acquire) < total) {
        if (std::optional<runtime::WorkItem> item = own.PopForRun()) {
          const uint32_t node_depth = item->work_units;
          if (node_depth < depth) {
            const uint64_t base = next_id.fetch_add(2, std::memory_order_relaxed);
            const runtime::WorkItem children[2] = {Item(base, node_depth + 1),
                                                   Item(base + 1, node_depth + 1)};
            own.PushBatchOwner(children, 2);
          }
          volatile uint64_t sink = 0;
          for (uint64_t spin = 0; spin < spin_per_item; ++spin) {
            sink = sink + spin;
          }
          own.FinishCurrent();
          executed.fetch_add(1, std::memory_order_acq_rel);
          continue;
        }
        machine.SnapshotInto(snapshot);
        runtime::StealObservation observation;
        machine.TrySteal(*policy, w, snapshot, rng, options, counters[w], nullptr, nullptr,
                         &observation, &scratch);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  TreeResult result;
  result.backend = runtime::QueueBackendName(backend);
  result.total_items = total;
  for (const runtime::StealCounters& c : counters) {
    result.steal_successes += c.successes;
  }
  result.steal_bound = 64ull * workers * depth;
  result.items_per_ms = ms > 0 ? static_cast<double>(total) / ms : 0.0;
  result.within_bound = result.steal_successes <= result.steal_bound;
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
  const uint64_t items =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "items", "24000").c_str()));
  // ~1000 calibrated spins per item: heavy enough that the run outlives
  // thread startup and the hot queue stays contended, light enough that
  // scheduling overhead (what E14 measures) is a visible fraction.
  const uint32_t units =
      static_cast<uint32_t>(std::atoll(FlagValue(argc, argv, "units", "20").c_str()));
  const uint64_t spin =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "spin", "50").c_str()));
  const int repeat = std::atoi(FlagValue(argc, argv, "repeat", "3").c_str());
  const std::string out = FlagValue(argc, argv, "out", "BENCH_e14_throughput.json");

  bench::Section("E14a — steady-state allocation audit (steal, owner pop, refill)");
  const AllocAudit audit = RunAllocAudit(20000);
  const double per_attempt =
      static_cast<double>(audit.allocs) / static_cast<double>(audit.attempts);
  bench::PrintTable(
      {"attempts", "successes", "items moved", "heap allocs", "allocs/attempt"},
      {{F("%llu", (unsigned long long)audit.attempts),
        F("%llu", (unsigned long long)audit.successes),
        F("%llu", (unsigned long long)audit.items_moved),
        F("%llu", (unsigned long long)audit.allocs), F("%.6f", per_attempt)}});
  if (audit.allocs != 0) {
    bench::Note("FAIL: the steal hot path allocated in steady state");
  } else {
    bench::Note("zero heap allocations across all measured attempts");
  }

  bench::Section(F(
      "E14b — overloaded producer, %u workers, %llu items x %llu units on queue 0, spin %llu",
      workers, (unsigned long long)items, (unsigned long long)units, (unsigned long long)spin));
  std::vector<ModeResult> modes;
  modes.push_back(RunMode("steal_one", workers, items, units, spin, 1, false, repeat));
  modes.push_back(RunMode("steal_half", workers, items, units, spin, 8, false, repeat));
  modes.push_back(RunMode("locked_selection", workers, items, units, spin, 1, true, repeat));
  modes.push_back(RunMode("chase_lev_steal_one", workers, items, units, spin, 1, false, repeat,
                          runtime::QueueBackend::kChaseLev));
  modes.push_back(RunMode("chase_lev_steal_half", workers, items, units, spin, 8, false, repeat,
                          runtime::QueueBackend::kChaseLev));
  std::vector<std::vector<std::string>> rows;
  for (const ModeResult& m : modes) {
    rows.push_back({m.mode, F("%.1f", m.items_per_ms),
                    F("%llu", (unsigned long long)m.steal_actions),
                    F("%llu", (unsigned long long)m.items_stolen),
                    F("%llu", (unsigned long long)m.failed_recheck)});
  }
  bench::PrintTable({"mode", "items/ms", "steal actions", "items stolen", "failed recheck"},
                    rows);
  bench::Note("work-bound operating point: per-item spin dominates, backends converge");

  bench::Section("E14b — batch-cap sweep (steal-half cap 1..16)");
  std::vector<ModeResult> sweep;
  for (uint32_t cap : {1u, 2u, 4u, 8u, 16u}) {
    sweep.push_back(RunMode(F("cap_%u", cap), workers, items, units, spin, cap, false, repeat));
  }
  rows.clear();
  for (const ModeResult& m : sweep) {
    rows.push_back({m.mode, F("%.1f", m.items_per_ms),
                    F("%llu", (unsigned long long)m.steal_actions),
                    F("%llu", (unsigned long long)m.items_stolen)});
  }
  bench::PrintTable({"cap", "items/ms", "steal actions", "items stolen"}, rows);

  // The backend axis proper: 1-unit items with no spin, so per-item cost IS
  // the synchronization substrate (pop + finish + steal traffic). This is
  // the operating point where replacing the lock and published load with the
  // Chase-Lev deque must pay for itself — the gate in
  // bench/e14_throughput_floor.json reads these numbers.
  const uint64_t sync_items =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "sync-items", "200000").c_str()));
  bench::Section(F("E14d — sync-bound backend axis, %u workers, %llu items x 1 unit, spin 0",
                   workers, (unsigned long long)sync_items));
  std::vector<ModeResult> sync_modes;
  sync_modes.push_back(RunMode("steal_one", workers, sync_items, 1, 0, 1, false, repeat));
  sync_modes.push_back(RunMode("steal_half", workers, sync_items, 1, 0, 8, false, repeat));
  sync_modes.push_back(RunMode("chase_lev_steal_one", workers, sync_items, 1, 0, 1, false,
                               repeat, runtime::QueueBackend::kChaseLev));
  sync_modes.push_back(RunMode("chase_lev_steal_half", workers, sync_items, 1, 0, 8, false,
                               repeat, runtime::QueueBackend::kChaseLev));
  rows.clear();
  for (const ModeResult& m : sync_modes) {
    rows.push_back({m.mode, F("%.1f", m.items_per_ms),
                    F("%llu", (unsigned long long)m.steal_actions),
                    F("%llu", (unsigned long long)m.items_stolen),
                    F("%llu", (unsigned long long)m.failed_recheck)});
  }
  bench::PrintTable({"mode", "items/ms", "steal actions", "items stolen", "failed recheck"},
                    rows);
  double chase_lev_ratio = 0.0;
  {
    double locked_half = 0.0;
    double chase_half = 0.0;
    for (const ModeResult& m : sync_modes) {
      if (m.mode == "steal_half") locked_half = m.items_per_ms;
      if (m.mode == "chase_lev_steal_half") chase_half = m.items_per_ms;
    }
    if (locked_half > 0) {
      chase_lev_ratio = chase_half / locked_half;
      bench::Note(F("chase_lev_steal_half / steal_half = %.2fx", chase_lev_ratio));
    }
  }

  const uint32_t tree_depth =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "tree-depth", "13").c_str()));
  const uint64_t tree_spin =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "tree-spin", "2000").c_str()));
  bench::Section(F("E14c — tree steal bound, depth %u (%llu items), %u workers", tree_depth,
                   (unsigned long long)((1ull << (tree_depth + 1)) - 1), workers));
  std::vector<TreeResult> trees;
  trees.push_back(RunTreeBound(runtime::QueueBackend::kLocked, workers, tree_depth, tree_spin));
  trees.push_back(RunTreeBound(runtime::QueueBackend::kChaseLev, workers, tree_depth, tree_spin));
  rows.clear();
  for (const TreeResult& t : trees) {
    rows.push_back({t.backend, F("%.1f", t.items_per_ms),
                    F("%llu", (unsigned long long)t.steal_successes),
                    F("%llu", (unsigned long long)t.steal_bound),
                    t.within_bound ? "yes" : "NO"});
  }
  bench::PrintTable({"backend", "items/ms", "steal successes", "64*W*D bound", "within"}, rows);
  // Only the Chase-Lev backend promises the Leiserson-Schardl-Suksompong
  // steal bound: its owner runs depth-first (LIFO bottom) while thieves take
  // the shallowest node (FIFO top), so every steal moves a whole subtree.
  // The locked queue runs the frontier breadth-first and thieves take the
  // NEWEST (deepest) entries — steals move leaves and the count is
  // unbounded in depth. Its row is the ablation contrast, not a gate.
  bool tree_bound_ok = true;
  for (const TreeResult& t : trees) {
    if (t.backend == "chase_lev") {
      tree_bound_ok &= t.within_bound;
    }
  }
  if (!tree_bound_ok) {
    bench::Note("FAIL: chase_lev steal count exceeded the O(W*depth) bound");
  }

  // Machine-readable summary (CI perf-smoke artifact + floor check).
  std::string json = F(
      "{\"experiment\":\"e14_throughput\",\"workers\":%u,\"items\":%llu,\"units\":%llu,"
      "\"spin\":%llu,"
      "\"alloc_audit\":{\"attempts\":%llu,\"successes\":%llu,\"items_moved\":%llu,"
      "\"heap_allocs\":%llu,\"allocs_per_attempt\":%.6f},\"modes\":[",
      workers, (unsigned long long)items, (unsigned long long)units, (unsigned long long)spin,
      (unsigned long long)audit.attempts, (unsigned long long)audit.successes,
      (unsigned long long)audit.items_moved, (unsigned long long)audit.allocs, per_attempt);
  for (size_t i = 0; i < modes.size(); ++i) {
    json += F("%s{\"mode\":\"%s\",\"items_per_ms\":%.2f,\"steal_actions\":%llu,"
              "\"items_stolen\":%llu,\"failed_recheck\":%llu}",
              i ? "," : "", modes[i].mode.c_str(), modes[i].items_per_ms,
              (unsigned long long)modes[i].steal_actions,
              (unsigned long long)modes[i].items_stolen,
              (unsigned long long)modes[i].failed_recheck);
  }
  json += F("],\"sync_bound\":{\"items\":%llu,\"chase_lev_ratio\":%.3f,\"modes\":[",
            (unsigned long long)sync_items, chase_lev_ratio);
  for (size_t i = 0; i < sync_modes.size(); ++i) {
    json += F("%s{\"mode\":\"%s\",\"items_per_ms\":%.2f,\"steal_actions\":%llu,"
              "\"items_stolen\":%llu,\"failed_recheck\":%llu}",
              i ? "," : "", sync_modes[i].mode.c_str(), sync_modes[i].items_per_ms,
              (unsigned long long)sync_modes[i].steal_actions,
              (unsigned long long)sync_modes[i].items_stolen,
              (unsigned long long)sync_modes[i].failed_recheck);
  }
  json += "]},\"batch_sweep\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    json += F("%s{\"cap\":\"%s\",\"items_per_ms\":%.2f,\"items_stolen\":%llu}", i ? "," : "",
              sweep[i].mode.c_str(), sweep[i].items_per_ms,
              (unsigned long long)sweep[i].items_stolen);
  }
  json += F("],\"tree\":{\"depth\":%u,\"spin\":%llu,\"runs\":[", tree_depth,
            (unsigned long long)tree_spin);
  for (size_t i = 0; i < trees.size(); ++i) {
    json += F("%s{\"backend\":\"%s\",\"items\":%llu,\"items_per_ms\":%.2f,"
              "\"steal_successes\":%llu,\"steal_bound\":%llu,\"within_bound\":%s}",
              i ? "," : "", trees[i].backend.c_str(), (unsigned long long)trees[i].total_items,
              trees[i].items_per_ms, (unsigned long long)trees[i].steal_successes,
              (unsigned long long)trees[i].steal_bound, trees[i].within_bound ? "true" : "false");
  }
  json += "]}}\n";
  if (trace::WriteStringToFile(out, json)) {
    std::printf("\nsummary -> %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "failed to write '%s'\n", out.c_str());
    return 1;
  }
  return (audit.allocs == 0 && tree_bound_ok) ? 0 : 1;
}

}  // namespace
}  // namespace optsched

int main(int argc, char** argv) { return optsched::Main(argc, argv); }
