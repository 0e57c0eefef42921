// Closed-system workloads: fib_fine (fork-join on chase_lev) and
// burst_locked (flat items on the default locked backend).
//
// A run repeats rounds of one heavy drain (the stated input size) followed
// by kLightPerHeavy light drains (the same work at about 3/8 of the size).
// Every drain is one executor Run(); its wall time is the job latency a
// caller waiting for that whole computation sees. Light drains stay tens of
// ms long so that the multi-ms stalls of a virtual CPU do not decide their
// tail.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "layers.h"
#include "shims.h"
#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"
#include "src/workload/forkjoin.h"
#include "workloads.h"

namespace perfbench {
namespace {

using optsched::runtime::Executor;
using optsched::runtime::ExecutorConfig;
using optsched::runtime::ExecutorReport;
using optsched::runtime::QueueBackend;
using optsched::runtime::WorkItem;

constexpr uint32_t kLightPerHeavy = 2;
// Tail percentiles are the median over this many consecutive blocks of the
// run, so one multi-ms stall episode of a virtual CPU moves one block only.
constexpr size_t kTailBlocks = 5;
constexpr int kSetupRepeats = 3;
// Traced runs store at most this many body spans per worker.
constexpr size_t kSpanCapacity = size_t{1} << 21;
// Closed self-check: the workers' body + inter-body gap time must cover
// W x wall to within this share (the rest is thread start-up and teardown).
constexpr double kStageSumTolerance = 0.03;

// One closed workload: how to configure the executor, seed a drain and check
// what the drain produced.
class ClosedDrains {
 public:
  virtual ~ClosedDrains() = default;
  virtual ExecutorConfig Config() const = 0;
  virtual optsched::task::TaskGraph* graph() { return nullptr; }
  // Per-item ids a traced run must record (0 = none).
  virtual uint64_t max_item_id() const { return 0; }
  virtual void Prepare(Executor& executor, bool heavy, bool traced) = 0;
  // Checks one drain's output (marking `out` failed on a mismatch) and
  // returns the items it executed.
  virtual uint64_t Check(const ExecutorReport& report, bool heavy, TracingRunner* runner,
                         Outcome& out) = 0;
  // Ideal single-thread compute of one heavy drain, ns.
  virtual double IdealHeavyNs() const = 0;
  virtual void EmitWorkloadProbes(Outcome& out) const = 0;
};

uint64_t Executed(const ExecutorReport& report) {
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  return executed;
}

class FibDrains final : public ClosedDrains {
 public:
  static constexpr uint64_t kHeavyN = 36;
  static constexpr uint64_t kLightN = 34;
  static constexpr uint64_t kCutoff = 12;

  FibDrains(uint32_t workers, uint64_t seed)
      : workers_(workers),
        seed_(seed),
        graph_({.max_workers = workers,
                .arena_capacity = FibArenaNodes(kHeavyN, kCutoff) + FibArenaSlack(workers)}) {
    const uint64_t t0 = NowNs();
    expected_heavy_ = optsched::workload::FibSequential(kHeavyN);
    sequential_heavy_ns_ = static_cast<double>(NowNs() - t0);
    expected_light_ = optsched::workload::FibSequential(kLightN);
  }

  ExecutorConfig Config() const override {
    ExecutorConfig config;
    config.num_workers = workers_;
    config.backend = QueueBackend::kChaseLev;
    config.max_steal_batch = 8;
    config.seed = seed_;
    return config;
  }
  optsched::task::TaskGraph* graph() override { return &graph_; }

  void Prepare(Executor& executor, bool heavy, bool /*traced*/) override {
    graph_.Reset();
    result_ = 0;
    executor.Seed(0, {optsched::workload::MakeFibRoot(graph_, heavy ? kHeavyN : kLightN,
                                                      kCutoff, &result_)});
  }

  uint64_t Check(const ExecutorReport& report, bool heavy, TracingRunner* /*runner*/,
                 Outcome& out) override {
    const uint64_t executed = Executed(report);
    const uint64_t want = heavy ? expected_heavy_ : expected_light_;
    if (!graph_.done() || result_ != want) {
      out.Fail(Format("fib(%llu) = %llu, want %llu",
                      static_cast<unsigned long long>(heavy ? kHeavyN : kLightN),
                      static_cast<unsigned long long>(result_),
                      static_cast<unsigned long long>(want)));
    }
    const uint32_t nodes = FibArenaNodes(heavy ? kHeavyN : kLightN, kCutoff);
    if (executed != report.total_items || executed != nodes) {
      out.Fail(Format("fib drain executed %llu tasks, submitted %llu, graph has %u",
                      static_cast<unsigned long long>(executed),
                      static_cast<unsigned long long>(report.total_items), nodes));
    }
    return executed;
  }

  double IdealHeavyNs() const override { return sequential_heavy_ns_; }

  void EmitWorkloadProbes(Outcome& out) const override {
    // The leaf body below the cutoff, timed alone.
    constexpr int kLeaves = 2000;
    std::vector<double> per_leaf;
    volatile uint64_t sink = 0;
    for (int r = 0; r < 5; ++r) {
      const uint64_t t0 = NowNs();
      for (int i = 0; i < kLeaves; ++i) {
        sink = sink + optsched::workload::FibSequential(kCutoff - 1);
      }
      per_leaf.push_back(static_cast<double>(NowNs() - t0) / kLeaves);
    }
    out.Add("workload.leaf_ns", Median(per_leaf), "ns");
    out.Add("task.arena_nodes", static_cast<double>(FibArenaNodes(kHeavyN, kCutoff)), "count");
    RunTaskProbes(kLightN, kCutoff, out);
  }

 private:
  uint32_t workers_;
  uint64_t seed_;
  optsched::task::TaskGraph graph_;
  uint64_t expected_heavy_ = 0;
  uint64_t expected_light_ = 0;
  double sequential_heavy_ns_ = 0;
  uint64_t result_ = 0;
};

class BurstDrains final : public ClosedDrains {
 public:
  static constexpr uint64_t kHeavyItems = 300000;
  static constexpr uint64_t kLightItems = kHeavyItems * 3 / 8;
  static constexpr uint64_t kUnits = 10;

  BurstDrains(uint32_t workers, uint64_t seed) : workers_(workers), seed_(seed) {
    for (int traced = 0; traced < 2; ++traced) {
      items_[traced].resize(kHeavyItems);
      for (uint64_t i = 0; i < kHeavyItems; ++i) {
        items_[traced][i] = {.id = i + 1,
                             .work_units = kUnits,
                             .weight = 1024,
                             .arrival_ns = 0,
                             .task = traced ? kFlatItem : 0};
      }
    }
  }

  // The default ExecutorConfig: locked backend, steal_one, re-check on.
  ExecutorConfig Config() const override {
    ExecutorConfig config;
    config.num_workers = workers_;
    config.seed = seed_;
    return config;
  }
  uint64_t max_item_id() const override { return kHeavyItems + 1; }

  void Prepare(Executor& executor, bool heavy, bool traced) override {
    const std::vector<WorkItem>& all = items_[traced ? 1 : 0];
    if (heavy) {
      executor.Seed(0, all);
    } else {
      executor.Seed(0, std::vector<WorkItem>(all.begin(), all.begin() + kLightItems));
    }
  }

  uint64_t Check(const ExecutorReport& report, bool heavy, TracingRunner* runner,
                 Outcome& out) override {
    const uint64_t seeded = heavy ? kHeavyItems : kLightItems;
    const uint64_t executed = Executed(report);
    if (executed != seeded || report.total_items != seeded) {
      out.Fail(Format("burst drain executed %llu of %llu seeded items (submitted %llu)",
                      static_cast<unsigned long long>(executed),
                      static_cast<unsigned long long>(seeded),
                      static_cast<unsigned long long>(report.total_items)));
    }
    if (runner != nullptr) {
      for (uint64_t id = 1; id <= seeded; ++id) {
        if (runner->executions(id) != 1) {
          out.Fail(Format("item %llu ran %u times", static_cast<unsigned long long>(id),
                          runner->executions(id)));
          break;
        }
      }
      runner->ClearItems();
    }
    return executed;
  }

  double IdealHeavyNs() const override { return ItemNs() * kHeavyItems; }

  void EmitWorkloadProbes(Outcome& out) const override {
    out.Add("workload.item_ns.short", ItemNs(), "ns");
  }

 private:
  static double ItemNs() { return SpinNs(kUnits, ExecutorConfig{}.spin_per_unit); }

  uint32_t workers_;
  uint64_t seed_;
  std::vector<WorkItem> items_[2];  // [untraced, traced]
};

struct PhaseStats {
  std::vector<double> heavy_ns;
  std::vector<double> light_ns;
  uint64_t heavy_items = 0;
  uint64_t items = 0;
  double wall_ns = 0;  // all drains
  ExecTotals totals;   // all drains
};

// One executor the rounds drive; traced lanes route bodies through `runner`.
struct Lane {
  Executor* executor = nullptr;
  TracingRunner* runner = nullptr;
  PhaseStats stats;
};

// Drains rounds until `seconds` have passed (at least one round per lane).
// With several lanes the rounds alternate between them, so platform drift
// during the run falls on every lane alike.
void RunDrains(ClosedDrains& drains, std::vector<Lane*> lanes, double seconds, Outcome& out) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    for (Lane* lane : lanes) {
      for (uint32_t k = 0; k <= kLightPerHeavy && out.correct; ++k) {
        const bool heavy = k == 0;
        drains.Prepare(*lane->executor, heavy, lane->runner != nullptr);
        if (lane->runner != nullptr) {
          lane->runner->BeginRun(NowNs());
        }
        const ExecutorReport report = lane->executor->Run();
        const uint64_t executed = drains.Check(report, heavy, lane->runner, out);
        const double wall = static_cast<double>(report.wall_time_ns);
        PhaseStats& stats = lane->stats;
        (heavy ? stats.heavy_ns : stats.light_ns).push_back(wall);
        if (heavy) {
          stats.heavy_items += executed;
        }
        stats.items += executed;
        stats.wall_ns += wall;
        stats.totals.Add(report);
      }
    }
  } while (out.correct && NowNs() < deadline);
}

double BlockQuantile(const std::vector<double>& values, double q) {
  const size_t block = values.size() / kTailBlocks;
  if (block == 0) {
    return Quantile(values, q);
  }
  std::vector<double> per_block;
  for (size_t b = 0; b < kTailBlocks; ++b) {
    per_block.push_back(Quantile(
        std::vector<double>(values.begin() + b * block, values.begin() + (b + 1) * block), q));
  }
  return Median(per_block);
}

double ItemsPerS(const PhaseStats& s) {
  return static_cast<double>(s.heavy_items) / (Sum(s.heavy_ns) / 1e9);
}

Outcome RunClosed(const RunArgs& args, uint32_t workers,
                  const std::function<std::unique_ptr<ClosedDrains>()>& make) {
  Outcome out;
  // Set-up: inputs, task arena, executor, and one warm-up heavy drain; the
  // median of kSetupRepeats.
  std::unique_ptr<ClosedDrains> drains;
  std::unique_ptr<Executor> executor;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats && out.correct; ++r) {
    executor.reset();
    drains.reset();
    const uint64_t t0 = NowNs();
    drains = make();
    ExecutorConfig config = drains->Config();
    config.task_runner = drains->graph();
    executor = std::make_unique<Executor>(optsched::policies::MakeThreadCount(), config);
    drains->Prepare(*executor, /*heavy=*/true, /*traced=*/false);
    drains->Check(executor->Run(), /*heavy=*/true, nullptr, out);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const ExecutorConfig config = drains->Config();
  out.config.push_back(Format("workers=%u", workers));
  out.config.push_back(Format("backend=%s", optsched::runtime::QueueBackendName(config.backend)));
  out.config.push_back(Format("max_steal_batch=%u", config.max_steal_batch));
  out.config.push_back("dealing=off");
  out.config.push_back(Format("watchdog=%s", config.watchdog ? "on" : "off"));

  Lane plain;
  plain.executor = executor.get();
  const PhaseStats& untraced = plain.stats;
  if (!args.trace) {
    RunDrains(*drains, {&plain}, args.seconds, out);
    out.attempted = untraced.items;
    const double items_per_s = ItemsPerS(untraced);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("items_per_s", items_per_s, "1/s");
    out.Add("makespan_ms.p50", Quantile(untraced.heavy_ns, 0.5) / 1e6, "ms");
    out.Add("completed_share", out.correct ? 1.0 : 0.0, "ratio");
    out.Add("sojourn_us.p50.light", Quantile(untraced.light_ns, 0.50) / 1e3, "us");
    out.Add("sojourn_us.p99.light", BlockQuantile(untraced.light_ns, 0.99) / 1e3, "us");
    out.Add("sojourn_us.p50.heavy", Quantile(untraced.heavy_ns, 0.50) / 1e3, "us");
    out.Add("sojourn_us.p99.heavy", BlockQuantile(untraced.heavy_ns, 0.99) / 1e3, "us");
    out.Add("max_rate_kps", items_per_s / 1e3, "1000/s");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    out.notes.push_back(Format("%zu heavy and %zu light drains", untraced.heavy_ns.size(),
                               untraced.light_ns.size()));
    return out;
  }

  // Traced run: the same drains through the forwarding policy and runner
  // shim, alternating round by round with untraced drains.
  auto counting = std::make_shared<CountingPolicy>(optsched::policies::MakeThreadCount());
  TracingRunner runner(workers, drains->graph(), config.spin_per_unit, kSpanCapacity,
                       drains->max_item_id());
  ExecutorConfig traced_config = config;
  traced_config.task_runner = &runner;
  Executor traced_executor(counting, traced_config);
  Lane tracing;
  tracing.executor = &traced_executor;
  tracing.runner = &runner;
  const PhaseStats& traced = tracing.stats;
  RunDrains(*drains, {&plain, &tracing}, args.seconds, out);
  out.attempted = untraced.items + traced.items;

  const SpanSummary spans = SummarizeSpans(runner);
  const double capacity_ns = workers * traced.wall_ns;
  const double stage_error =
      std::abs(spans.body_sum_ns + spans.inner_gap_sum_ns - capacity_ns) / capacity_ns;
  out.Add("trace.stage_sum_error", stage_error, "ratio");
  if (stage_error > kStageSumTolerance) {
    out.Fail(Format("stage sums: body + gap cover %.4f of W x wall (tolerance %.2f)",
                    (spans.body_sum_ns + spans.inner_gap_sum_ns) / capacity_ns,
                    kStageSumTolerance));
  }
  out.Add("executor.gap_ns.p50", spans.gap_p50_ns, "ns");
  out.Add("executor.gap_ns.p99", spans.gap_p99_ns, "ns");
  out.Add("executor.busy_share", spans.body_sum_ns / capacity_ns, "ratio");
  out.Add("task.body_ns.p50", spans.body_p50_ns, "ns");
  out.Add("task.body_ns.p99", spans.body_p99_ns, "ns");
  EmitExecutorCounters(untraced.totals, out);
  EmitPolicyCounts(*counting, traced.totals, out);
  out.Add("workload.efficiency",
          drains->IdealHeavyNs() / (workers * Quantile(untraced.heavy_ns, 0.5)), "ratio");
  out.Add("trace.overhead.items_per_s", 1.0 - ItemsPerS(traced) / ItemsPerS(untraced),
          "ratio");
  out.Add("trace.overhead.sojourn_p50_light",
          Quantile(traced.light_ns, 0.5) / Quantile(untraced.light_ns, 0.5) - 1.0, "ratio");
  WarmUpCpus(kProbeWarmUpSeconds);
  drains->EmitWorkloadProbes(out);
  RunLayerProbes(workers, out);
  out.notes.push_back(Format("tracing overhead: items_per_s %.0f untraced vs %.0f traced",
                             ItemsPerS(untraced), ItemsPerS(traced)));
  return out;
}

uint32_t ClosedWorkers() { return std::max(AvailableCpus(), 2u) - 1; }

}  // namespace

Outcome RunFibFine(const RunArgs& args) {
  const uint32_t workers = ClosedWorkers();
  return RunClosed(args, workers, [&] { return std::make_unique<FibDrains>(workers, args.seed); });
}

Outcome RunBurstLocked(const RunArgs& args) {
  const uint32_t workers = ClosedWorkers();
  return RunClosed(args, workers,
                   [&] { return std::make_unique<BurstDrains>(workers, args.seed); });
}

}  // namespace perfbench
