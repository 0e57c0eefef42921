// Experiment E12 — fault tolerance: graceful degradation of the optimistic
// protocol under injected faults (docs/robustness.md).
//
// The paper's resilience claim is qualitative: transient failures (stale
// snapshots, lost re-checks, missed rounds) are legitimate and only
// persistent idleness violates work conservation. This experiment makes the
// claim quantitative by sweeping a chaos level x in [0, 0.9] — applied as the
// rate of every model-level seam fault (straggler, steal abort, stale
// snapshot, dropped round) — and measuring:
//
//   E12a (model):  convergence rounds N until work conservation, averaged and
//                  worst-cased over imbalanced start states. Expectation: N
//                  grows smoothly (roughly like 1/(1-x) — each round does a
//                  fraction of its fault-free work), with no cliff and no
//                  divergence while x < 1.
//   E12b (sim):    wasted-core time fraction and watchdog verdicts for a
//                  static-imbalance workload. Expectation: waste rises with
//                  x but persistent violations stay at zero — the watchdog's
//                  escalation path keeps starvation transient by forcing a
//                  fault-free sequential round.
//   E12c (threads): the real-thread executor under crash-and-restart chaos
//                  with the watchdog and the SPSC trace rings on. All items
//                  drain despite crashes, and the merged trace attributes
//                  every steal outcome, backoff park, watchdog verdict and
//                  crash/restart to its worker. `--trace-out=PATH` writes the
//                  chaos run's Chrome trace-event JSON (chrome://tracing).
//
// A machine-readable JSON sweep is printed at the end for plotting.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/core/balancer.h"
#include "src/core/conservation.h"
#include "src/core/policies/thread_count.h"
#include "src/fault/fault.h"
#include "src/runtime/executor.h"
#include "src/sched/machine_state.h"
#include "src/sim/simulator.h"
#include "src/trace/chrome_trace.h"
#include "src/workload/workloads.h"

namespace optsched {
namespace {

using bench::F;

constexpr uint32_t kCores = 8;
constexpr uint64_t kMaxRounds = 4096;

fault::FaultPlan PlanAt(double level, uint64_t seed) {
  fault::FaultPlan plan;
  plan.straggler_rate = level;
  plan.steal_abort_rate = level;
  plan.stale_snapshot_rate = level;
  plan.drop_round_rate = level;
  plan.seed = seed;
  return plan;
}

struct ModelPoint {
  double level = 0.0;
  double mean_rounds = 0.0;
  uint64_t worst_rounds = 0;
  uint64_t diverged = 0;  // start states that missed the round budget
  uint64_t injected = 0;
};

ModelPoint ModelSweepPoint(double level) {
  ModelPoint point;
  point.level = level;
  const std::vector<std::vector<int64_t>> starts = {
      {16, 0, 0, 0, 0, 0, 0, 0}, {8, 8, 0, 0, 0, 0, 0, 0},  {12, 6, 3, 1, 0, 0, 0, 0},
      {5, 5, 5, 5, 0, 0, 0, 0},  {20, 1, 1, 1, 1, 0, 0, 0}, {7, 0, 6, 0, 5, 0, 4, 0},
  };
  uint64_t total_rounds = 0;
  uint64_t runs = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    fault::FaultInjector injector(PlanAt(level, seed), kCores);
    LoadBalancer balancer(policies::MakeThreadCount());
    balancer.set_fault_injector(&injector);
    for (const auto& start : starts) {
      MachineState machine = MachineState::FromLoads(start);
      Rng rng(seed * 1000 + 7);
      ConvergenceOptions options;
      options.max_rounds = kMaxRounds;
      const ConvergenceResult result = RunUntilWorkConserved(balancer, machine, rng, options);
      if (!result.converged) {
        ++point.diverged;
      } else {
        total_rounds += result.rounds;
        point.worst_rounds = std::max(point.worst_rounds, result.rounds);
        ++runs;
      }
    }
    point.injected += stats::CounterSum(injector.stats());
  }
  point.mean_rounds = runs == 0 ? 0.0 : static_cast<double>(total_rounds) / runs;
  return point;
}

struct SimPoint {
  double level = 0.0;
  double wasted_frac = 0.0;
  double makespan_ms = 0.0;
  uint64_t escalations = 0;
  uint64_t transient = 0;
  uint64_t persistent = 0;
};

SimPoint SimSweepPoint(double level) {
  SimPoint point;
  point.level = level;
  const Topology topo = Topology::Smp(kCores);
  sim::SimConfig config;
  config.fault_plan = PlanAt(level, /*seed=*/97);
  config.watchdog = true;
  config.watchdog_threshold_rounds = 64;
  config.max_time_us = 3'000'000'000;
  sim::Simulator simulator(topo, policies::MakeThreadCount(), config, /*seed=*/97);
  workload::SubmitStaticImbalance(
      simulator,
      workload::StaticImbalanceConfig{.num_tasks = 64, .service_us = 20'000, .initial_cpus = 1});
  simulator.Run();
  point.wasted_frac = simulator.accounting().wasted_fraction();
  point.makespan_ms = static_cast<double>(simulator.metrics().makespan_us) / 1000.0;
  point.escalations = simulator.metrics().watchdog_escalations;
  point.transient = simulator.watchdog_stats().transient_violations;
  point.persistent = simulator.watchdog_stats().persistent_violations;
  return point;
}

struct ExecPoint {
  double crash_rate = 0.0;
  double throughput = 0.0;  // items/ms
  uint64_t crashes = 0;
  uint64_t escalations = 0;
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
};

ExecPoint ExecSweepPoint(double crash_rate, runtime::ExecutorReport* report_out) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 150;
  config.seed = 12;
  config.fault_plan.steal_abort_rate = crash_rate > 0 ? 0.2 : 0.0;
  config.fault_plan.crash_rate = crash_rate;
  config.fault_plan.crash_restart_us = 100;
  config.fault_plan.seed = 12;
  config.watchdog = true;
  config.supervisor_poll_us = 50;
  config.trace_ring_capacity = 1 << 14;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 800; ++i) {
    items.push_back(runtime::WorkItem{.id = i, .work_units = 1200, .weight = 1024});
  }
  executor.Seed(0, items);
  runtime::ExecutorReport report = executor.Run();
  ExecPoint point;
  point.crash_rate = crash_rate;
  point.throughput = report.throughput_items_per_ms();
  point.crashes = report.faults.crashes;
  point.escalations = report.watchdog.escalations;
  point.trace_events = report.trace_events.size();
  point.trace_dropped = report.trace_dropped;
  if (report_out != nullptr) {
    *report_out = std::move(report);
  }
  return point;
}

}  // namespace
}  // namespace optsched

int main(int argc, char** argv) {
  using namespace optsched;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    }
  }
  const std::vector<double> levels = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

  bench::Section(F("E12a: model-level convergence rounds vs fault rate (%u cores, "
                   "6 start states x 8 seeds, budget %llu rounds)",
                   kCores, static_cast<unsigned long long>(kMaxRounds)));
  std::vector<ModelPoint> model;
  {
    std::vector<std::vector<std::string>> rows;
    for (double level : levels) {
      const ModelPoint p = ModelSweepPoint(level);
      model.push_back(p);
      rows.push_back({F("%.1f", p.level), F("%.1f", p.mean_rounds),
                      F("%llu", static_cast<unsigned long long>(p.worst_rounds)),
                      F("%llu", static_cast<unsigned long long>(p.diverged)),
                      F("%llu", static_cast<unsigned long long>(p.injected))});
    }
    bench::PrintTable({"fault rate", "mean N", "worst N", "diverged", "faults injected"}, rows);
    bench::Note(
        "Graceful degradation: N grows smoothly (roughly geometrically) with the fault rate, "
        "with no cliff. 'diverged' counts runs that missed the fixed round budget, not true "
        "divergence: at 0.9 every seam loses 90% of its work, so the expected N crosses the "
        "4096-round budget; any rate < 1.0 still converges with probability 1.");
  }

  bench::Section("E12b: simulator wasted-core fraction vs fault rate (static imbalance, "
                 "watchdog on, threshold 64 rounds)");
  std::vector<SimPoint> sim_points;
  {
    std::vector<std::vector<std::string>> rows;
    for (double level : levels) {
      const SimPoint p = SimSweepPoint(level);
      sim_points.push_back(p);
      rows.push_back({F("%.1f", p.level), F("%.2f%%", p.wasted_frac * 100.0),
                      F("%.1f", p.makespan_ms),
                      F("%llu", static_cast<unsigned long long>(p.transient)),
                      F("%llu", static_cast<unsigned long long>(p.persistent)),
                      F("%llu", static_cast<unsigned long long>(p.escalations))});
    }
    bench::PrintTable(
        {"fault rate", "wasted time", "makespan ms", "transient", "persistent", "escalations"},
        rows);
    bench::Note(
        "Wasted-core time rises with the fault rate while violations stay transient at "
        "moderate rates. At extreme rates (>= 0.7) streaks do cross the threshold — and each "
        "crossing triggers an escalation (a forced fault-free sequential round) that breaks "
        "the streak, so starvation never becomes permanent.");
  }

  bench::Section("E12c: real-thread executor under crash chaos (4 workers, watchdog on, "
                 "SPSC trace rings on, 800 items)");
  std::vector<ExecPoint> exec_points;
  {
    const std::vector<double> crash_rates = {0.0, 0.005, 0.01, 0.02};
    std::vector<std::vector<std::string>> rows;
    for (double rate : crash_rates) {
      const bool last = rate == crash_rates.back();
      runtime::ExecutorReport report;
      const ExecPoint p = ExecSweepPoint(rate, last && !trace_out.empty() ? &report : nullptr);
      exec_points.push_back(p);
      rows.push_back({F("%.3f", p.crash_rate), F("%.1f", p.throughput),
                      F("%llu", static_cast<unsigned long long>(p.crashes)),
                      F("%llu", static_cast<unsigned long long>(p.escalations)),
                      F("%llu", static_cast<unsigned long long>(p.trace_events)),
                      F("%llu", static_cast<unsigned long long>(p.trace_dropped))});
      if (last && !trace_out.empty()) {
        std::vector<std::string> lanes;
        for (uint32_t w = 0; w < 4; ++w) {
          lanes.push_back("worker " + std::to_string(w));
        }
        lanes.push_back("supervisor");
        const std::string json =
            trace::ToChromeTraceJson(report.trace_events, report.trace_dropped, lanes);
        if (trace::WriteStringToFile(trace_out, json)) {
          std::printf("chaos trace (%zu events, %llu dropped) -> %s\n",
                      report.trace_events.size(),
                      static_cast<unsigned long long>(report.trace_dropped),
                      trace_out.c_str());
        } else {
          std::fprintf(stderr, "failed to write trace to '%s'\n", trace_out.c_str());
          return 1;
        }
      }
    }
    bench::PrintTable({"crash rate", "items/ms", "crashes", "escalations", "trace events",
                       "trace dropped"},
                      rows);
    bench::Note(
        "No item is lost to a crash (the report asserts the drain internally) and throughput "
        "degrades smoothly with the crash rate. The trace rings record every steal outcome, "
        "backoff park, watchdog verdict and crash/restart without adding a lock to the "
        "selection fast path; full rings drop events and say so instead of blocking.");
  }

  // Machine-readable sweep for plotting.
  bench::Section("E12 JSON");
  std::printf("{\"experiment\":\"e12_fault_tolerance\",\"cores\":%u,\"model\":[", kCores);
  for (size_t i = 0; i < model.size(); ++i) {
    const ModelPoint& p = model[i];
    std::printf("%s{\"rate\":%.2f,\"mean_rounds\":%.2f,\"worst_rounds\":%llu,"
                "\"diverged\":%llu,\"injected\":%llu}",
                i == 0 ? "" : ",", p.level, p.mean_rounds,
                static_cast<unsigned long long>(p.worst_rounds),
                static_cast<unsigned long long>(p.diverged),
                static_cast<unsigned long long>(p.injected));
  }
  std::printf("],\"sim\":[");
  for (size_t i = 0; i < sim_points.size(); ++i) {
    const SimPoint& p = sim_points[i];
    std::printf("%s{\"rate\":%.2f,\"wasted_frac\":%.4f,\"makespan_ms\":%.1f,"
                "\"transient\":%llu,\"persistent\":%llu,\"escalations\":%llu}",
                i == 0 ? "" : ",", p.level, p.wasted_frac, p.makespan_ms,
                static_cast<unsigned long long>(p.transient),
                static_cast<unsigned long long>(p.persistent),
                static_cast<unsigned long long>(p.escalations));
  }
  std::printf("],\"executor\":[");
  for (size_t i = 0; i < exec_points.size(); ++i) {
    const ExecPoint& p = exec_points[i];
    std::printf("%s{\"crash_rate\":%.3f,\"items_per_ms\":%.1f,\"crashes\":%llu,"
                "\"escalations\":%llu,\"trace_events\":%llu,\"trace_dropped\":%llu}",
                i == 0 ? "" : ",", p.crash_rate, p.throughput,
                static_cast<unsigned long long>(p.crashes),
                static_cast<unsigned long long>(p.escalations),
                static_cast<unsigned long long>(p.trace_events),
                static_cast<unsigned long long>(p.trace_dropped));
  }
  std::printf("]}\n");
  return 0;
}
