// simctl: drive the simulator — or the model checker — from the command line.
//
//   $ build/examples/simctl --policy=thread-count --nodes=2 --cpus=8 \
//         --workload=oltp --workers=32 --duration-ms=2000 --seed=7 [--timeline]
//
//   $ build/examples/simctl --mc --policy=broken-cansteal --mc-loads=0,1,2 \
//         --mc-attempts=3 --mc-bound=3 --minimize --mc-out=cex.json
//   $ build/examples/simctl --mc --replay=cex.json --trace-out=cex_trace.json
//
// Workloads: imbalance | forkjoin | oltp | poisson.
// Policies:  any name from the registry (see --help).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/policies/registry.h"
#include "src/sim/simulator.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/metrics.h"
#include "src/workload/workloads.h"

#if OPTSCHED_MC_HOOKS
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/modes.h"
#include "src/mc/schedule.h"
#include "src/mc/trace_export.h"
#endif

namespace {

// "--key=value" parser; returns defaults when absent.
std::string FlagValue(int argc, char** argv, const char* key, const char* fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* key) {
  const std::string flag = std::string("--") + key;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// True when the flag was explicitly passed, in either its bare ("--key") or
// valued ("--key=...") form. FlagValue cannot distinguish "absent" from
// "default", which is what lets harness-inapplicable flags be silently
// swallowed; applicability checks key off this instead.
bool FlagPresent(int argc, char** argv, const char* key) {
  const std::string bare = std::string("--") + key;
  const std::string valued = bare + "=";
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i] ||
        std::strncmp(argv[i], valued.c_str(), valued.size()) == 0) {
      return true;
    }
  }
  return false;
}

void PrintUsage(const char* prog) {
  std::printf("usage: %s [flags]\n", prog);
  std::printf("  --policy=NAME       one of:");
  for (const std::string& name : optsched::policies::KnownPolicyNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  std::printf("  --nodes=N --cpus=M  topology: N NUMA nodes x M cpus (default 2x8)\n");
  std::printf("  --workload=KIND     imbalance | forkjoin | oltp | poisson (default oltp)\n");
  std::printf("  --workers=N         task/worker count (default 32)\n");
  std::printf("  --duration-ms=T     simulated duration budget (default 2000)\n");
  std::printf("  --lb-period-us=T    balancing period (default 4000)\n");
  std::printf("  --wake=last|idle    wakeup placement (default last)\n");
  std::printf("  --seed=S            RNG seed (default 1)\n");
  std::printf("  --timeline          render the per-cpu load timeline\n");
  std::printf("  --trace-out=PATH    write a Chrome trace-event JSON (chrome://tracing)\n");
  std::printf("  --metrics           dump the full metrics registry (name=value lines)\n");
  std::printf("model checker (src/mc):\n");
  std::printf("  --mc                explore schedules of the real steal protocol instead\n");
#if OPTSCHED_MC_HOOKS
  std::printf("  --mc-harness=MODE   one of:");
  for (const optsched::mc::HarnessMode* mode : optsched::mc::Modes()) {
    std::printf(" %s", std::string(mode->name).c_str());
  }
  std::printf(" (default balance)\n");
#endif
  std::printf("  --mc-backend=NAME   run-queue backend: locked | chase_lev (default locked)\n");
  std::printf("  --mc-deque-capacity=N  chase_lev ring capacity (default 64)\n");
  std::printf("  --mc-loads=CSV      items seeded per queue, e.g. 0,1,2 (size = workers)\n");
  std::printf("  --mc-workers=N      shorthand for --mc-loads=0,1,...,N-1\n");
  std::printf("  --mc-attempts=N     steal attempts per worker (default 2; ingress: also pushes)\n");
  std::printf("  --mc-batch=N        max items per steal action (default 1 = steal-one)\n");
  std::printf("  --mc-mailbox=N      ingress harness: mailbox capacity per owner (default 2)\n");
  std::printf("  --mc-tree-depth=N   forkjoin harness: spawn-tree depth below the root (default 2)\n");
  std::printf("  --mc-fanout=N       forkjoin harness: children per internal node (default 2)\n");
#if OPTSCHED_MC_HOOKS
  std::printf("  --mc-fault=NAME     seeded fault (default none), one of:\n");
  for (const optsched::mc::SeededFault& fault : optsched::mc::Faults()) {
    std::printf("    %-26s %s, breaks %s:\n%31s%s\n", std::string(fault.name).c_str(),
                fault.Scope().c_str(), std::string(fault.property).c_str(), "",
                std::string(fault.summary).c_str());
  }
#endif
  std::printf("  flags and faults are rejected (exit 2) when passed to a harness or\n");
  std::printf("  backend they do not apply to, instead of being silently ignored\n");
  std::printf("  --mc-bound=N        preemption bound for exhaustive mode (default 2)\n");
  std::printf("  --mc-budget=N       completed+pruned execution budget for exhaustive mode\n");
  std::printf("                      (default 1048576)\n");
  std::printf("  --mc-mode=KIND      exhaustive | pct (default exhaustive)\n");
  std::printf("  --mc-samples=N      PCT executions to sample (default 256)\n");
  std::printf("  --replay=FILE       replay a recorded schedule JSON instead of exploring\n");
  std::printf("  --minimize          shrink a found counterexample before reporting\n");
  std::printf("  --mc-out=PATH       write the counterexample schedule JSON\n");
  std::printf("  (--trace-out and --seed also apply to --mc runs)\n");
}

#if OPTSCHED_MC_HOOKS

std::vector<int64_t> ParseLoads(const std::string& csv) {
  std::vector<int64_t> loads;
  std::stringstream stream(csv);
  std::string field;
  while (std::getline(stream, field, ',')) {
    if (!field.empty()) {
      loads.push_back(std::atoll(field.c_str()));
    }
  }
  return loads;
}

void PrintReports(const std::vector<optsched::mc::PropertyReport>& reports) {
  for (const auto& report : reports) {
    std::printf("  %-18s %s%s%s\n", report.name.c_str(), report.holds ? "HOLDS" : "VIOLATED",
                report.detail.empty() ? "" : " — ", report.detail.c_str());
  }
}

bool WriteFileOrComplain(const std::string& path, const std::string& content,
                         const char* what) {
  if (!optsched::trace::WriteStringToFile(path, content)) {
    std::fprintf(stderr, "failed to write %s to '%s'\n", what, path.c_str());
    return false;
  }
  std::printf("%s: -> %s\n", what, path.c_str());
  return true;
}

// Replays a committed schedule. Exit 0 = the replay reproduced the recorded
// verdict (the named property violated again, or a clean run stayed clean).
int RunMcReplay(const std::string& path, const std::string& trace_out) {
  using namespace optsched::mc;
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read schedule '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<Schedule> schedule = Schedule::FromJson(buffer.str());
  if (!schedule.has_value()) {
    std::fprintf(stderr, "'%s' is not a valid schedule JSON\n", path.c_str());
    return 2;
  }

  StealHarness harness(*schedule);
  const ExecutionResult result = ReplayChoices(harness.Factory(), schedule->choices);
  const bool diverged = result.choices != schedule->choices;
  std::printf("replay:    %s (%zu choices%s)\n", path.c_str(), schedule->choices.size(),
              diverged ? ", DIVERGED" : "");
  const std::vector<PropertyReport> reports = harness.Evaluate(result);
  PrintReports(reports);
  if (!trace_out.empty() &&
      !WriteFileOrComplain(trace_out, ExecutionToChromeTraceJson(result, harness.num_workers()),
                           "trace")) {
    return 1;
  }

  bool reproduced;
  if (!schedule->property.empty()) {
    reproduced = false;
    for (const PropertyReport& report : reports) {
      if (report.name == schedule->property && !report.holds) {
        reproduced = report.detail == schedule->note;
        if (!reproduced) {
          std::fprintf(stderr, "recorded note \"%s\" replayed as \"%s\"\n",
                       schedule->note.c_str(), report.detail.c_str());
        }
      }
    }
    if (!reproduced) {
      std::fprintf(stderr, "recorded %s violation did NOT reproduce\n",
                   schedule->property.c_str());
    }
  } else {
    reproduced = StealHarness::FirstViolation(reports) == nullptr && !diverged;
  }
  return reproduced ? 0 : 1;
}

// Explores the configured harness. Exit 0 = every property held on every
// explored schedule; 1 = a counterexample was found (and written, if asked).
int RunMcExplore(int argc, char** argv) {
  using namespace optsched::mc;
  // An --mc-* flag nobody reads (a typo, or a fault flag older than
  // --mc-fault) is an error, not a fault-free sweep.
  static const char* const kMcFlags[] = {
      "mc-harness", "mc-backend", "mc-deque-capacity", "mc-loads", "mc-workers", "mc-attempts",
      "mc-batch",   "mc-mailbox", "mc-tree-depth",     "mc-fanout", "mc-fault",   "mc-bound",
      "mc-budget",  "mc-mode",    "mc-samples",        "mc-out"};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mc-", 5) != 0) {
      continue;
    }
    const std::string name(argv[i] + 2, std::strcspn(argv[i] + 2, "="));
    if (std::none_of(std::begin(kMcFlags), std::end(kMcFlags),
                     [&](const char* known) { return name == known; })) {
      std::fprintf(stderr, "unknown flag --%s (try --help)\n", name.c_str());
      return 2;
    }
  }
  Schedule config;
  config.harness = FlagValue(argc, argv, "mc-harness", "balance");
  const HarnessMode* harness_mode = FindMode(config.harness);
  if (harness_mode == nullptr) {
    std::fprintf(stderr, "unknown --mc-harness '%s' (try --help)\n", config.harness.c_str());
    return 2;
  }
  config.policy = FlagValue(argc, argv, "policy", "thread-count");
  config.attempts_per_worker =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "mc-attempts", "2").c_str()));
  config.seed = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "seed", "1").c_str()));
  const int batch = std::atoi(FlagValue(argc, argv, "mc-batch", "1").c_str());
  config.max_steal_batch = batch >= 1 ? static_cast<uint32_t>(batch) : 1;
  const int mailbox = std::atoi(FlagValue(argc, argv, "mc-mailbox", "2").c_str());
  config.mailbox_capacity = mailbox >= 1 ? static_cast<uint32_t>(mailbox) : 1;
  config.backend = FlagValue(argc, argv, "mc-backend", "locked");
  optsched::runtime::QueueBackend backend;
  if (!optsched::runtime::ParseQueueBackend(config.backend, backend)) {
    std::fprintf(stderr, "unknown --mc-backend '%s' (locked | chase_lev)\n",
                 config.backend.c_str());
    return 2;
  }
  const int deque_capacity =
      std::atoi(FlagValue(argc, argv, "mc-deque-capacity", "64").c_str());
  config.deque_capacity = deque_capacity >= 2 ? static_cast<uint32_t>(deque_capacity) : 64;
  const int tree_depth = std::atoi(FlagValue(argc, argv, "mc-tree-depth", "2").c_str());
  config.tree_depth = tree_depth >= 1 ? static_cast<uint32_t>(tree_depth) : 2;
  const int fanout = std::atoi(FlagValue(argc, argv, "mc-fanout", "2").c_str());
  config.fanout = fanout >= 1 ? static_cast<uint32_t>(fanout) : 2;

  // Flags and faults that do not apply to this run are rejected up front,
  // rather than silently parsed into fields the harness never reads — a
  // typo'd combination must not masquerade as a clean sweep of the fault it
  // meant to inject.
  struct FlagScope {
    const char* flag;
    bool HarnessMode::*reads;
  };
  const FlagScope kScopedFlags[] = {{"mc-tree-depth", &HarnessMode::spawn_tree},
                                    {"mc-fanout", &HarnessMode::spawn_tree},
                                    {"mc-mailbox", &HarnessMode::mailboxes}};
  for (const FlagScope& scoped : kScopedFlags) {
    if (FlagPresent(argc, argv, scoped.flag) && !(harness_mode->*scoped.reads)) {
      std::fprintf(stderr, "--%s does not apply to the %s harness\n", scoped.flag,
                   config.harness.c_str());
      return 2;
    }
  }
  config.fault = FlagValue(argc, argv, "mc-fault", "");
  if (!config.fault.empty()) {
    const SeededFault* fault = FindFault(config.fault);
    if (fault == nullptr) {
      std::fprintf(stderr, "unknown --mc-fault '%s' (try --help)\n", config.fault.c_str());
      return 2;
    }
    if (!fault->AppliesTo(*harness_mode, backend)) {
      std::fprintf(stderr,
                   "--mc-fault=%s only applies to %s (this run: --mc-harness=%s, "
                   "--mc-backend=%s)\n",
                   config.fault.c_str(), fault->Scope().c_str(), config.harness.c_str(),
                   config.backend.c_str());
      return 2;
    }
  }

  config.initial_loads = ParseLoads(FlagValue(argc, argv, "mc-loads", ""));
  if (config.initial_loads.empty()) {
    const int workers = std::atoi(FlagValue(argc, argv, "mc-workers", "3").c_str());
    for (int i = 0; i < workers; ++i) {
      // A spawn tree seeds only the root task: the loads must be all zero.
      config.initial_loads.push_back(harness_mode->spawn_tree ? 0 : i);
    }
  }
  StealHarness harness(config);
  std::printf("mc:        %s harness, %s backend, policy %s, loads ", config.harness.c_str(),
              config.backend.c_str(), config.policy.c_str());
  for (size_t i = 0; i < config.initial_loads.size(); ++i) {
    std::printf("%s%lld", i ? "," : "", static_cast<long long>(config.initial_loads[i]));
  }
  std::printf(", %u attempts, batch %u, d0/2 = %lld%s%s\n", config.attempts_per_worker,
              config.max_steal_batch, static_cast<long long>(harness.InitialPotential() / 2),
              config.fault.empty() ? "" : ", FAULT ", config.fault.c_str());

  std::vector<uint32_t> counterexample;
  std::vector<PropertyReport> violated_reports;
  auto sink = [&](const ExecutionResult& result, uint32_t) {
    const std::vector<PropertyReport> reports = harness.Evaluate(result);
    if (StealHarness::FirstViolation(reports) != nullptr) {
      counterexample = result.choices;
      violated_reports = reports;
      return false;
    }
    return true;
  };

  const std::string mode = FlagValue(argc, argv, "mc-mode", "exhaustive");
  uint64_t executions = 0;
  if (mode == "exhaustive") {
    DfsExplorer::Options options;
    options.max_preemptions =
        static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "mc-bound", "2").c_str()));
    const long long budget = std::atoll(FlagValue(argc, argv, "mc-budget", "0").c_str());
    if (budget >= 1) {
      options.max_schedules = static_cast<uint64_t>(budget);
    }
    DfsExplorer explorer(options);
    const ExploreStats stats = explorer.Explore(harness.Factory(), sink);
    executions = stats.schedules_explored;
    std::printf("explored:  %llu schedules (%llu pruned, %llu deadlocks, bound %u)%s\n",
                static_cast<unsigned long long>(stats.schedules_explored),
                static_cast<unsigned long long>(stats.schedules_pruned),
                static_cast<unsigned long long>(stats.deadlocks), stats.bound_reached,
                stats.budget_exhausted ? " [budget exhausted]" : "");
  } else if (mode == "pct") {
    const int samples = std::atoi(FlagValue(argc, argv, "mc-samples", "256").c_str());
    PctStrategy pct(harness.num_workers(), /*depth_estimate=*/256, /*num_change_points=*/3,
                    config.seed);
    for (int i = 0; i < samples && counterexample.empty(); ++i) {
      Scheduler scheduler;
      const ExecutionResult result = scheduler.Run(harness.MakeBodies(), pct);
      ++executions;
      (void)sink(result, 0);
      pct.Reset();
    }
    std::printf("sampled:   %llu PCT executions\n", static_cast<unsigned long long>(executions));
  } else {
    std::fprintf(stderr, "unknown --mc-mode '%s' (exhaustive | pct)\n", mode.c_str());
    return 2;
  }

  if (counterexample.empty() && violated_reports.empty()) {
    std::printf("verdict:   all properties hold on every explored schedule\n");
    return 0;
  }

  const PropertyReport* first = StealHarness::FirstViolation(violated_reports);
  std::printf("verdict:   VIOLATED (%zu choices)\n", counterexample.size());
  PrintReports(violated_reports);

  auto violates_same = [&](const ExecutionResult& result) {
    for (const PropertyReport& report : harness.Evaluate(result)) {
      if (report.name == first->name && !report.holds) {
        return true;
      }
    }
    return false;
  };
  if (HasFlag(argc, argv, "minimize")) {
    const size_t before = counterexample.size();
    counterexample = MinimizeCounterexample(harness.Factory(), counterexample, violates_same);
    std::printf("minimized: %zu -> %zu choices\n", before, counterexample.size());
  }

  // Pin down the final execution for the schedule note and the trace.
  const ExecutionResult final_run = ReplayChoices(harness.Factory(), counterexample);
  const std::vector<PropertyReport> final_reports = harness.Evaluate(final_run);
  Schedule schedule = harness.MakeSchedule(counterexample);
  schedule.property = first->name;
  for (const PropertyReport& report : final_reports) {
    if (report.name == first->name && !report.holds) {
      schedule.note = report.detail;
    }
  }

  const std::string mc_out = FlagValue(argc, argv, "mc-out", "");
  if (!mc_out.empty() && !WriteFileOrComplain(mc_out, schedule.ToJson(), "schedule")) {
    return 2;
  }
  const std::string trace_out = FlagValue(argc, argv, "trace-out", "");
  if (!trace_out.empty() &&
      !WriteFileOrComplain(trace_out,
                           ExecutionToChromeTraceJson(final_run, harness.num_workers()),
                           "trace")) {
    return 2;
  }
  return 1;
}

#endif  // OPTSCHED_MC_HOOKS

}  // namespace

int main(int argc, char** argv) {
  using namespace optsched;
  if (HasFlag(argc, argv, "help")) {
    PrintUsage(argv[0]);
    return 0;
  }

  if (HasFlag(argc, argv, "mc")) {
#if OPTSCHED_MC_HOOKS
    const std::string replay = FlagValue(argc, argv, "replay", "");
    if (!replay.empty()) {
      return RunMcReplay(replay, FlagValue(argc, argv, "trace-out", ""));
    }
    return RunMcExplore(argc, argv);
#else
    std::fprintf(stderr, "model checker not built: reconfigure with -DOPTSCHED_MC_HOOKS=ON\n");
    return 2;
#endif
  }

  const uint32_t nodes = static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "nodes", "2").c_str()));
  const uint32_t cpus = static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "cpus", "8").c_str()));
  const Topology topo = Topology::Numa(std::max(1u, nodes), std::max(1u, cpus));

  const std::string policy_name = FlagValue(argc, argv, "policy", "thread-count");
  const auto policy = policies::MakePolicyByName(policy_name, topo);
  if (policy == nullptr) {
    std::fprintf(stderr, "unknown policy '%s' (try --help)\n", policy_name.c_str());
    return 2;
  }

  const uint64_t duration_ms =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "duration-ms", "2000").c_str()));
  const uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "seed", "1").c_str()));
  const uint32_t workers =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "workers", "32").c_str()));

  sim::SimConfig config;
  config.max_time_us = duration_ms * 1000;
  config.lb_period_us = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "lb-period-us", "4000").c_str()));
  config.wake_placement = FlagValue(argc, argv, "wake", "last") == std::string("idle")
                              ? sim::WakePlacement::kIdlePreferred
                              : sim::WakePlacement::kLastCpu;
  const bool timeline = HasFlag(argc, argv, "timeline");
  if (timeline) {
    config.sample_period_us = std::max<uint64_t>(1, config.max_time_us / 100);
  }
  const std::string trace_out = FlagValue(argc, argv, "trace-out", "");
  if (!trace_out.empty()) {
    config.trace_capacity = 1 << 20;
  }
  sim::Simulator simulator(topo, policy, config, seed);

  const std::string workload = FlagValue(argc, argv, "workload", "oltp");
  std::shared_ptr<void> keepalive;
  if (workload == "imbalance") {
    workload::StaticImbalanceConfig wl;
    wl.num_tasks = workers;
    wl.service_us = 50'000;
    workload::SubmitStaticImbalance(simulator, wl);
  } else if (workload == "forkjoin") {
    workload::ForkJoinConfig wl;
    wl.num_phases = 8;
    wl.tasks_per_phase = workers;
    wl.task_service_us = 10'000;
    wl.seed = seed;
    keepalive = workload::InstallForkJoin(simulator, wl);
  } else if (workload == "oltp") {
    workload::OltpConfig wl;
    wl.num_workers = workers;
    wl.duration_us = config.max_time_us;
    wl.seed = seed;
    workload::SubmitOltp(simulator, wl);
  } else if (workload == "poisson") {
    workload::PoissonConfig wl;
    wl.arrivals_per_sec = 100.0 * workers;
    wl.duration_us = config.max_time_us;
    wl.seed = seed;
    workload::SubmitPoisson(simulator, wl);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (try --help)\n", workload.c_str());
    return 2;
  }

  simulator.Run();

  std::printf("topology:  %s\n", topo.ToString().c_str());
  std::printf("policy:    %s\n", policy->name().c_str());
  std::printf("workload:  %s (%u workers, %llums budget, seed %llu)\n", workload.c_str(),
              workers, static_cast<unsigned long long>(duration_ms),
              static_cast<unsigned long long>(seed));
  std::printf("metrics:   %s\n", simulator.metrics().ToString().c_str());
  std::printf("balancer:  %s\n", simulator.balance_stats().ToString().c_str());
  std::printf("cpu time:  %s\n", simulator.accounting().ToString().c_str());
  const auto& reactivity = simulator.metrics().ready_to_run_latency_us;
  if (reactivity.count() > 0) {
    std::printf("reactivity: %s\n", reactivity.ToString().c_str());
  }
  if (timeline) {
    std::printf("timeline ('.'=idle '#'=running digit=queue depth):\n%s",
                simulator.sampler().RenderTimeline(100).c_str());
  }
  if (HasFlag(argc, argv, "metrics")) {
    trace::MetricsRegistry registry;
    simulator.ExportMetrics(registry);
    std::printf("-- metrics --\n%s", registry.ToString().c_str());
  }
  if (!trace_out.empty()) {
    std::vector<std::string> lanes;
    for (CpuId cpu = 0; cpu < topo.num_cpus(); ++cpu) {
      lanes.push_back("cpu " + std::to_string(cpu));
    }
    const auto& buffer = simulator.trace_buffer();
    const std::string json =
        trace::ToChromeTraceJson(buffer.events(), buffer.dropped(), lanes);
    if (!trace::WriteStringToFile(trace_out, json)) {
      std::fprintf(stderr, "failed to write trace to '%s'\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace:     %zu events (%llu dropped) -> %s\n", buffer.events().size(),
                static_cast<unsigned long long>(buffer.dropped()), trace_out.c_str());
  }
  return 0;
}
