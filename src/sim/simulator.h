// Discrete-event multicore scheduler simulator.
//
// This is the "kernel" substitute of the reproduction (DESIGN.md): the paper
// compiles DSL policies into a Linux scheduling class; we execute the same
// policies against a deterministic event-driven model of a multicore machine.
// The model implements exactly the paper's §3.1 scheduler: per-core runqueues
// plus a current task, round-robin timeslices within a core, wake-up
// placement, and periodic load-balancing rounds executed "simultaneously on
// all cores" (one shared snapshot, serialized steals — so steals can fail,
// as in the concurrent model of §4.3).
//
// Tasks follow a service/burst/block life cycle: a task needs
// `total_service_us` of CPU; it runs bursts of `burst_us` (or to completion
// when 0), blocking for an exponentially distributed `mean_block_us` between
// bursts (database-style I/O waits). Everything is driven by a single event
// queue and a single deterministic Rng, so runs are exactly reproducible.

#ifndef OPTSCHED_SRC_SIM_SIMULATOR_H_
#define OPTSCHED_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "src/base/rng.h"
#include "src/core/balancer.h"
#include "src/fault/fault.h"
#include "src/sched/machine_state.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/topology/topology.h"
#include "src/trace/accounting.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace optsched::sim {

using trace::SimTime;

// How a core picks its next task from the runqueue.
enum class PickNext {
  // FIFO head (round-robin with the timeslice re-enqueue).
  kFifo,
  // CFS-style: the ready task with the smallest virtual runtime, where
  // vruntime advances by elapsed * (1024 / weight) — heavier tasks age
  // slower, so they run more often; equal weights degrade to fair RR.
  kMinVruntime,
};

// Where a waking (or newly spawned) task is placed.
enum class WakePlacement {
  // Always back on the CPU it last ran on, regardless of its load. This is
  // the "overload on wakeup" pathology from Lozi et al.: wakees pile onto
  // busy cores while others sit idle, and only load balancing can undo it.
  kLastCpu,
  // An idle CPU of the task's home node if any, else the least-loaded CPU of
  // the node, falling back to the machine-wide least-loaded (sound default).
  kIdlePreferred,
};

struct SimConfig {
  SimTime timeslice_us = 4000;       // round-robin quantum (CFS-ish 4ms)
  // Scale each task's quantum by weight/1024 (CFS-flavoured proportional
  // share): combined with the weighted balancer this yields weight-
  // proportional CPU time machine-wide (bench E11c).
  bool weighted_timeslice = false;
  // Intra-core pick-next discipline (FIFO round-robin vs min-vruntime fair).
  PickNext pick_next = PickNext::kFifo;
  SimTime lb_period_us = 4000;       // load-balancing rounds every 4ms (§3.1)
  RoundOptions lb_round;             // concurrency mode of the rounds
  // Run one balancing attempt the moment a core becomes idle (the kernel's
  // newidle balance) instead of waiting for the next periodic round. Same
  // three-step protocol, same proofs; it only shortens idle episodes.
  bool newidle_balance = false;
  WakePlacement wake_placement = WakePlacement::kIdlePreferred;
  // Cache-refill cost of running on a different CPU than the task last ran
  // on: extra CPU time of `migration_penalty_us_per_distance` x
  // Topology::CpuDistance(last_ran, new) is added to the task's demand at
  // schedule-in. 0 disables. This is what makes locality-aware CHOICE steps
  // (paper 5) measurably matter: the filter decides *whether* work moves,
  // the choice decides *how far* — and distance now has a price.
  SimTime migration_penalty_us_per_distance = 0;
  SimTime max_time_us = 60'000'000;  // hard stop (1 simulated minute)
  SimTime sample_period_us = 0;      // 0 = no load sampling
  size_t trace_capacity = 0;         // 0 = tracing off
  // Fault injection at the protocol seams (src/fault). All-zero rates (the
  // default) attach no injector and change nothing.
  fault::FaultPlan fault_plan;
  // Work-conservation watchdog: observes the load vector after every
  // balancing round, classifies idle-while-overloaded streaks as transient
  // (<= threshold rounds) or persistent, and escalates a persistent
  // violation by forcing a fault-free global sequential round — the
  // ladder-outermost, can't-fail rebalance of §4.2.
  bool watchdog = false;
  // 0 = ConservationWatchdog::DefaultThreshold(num_cpus). Callers that ran
  // the verifier should pass its worst-case N (plus fault headroom) here.
  uint64_t watchdog_threshold_rounds = 0;
};

// Behavioural description of one task.
struct TaskSpec {
  int nice = 0;
  NodeId home_node = 0;
  uint64_t total_service_us = 10'000;  // CPU time needed before exit
  uint64_t burst_us = 0;               // 0: CPU-bound, run to completion
  uint64_t mean_block_us = 0;          // exponential block between bursts
  uint64_t allowed_mask = 0;           // CPU affinity; 0 = unrestricted
};

struct SimMetrics {
  uint64_t tasks_submitted = 0;
  uint64_t tasks_completed = 0;
  uint64_t bursts_completed = 0;   // "transactions" for OLTP-style workloads
  uint64_t migrations = 0;         // successful steals
  uint64_t failed_steals = 0;
  uint64_t lb_rounds = 0;
  uint64_t preemptions = 0;
  uint64_t wakeups = 0;
  uint64_t newidle_attempts = 0;  // balancing triggered by becoming idle
  uint64_t newidle_steals = 0;
  uint64_t watchdog_escalations = 0;  // forced global rounds (persistent violations)
  uint64_t cold_migrations = 0;      // schedule-ins on a CPU the task last didn't run on
  SimTime migration_penalty_us = 0;  // total cache-refill time paid
  SimTime makespan_us = 0;         // time the last task exited
  stats::Summary completion_latency_us;  // submit -> exit
  stats::Summary burst_latency_us;       // wake -> burst completion
  // Reactivity (paper 1: "a bound on the delay to schedule ready threads"):
  // time from a task becoming ready (spawn/wake/preempt/steal-arrival) to it
  // becoming some core's current task. The histogram carries the tail
  // (p99/p999) that the summary's mean hides.
  stats::Summary ready_to_run_latency_us;
  stats::LogHistogram ready_to_run_hist_us;

  // "newidle" counts newidle balancing attempts.
  static constexpr stats::Counter<SimMetrics> kCounters[] = {
      {"tasks_submitted", &SimMetrics::tasks_submitted},
      {"tasks_completed", &SimMetrics::tasks_completed},
      {"bursts_completed", &SimMetrics::bursts_completed},
      {"migrations", &SimMetrics::migrations},
      {"failed_steals", &SimMetrics::failed_steals},
      {"lb_rounds", &SimMetrics::lb_rounds},
      {"preemptions", &SimMetrics::preemptions},
      {"wakeups", &SimMetrics::wakeups},
      {"newidle", &SimMetrics::newidle_attempts},
      {"newidle_steals", &SimMetrics::newidle_steals},
      {"watchdog_escalations", &SimMetrics::watchdog_escalations},
      {"cold_migrations", &SimMetrics::cold_migrations},
      {"migration_penalty_us", &SimMetrics::migration_penalty_us},
      {"makespan_us", &SimMetrics::makespan_us},
  };

  std::string ToString() const { return stats::FormatCounters(*this, "sim"); }
};

class Simulator {
 public:
  Simulator(const Topology& topology, std::shared_ptr<const BalancePolicy> policy,
            const SimConfig& config, uint64_t seed);

  // Submits a task at simulated time `when` (>= current time). Placement of
  // the initial enqueue follows `cpu_hint` if given, else the spec's home
  // node via the wake-placement rule. Returns the task id.
  TaskId Submit(const TaskSpec& spec, SimTime when = 0, std::optional<CpuId> cpu_hint = {});

  // Runs until the event queue drains (all submitted tasks exited) or
  // `config.max_time_us` is reached. Returns the final simulated time.
  SimTime Run();

  // Runs until `until_us` only (for incremental driving).
  SimTime RunUntil(SimTime until_us);

  // Invoked at every task exit — lets workloads submit follow-up phases
  // (fork-join barriers).
  void SetOnTaskExit(std::function<void(TaskId, SimTime)> callback);

  SimTime now() const { return now_; }
  const SimMetrics& metrics() const { return metrics_; }
  const trace::TimeAccountant& accounting() const { return accounting_; }
  const trace::LoadSampler& sampler() const { return sampler_; }
  const trace::TraceBuffer& trace_buffer() const { return trace_; }
  const MachineState& machine() const { return machine_; }
  const Topology& topology() const { return topology_; }
  const BalanceStats& balance_stats() const { return balancer_.stats(); }
  // Faults actually injected (all-zero when no plan was configured).
  fault::FaultStats fault_stats() const {
    return injector_ != nullptr ? injector_->stats() : fault::FaultStats{};
  }
  const trace::WatchdogStats& watchdog_stats() const { return watchdog_.stats(); }
  const trace::ConservationWatchdog& watchdog() const { return watchdog_; }

  // Snapshots every counter of the run — SimMetrics, accounting, balancer,
  // fault and watchdog stats — into the registry under "sim.*" names.
  void ExportMetrics(trace::MetricsRegistry& registry) const;

  // CPU time the task has received so far (fairness analysis). Running tasks
  // are credited up to their last scheduling point.
  uint64_t ConsumedServiceUs(TaskId id) const;
  // (task, consumed) for every task ever submitted, in submission order.
  std::vector<std::pair<TaskId, uint64_t>> AllConsumedService() const;

 private:
  enum class EventKind { kSubmit, kWake, kService, kLbTick, kSample };

  struct Event {
    SimTime time;
    uint64_t seq;  // FIFO tie-break for equal times
    EventKind kind;
    CpuId cpu = 0;
    TaskId task = 0;
    uint64_t generation = 0;  // staleness check for kService

    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  struct TaskState {
    TaskSpec spec;
    uint64_t remaining_service_us = 0;
    uint64_t remaining_burst_us = 0;
    SimTime submit_time = 0;
    SimTime wake_time = 0;
    SimTime last_ready_time = 0;  // when the task last became runnable
    CpuId last_cpu = 0;
    bool explicit_initial_cpu = false;  // Submit received a cpu_hint
    // Weighted virtual runtime in 1024ths of a microsecond (kMinVruntime).
    // On enqueue it is clamped up to the queue's minimum vruntime, as in
    // CFS: sleepers resume at the queue's pace instead of monopolizing the
    // core with banked credit.
    uint64_t vruntime = 0;
    // CPU the task last actually RAN on (UINT32_MAX before its first run);
    // distinct from last_cpu, which tracks placement.
    CpuId last_ran_cpu = UINT32_MAX;
    // Migration penalties accumulated into the demand (keeps
    // ConsumedServiceUs well-defined: consumed = total + extra - remaining).
    uint64_t extra_demand_us = 0;
  };

  struct CoreRunState {
    TaskId current = kInvalidTask;
    uint64_t generation = 0;
    SimTime scheduled_at = 0;
  };

  void Push(SimTime time, EventKind kind, CpuId cpu = 0, TaskId task = 0,
            uint64_t generation = 0);
  void Advance(SimTime now);

  CpuId ChooseWakeCpu(const TaskState& task);
  // Timeslice for the task (weight-scaled when weighted_timeslice is on),
  // clamped to its remaining burst.
  uint64_t QuantumFor(const TaskState& state) const;
  // Promotes a ready task on `cpu` per the configured pick-next discipline.
  bool PickNextTask(CpuId cpu);
  // Applies the cold-cache cost of running on a CPU other than the one the
  // task last ran on, then records the new location.
  void ChargeMigrationPenalty(TaskState& state, CpuId cpu);
  void PlaceTask(TaskId id, CpuId cpu);
  // If `cpu` is free and has queued work, make the head current and arm its
  // service event.
  void MaybeScheduleIn(CpuId cpu);
  // Re-arms bookkeeping after the balancer mutated the machine directly.
  void ReconcileAfterBalance();

  void OnService(const Event& event);
  void OnLbTick();

  const Topology& topology_;
  SimConfig config_;
  MachineState machine_;
  LoadBalancer balancer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  trace::ConservationWatchdog watchdog_;
  Rng rng_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  bool lb_armed_ = false;
  bool sample_armed_ = false;

  std::map<TaskId, TaskState> tasks_;
  std::vector<CoreRunState> cores_;
  TaskId next_task_id_ = 1;
  uint64_t alive_tasks_ = 0;

  SimMetrics metrics_;
  trace::TimeAccountant accounting_;
  trace::LoadSampler sampler_;
  trace::TraceBuffer trace_;
  std::function<void(TaskId, SimTime)> on_task_exit_;
};

}  // namespace optsched::sim

#endif  // OPTSCHED_SRC_SIM_SIMULATOR_H_
