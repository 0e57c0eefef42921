#include "src/sim/simulator.h"

#include <algorithm>

#include "src/base/check.h"

namespace optsched::sim {

Simulator::Simulator(const Topology& topology, std::shared_ptr<const BalancePolicy> policy,
                     const SimConfig& config, uint64_t seed)
    : topology_(topology),
      config_(config),
      machine_(topology.num_cpus()),
      balancer_(std::move(policy), &topology_),
      watchdog_(topology.num_cpus(),
                trace::WatchdogConfig{.threshold_rounds = config.watchdog_threshold_rounds}),
      rng_(seed),
      cores_(topology.num_cpus()),
      accounting_(topology.num_cpus()),
      trace_(config.trace_capacity) {
  OPTSCHED_CHECK(config_.timeslice_us > 0);
  OPTSCHED_CHECK(config_.lb_period_us > 0);
  if (config_.fault_plan.any()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.fault_plan, topology.num_cpus());
    balancer_.set_fault_injector(injector_.get());
  }
}

void Simulator::Push(SimTime time, EventKind kind, CpuId cpu, TaskId task, uint64_t generation) {
  events_.push(Event{.time = time,
                     .seq = next_seq_++,
                     .kind = kind,
                     .cpu = cpu,
                     .task = task,
                     .generation = generation});
}

void Simulator::Advance(SimTime now) {
  OPTSCHED_CHECK(now >= now_);
  accounting_.AdvanceTo(now, machine_);
  now_ = now;
}

TaskId Simulator::Submit(const TaskSpec& spec, SimTime when, std::optional<CpuId> cpu_hint) {
  OPTSCHED_CHECK(when >= now_);
  OPTSCHED_CHECK(spec.total_service_us > 0);
  if (cpu_hint.has_value() && spec.allowed_mask != 0) {
    OPTSCHED_CHECK_MSG(*cpu_hint < 64 && (spec.allowed_mask & (uint64_t{1} << *cpu_hint)) != 0,
                       "cpu_hint outside the task's affinity mask");
  }
  const TaskId id = next_task_id_++;
  TaskState state;
  state.spec = spec;
  state.remaining_service_us = spec.total_service_us;
  state.remaining_burst_us = spec.burst_us > 0
                                 ? std::min<uint64_t>(spec.burst_us, spec.total_service_us)
                                 : spec.total_service_us;
  state.submit_time = when;
  state.wake_time = when;
  state.last_cpu = cpu_hint.value_or(topology_.CpusInNode(spec.home_node).front());
  state.explicit_initial_cpu = cpu_hint.has_value();
  tasks_[id] = state;
  ++metrics_.tasks_submitted;
  ++alive_tasks_;
  Push(when, EventKind::kSubmit, state.last_cpu, id);
  // Arm the periodic machinery on first use.
  if (!lb_armed_) {
    lb_armed_ = true;
    Push(when + config_.lb_period_us, EventKind::kLbTick);
  }
  if (config_.sample_period_us > 0 && !sample_armed_) {
    sample_armed_ = true;
    Push(when, EventKind::kSample);
  }
  return id;
}

void Simulator::SetOnTaskExit(std::function<void(TaskId, SimTime)> callback) {
  on_task_exit_ = std::move(callback);
}

CpuId Simulator::ChooseWakeCpu(const TaskState& task) {
  const auto allowed = [&](CpuId cpu) {
    return task.spec.allowed_mask == 0 ||
           (cpu < 64 && (task.spec.allowed_mask & (uint64_t{1} << cpu)) != 0);
  };
  if (config_.wake_placement == WakePlacement::kLastCpu && allowed(task.last_cpu)) {
    return task.last_cpu;
  }
  // kIdlePreferred (and the fallback for a re-pinned task): idle CPU in the
  // home node, else any idle CPU (nearest to the last CPU), else the
  // least-loaded allowed CPU of the home node, else the least-loaded allowed
  // CPU anywhere.
  const std::vector<CpuId>& home = topology_.CpusInNode(task.spec.home_node);
  for (CpuId cpu : home) {
    if (allowed(cpu) && machine_.IsIdle(cpu)) {
      return cpu;
    }
  }
  std::optional<CpuId> best_idle;
  uint32_t best_distance = 0;
  for (CpuId cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    if (!allowed(cpu) || !machine_.IsIdle(cpu)) {
      continue;
    }
    const uint32_t distance = topology_.CpuDistance(task.last_cpu, cpu);
    if (!best_idle.has_value() || distance < best_distance) {
      best_idle = cpu;
      best_distance = distance;
    }
  }
  if (best_idle.has_value()) {
    return *best_idle;
  }
  std::optional<CpuId> least;
  for (CpuId cpu : home) {
    if (allowed(cpu) &&
        (!least.has_value() || machine_.Load(cpu, LoadMetric::kTaskCount) <
                                   machine_.Load(*least, LoadMetric::kTaskCount))) {
      least = cpu;
    }
  }
  if (!least.has_value()) {
    for (CpuId cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
      if (allowed(cpu) &&
          (!least.has_value() || machine_.Load(cpu, LoadMetric::kTaskCount) <
                                     machine_.Load(*least, LoadMetric::kTaskCount))) {
        least = cpu;
      }
    }
  }
  OPTSCHED_CHECK_MSG(least.has_value(), "affinity mask admits no CPU of this machine");
  return *least;
}

uint64_t Simulator::QuantumFor(const TaskState& state) const {
  uint64_t quantum = config_.timeslice_us;
  if (config_.weighted_timeslice) {
    quantum = std::max<uint64_t>(
        100, quantum * NiceToWeight(state.spec.nice) / kNiceZeroWeight);
  }
  return std::min<uint64_t>(quantum, state.remaining_burst_us);
}

uint64_t Simulator::ConsumedServiceUs(TaskId id) const {
  const TaskState& state = tasks_.at(id);
  uint64_t consumed =
      state.spec.total_service_us + state.extra_demand_us - state.remaining_service_us;
  // Credit the in-flight segment of a currently running task.
  for (CpuId cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    if (cores_[cpu].current == id) {
      consumed += now_ - cores_[cpu].scheduled_at;
      break;
    }
  }
  return consumed;
}

std::vector<std::pair<TaskId, uint64_t>> Simulator::AllConsumedService() const {
  std::vector<std::pair<TaskId, uint64_t>> out;
  out.reserve(tasks_.size());
  for (const auto& [id, state] : tasks_) {
    out.emplace_back(id, ConsumedServiceUs(id));
  }
  return out;
}

void Simulator::PlaceTask(TaskId id, CpuId cpu) {
  TaskState& state = tasks_.at(id);
  state.last_ready_time = now_;
  state.last_cpu = cpu;
  if (config_.pick_next == PickNext::kMinVruntime) {
    // Clamp up to the queue's minimum vruntime (CFS sleeper placement).
    std::optional<uint64_t> queue_min;
    const CoreState& core = machine_.core(cpu);
    const auto consider = [&](TaskId peer) {
      const uint64_t v = tasks_.at(peer).vruntime;
      if (!queue_min.has_value() || v < *queue_min) {
        queue_min = v;
      }
    };
    if (core.current().has_value()) {
      consider(core.current()->id);
    }
    for (const Task& t : core.ready()) {
      consider(t.id);
    }
    if (queue_min.has_value() && state.vruntime < *queue_min) {
      state.vruntime = *queue_min;
    }
  }
  Task task = MakeTask(id, state.spec.nice, state.spec.home_node);
  task.allowed_mask = state.spec.allowed_mask;
  machine_.Place(std::move(task), cpu);
  MaybeScheduleIn(cpu);
}

void Simulator::ChargeMigrationPenalty(TaskState& state, CpuId cpu) {
  if (state.last_ran_cpu != UINT32_MAX && state.last_ran_cpu != cpu) {
    ++metrics_.cold_migrations;
    if (config_.migration_penalty_us_per_distance > 0) {
      const uint64_t penalty = config_.migration_penalty_us_per_distance *
                               topology_.CpuDistance(state.last_ran_cpu, cpu);
      // A cold cache costs extra CPU time: the task's demand grows.
      state.remaining_service_us += penalty;
      state.remaining_burst_us += penalty;
      state.extra_demand_us += penalty;
      metrics_.migration_penalty_us += penalty;
    }
  }
  state.last_ran_cpu = cpu;
}

bool Simulator::PickNextTask(CpuId cpu) {
  CoreState& core = machine_.core_mutable(cpu);
  if (config_.pick_next == PickNext::kFifo || core.ready().empty()) {
    return core.ScheduleNext();
  }
  // Min-vruntime pick (ties broken by id for determinism).
  TaskId best = core.ready().front().id;
  uint64_t best_vruntime = tasks_.at(best).vruntime;
  for (const Task& t : core.ready()) {
    const uint64_t v = tasks_.at(t.id).vruntime;
    if (v < best_vruntime || (v == best_vruntime && t.id < best)) {
      best = t.id;
      best_vruntime = v;
    }
  }
  return core.SchedulePick(best);
}

void Simulator::MaybeScheduleIn(CpuId cpu) {
  CoreRunState& core = cores_[cpu];
  if (core.current != kInvalidTask) {
    return;
  }
  if (!machine_.core(cpu).current().has_value() && !PickNextTask(cpu)) {
    // The core just became (or stayed) idle with nothing queued: newidle
    // balancing pulls work right now instead of idling until the next tick.
    if (!config_.newidle_balance) {
      return;
    }
    // A straggler fault also suppresses newidle balancing (the core is stuck
    // elsewhere; the next periodic round will retry).
    if (injector_ != nullptr && injector_->StallCore(cpu)) {
      return;
    }
    ++metrics_.newidle_attempts;
    const CoreAction action = balancer_.RunOneAttempt(machine_, cpu, machine_.Snapshot(), rng_);
    if (action.outcome != StealOutcome::kStole) {
      return;
    }
    // The steal phase promoted the stolen task to current on this core.
    ++metrics_.newidle_steals;
    ++metrics_.migrations;
    const TaskId stolen = machine_.core(cpu).current()->id;
    tasks_.at(stolen).last_cpu = cpu;
    trace_.Record({.time = now_, .type = trace::EventType::kSteal, .cpu = cpu,
                   .task = stolen, .other_cpu = *action.victim});
  }
  const TaskId id = machine_.core(cpu).current()->id;
  core.current = id;
  ++core.generation;
  core.scheduled_at = now_;
  TaskState& state = tasks_.at(id);
  metrics_.ready_to_run_latency_us.Add(static_cast<double>(now_ - state.last_ready_time));
  metrics_.ready_to_run_hist_us.Add(now_ - state.last_ready_time);
  ChargeMigrationPenalty(state, cpu);
  const uint64_t slice = QuantumFor(state);
  Push(now_ + slice, EventKind::kService, cpu, id, core.generation);
  trace_.Record({.time = now_, .type = trace::EventType::kScheduleIn, .cpu = cpu, .task = id});
}

void Simulator::ReconcileAfterBalance() {
  for (CpuId cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    CoreRunState& core = cores_[cpu];
    const auto& current = machine_.core(cpu).current();
    const TaskId machine_current = current.has_value() ? current->id : kInvalidTask;
    if (machine_current == core.current) {
      // Stolen *ready* tasks do not disturb the running task; nothing to do.
      continue;
    }
    // The only transition the balancer can cause is idle -> running (the
    // thief's ScheduleNext after a successful steal).
    OPTSCHED_CHECK_MSG(core.current == kInvalidTask && machine_current != kInvalidTask,
                       "balancer changed a running task");
    core.current = machine_current;
    ++core.generation;
    core.scheduled_at = now_;
    TaskState& state = tasks_.at(machine_current);
    metrics_.ready_to_run_latency_us.Add(static_cast<double>(now_ - state.last_ready_time));
    metrics_.ready_to_run_hist_us.Add(now_ - state.last_ready_time);
    ChargeMigrationPenalty(state, cpu);
    const uint64_t slice = QuantumFor(state);
    Push(now_ + slice, EventKind::kService, cpu, machine_current, core.generation);
    trace_.Record({.time = now_,
                   .type = trace::EventType::kScheduleIn,
                   .cpu = cpu,
                   .task = machine_current});
    // A stolen task continues on the thief: update its placement record.
    tasks_.at(machine_current).last_cpu = cpu;
  }
  // Ready tasks that migrated also need their last_cpu refreshed; walk the
  // runqueues (cheap: runqueues are short).
  for (CpuId cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    for (const Task& t : machine_.core(cpu).ready()) {
      tasks_.at(t.id).last_cpu = cpu;
    }
  }
}

void Simulator::OnService(const Event& event) {
  CoreRunState& core = cores_[event.cpu];
  if (event.generation != core.generation || core.current != event.task) {
    return;  // stale event (task exited/blocked/migrated meanwhile)
  }
  TaskState& state = tasks_.at(event.task);
  const uint64_t elapsed = now_ - core.scheduled_at;
  OPTSCHED_CHECK(elapsed <= state.remaining_burst_us);
  OPTSCHED_CHECK(elapsed <= state.remaining_service_us);
  state.remaining_burst_us -= elapsed;
  state.remaining_service_us -= elapsed;
  // Weighted virtual time: heavier tasks age slower.
  state.vruntime += elapsed * kNiceZeroWeight / NiceToWeight(state.spec.nice);

  if (state.remaining_service_us == 0) {
    // Task exits.
    machine_.core_mutable(event.cpu).ClearCurrent();
    core.current = kInvalidTask;
    ++core.generation;
    ++metrics_.tasks_completed;
    ++metrics_.bursts_completed;
    --alive_tasks_;
    metrics_.makespan_us = now_;
    metrics_.completion_latency_us.Add(static_cast<double>(now_ - state.submit_time));
    trace_.Record({.time = now_, .type = trace::EventType::kExit, .cpu = event.cpu,
                   .task = event.task});
    if (on_task_exit_) {
      on_task_exit_(event.task, now_);
    }
    MaybeScheduleIn(event.cpu);
    return;
  }

  if (state.remaining_burst_us == 0) {
    // Burst ("transaction") complete: block, then wake later.
    machine_.core_mutable(event.cpu).ClearCurrent();
    core.current = kInvalidTask;
    ++core.generation;
    ++metrics_.bursts_completed;
    metrics_.burst_latency_us.Add(static_cast<double>(now_ - state.wake_time));
    const uint64_t block_us =
        state.spec.mean_block_us > 0
            ? static_cast<uint64_t>(
                  rng_.NextExponential(1.0 / static_cast<double>(state.spec.mean_block_us)))
            : 0;
    trace_.Record({.time = now_, .type = trace::EventType::kBlock, .cpu = event.cpu,
                   .task = event.task, .detail = static_cast<int64_t>(block_us)});
    Push(now_ + block_us, EventKind::kWake, event.cpu, event.task);
    MaybeScheduleIn(event.cpu);
    return;
  }

  // Timeslice expiry: round-robin within the core.
  ++metrics_.preemptions;
  state.last_ready_time = now_;  // re-queued: waiting again
  std::optional<Task> preempted = machine_.core_mutable(event.cpu).ClearCurrent();
  OPTSCHED_CHECK(preempted.has_value());
  machine_.core_mutable(event.cpu).Enqueue(std::move(*preempted));
  core.current = kInvalidTask;
  ++core.generation;
  trace_.Record({.time = now_, .type = trace::EventType::kScheduleOut, .cpu = event.cpu,
                 .task = event.task});
  MaybeScheduleIn(event.cpu);
}

void Simulator::OnLbTick() {
  ++metrics_.lb_rounds;
  const RoundResult round = balancer_.RunRound(machine_, rng_, config_.lb_round);
  metrics_.migrations += round.successes;
  metrics_.failed_steals += round.failures;
  if (trace_.enabled()) {
    trace_.Record({.time = now_, .type = trace::EventType::kRound, .cpu = 0, .task = 0,
                   .detail = static_cast<int64_t>(round.failures)});
    for (const CoreAction& action : round.actions) {
      if (action.outcome == StealOutcome::kStole) {
        trace_.Record({.time = now_, .type = trace::EventType::kSteal, .cpu = action.thief,
                       .task = action.task.value_or(0), .other_cpu = *action.victim});
      } else if (action.outcome == StealOutcome::kFailedRecheck ||
                 action.outcome == StealOutcome::kFailedNoTask) {
        trace_.Record({.time = now_, .type = trace::EventType::kStealFailed,
                       .cpu = action.thief, .other_cpu = *action.victim});
      }
    }
  }
  ReconcileAfterBalance();
  if (config_.watchdog &&
      watchdog_.ObserveRound(now_, machine_.Loads(LoadMetric::kTaskCount), {}, &trace_)) {
    // Persistent violation: the convergence bound was missed. Escalate with a
    // fault-free global *sequential* round (§4.2's simple context, where
    // steals cannot fail) — the ladder-outermost, stop-the-world rebalance.
    ++metrics_.watchdog_escalations;
    watchdog_.RecordEscalation(now_, &trace_);
    fault::FaultInjector* saved = balancer_.fault_injector();
    balancer_.set_fault_injector(nullptr);
    RoundOptions forced_options;
    forced_options.mode = RoundOptions::Mode::kSequential;
    const RoundResult forced = balancer_.RunRound(machine_, rng_, forced_options);
    balancer_.set_fault_injector(saved);
    metrics_.migrations += forced.successes;
    metrics_.failed_steals += forced.failures;
    ReconcileAfterBalance();
    // Re-observe so the recovery (if the forced round cleared the violation)
    // is classified at escalation time, not one period later.
    watchdog_.ObserveRound(now_, machine_.Loads(LoadMetric::kTaskCount), {}, &trace_);
  }
  if (alive_tasks_ > 0) {
    Push(now_ + config_.lb_period_us, EventKind::kLbTick);
  } else {
    lb_armed_ = false;
  }
}

SimTime Simulator::RunUntil(SimTime until_us) {
  while (!events_.empty()) {
    const Event event = events_.top();
    if (event.time > until_us || event.time > config_.max_time_us) {
      break;
    }
    events_.pop();
    Advance(event.time);
    switch (event.kind) {
      case EventKind::kSubmit: {
        TaskState& state = tasks_.at(event.task);
        CpuId cpu = event.cpu;
        if (!state.explicit_initial_cpu) {
          cpu = ChooseWakeCpu(state);
        }
        trace_.Record({.time = now_, .type = trace::EventType::kSpawn, .cpu = cpu,
                       .task = event.task});
        PlaceTask(event.task, cpu);
        break;
      }
      case EventKind::kWake: {
        TaskState& state = tasks_.at(event.task);
        state.wake_time = now_;
        state.remaining_burst_us =
            state.spec.burst_us > 0
                ? std::min<uint64_t>(state.spec.burst_us, state.remaining_service_us)
                : state.remaining_service_us;
        ++metrics_.wakeups;
        const CpuId cpu = ChooseWakeCpu(state);
        trace_.Record({.time = now_, .type = trace::EventType::kWake, .cpu = cpu,
                       .task = event.task, .other_cpu = state.last_cpu});
        PlaceTask(event.task, cpu);
        break;
      }
      case EventKind::kService:
        OnService(event);
        break;
      case EventKind::kLbTick:
        OnLbTick();
        break;
      case EventKind::kSample:
        sampler_.Sample(now_, machine_);
        if (alive_tasks_ > 0) {
          Push(now_ + config_.sample_period_us, EventKind::kSample);
        } else {
          sample_armed_ = false;
        }
        break;
    }
  }
  const SimTime end = std::min<SimTime>(until_us, config_.max_time_us);
  if (end > now_) {
    Advance(end);
  }
  return now_;
}

SimTime Simulator::Run() {
  while (!events_.empty() && events_.top().time <= config_.max_time_us) {
    RunUntil(events_.top().time);
  }
  Advance(now_);  // flush accounting at the final instant
  if (config_.watchdog) {
    // Classify violation streaks still open at the end of the run: a chaos
    // run that stops mid-streak would otherwise under-report violations.
    watchdog_.Finalize();
  }
  return now_;
}

void Simulator::ExportMetrics(trace::MetricsRegistry& registry) const {
  stats::ExportCounters(metrics_, registry, "sim");
  registry.Set("sim.accounting.elapsed_us", static_cast<double>(accounting_.elapsed_us()));
  registry.Set("sim.accounting.wasted_us", static_cast<double>(accounting_.wasted_us()));
  registry.Set("sim.accounting.utilization", accounting_.utilization());
  registry.Set("sim.accounting.wasted_fraction", accounting_.wasted_fraction());
  registry.Add("sim.trace.events", static_cast<double>(trace_.events().size()));
  registry.Add("sim.trace.dropped", static_cast<double>(trace_.dropped()));
  stats::ExportCounters(balancer_.stats(), registry, "sim.balancer");
  stats::ExportCounters(fault_stats(), registry, "sim.faults");
  stats::ExportCounters(watchdog_.stats(), registry, "sim.watchdog");
}

}  // namespace optsched::sim
