#include "src/core/balancer.h"

#include <algorithm>
#include <numeric>

#include "src/base/check.h"
#include "src/base/str.h"

namespace optsched {

namespace {

// Weight of a task as measured by the policy's metric: 1 under kTaskCount,
// the niceness weight under kWeightedLoad.
int64_t MetricWeight(const Task& task, LoadMetric metric) {
  return metric == LoadMetric::kTaskCount ? 1 : static_cast<int64_t>(task.weight);
}

}  // namespace

const char* StealOutcomeName(StealOutcome outcome) {
  switch (outcome) {
    case StealOutcome::kNoCandidates:
      return "no-candidates";
    case StealOutcome::kStole:
      return "stole";
    case StealOutcome::kFailedRecheck:
      return "failed-recheck";
    case StealOutcome::kFailedNoTask:
      return "failed-no-task";
  }
  return "?";
}

std::string RoundResult::ToString() const {
  return StrFormat("round{attempts=%u successes=%u moved=%u failures=%u d:%lld->%lld}", attempts,
                   successes, tasks_moved, failures, static_cast<long long>(potential_before),
                   static_cast<long long>(potential_after));
}

LoadBalancer::LoadBalancer(std::shared_ptr<const BalancePolicy> policy, const Topology* topology)
    : policy_(std::move(policy)), topology_(topology) {
  OPTSCHED_CHECK(policy_ != nullptr);
}

CoreAction LoadBalancer::RunOneAttempt(MachineState& machine, CpuId thief,
                                       const LoadSnapshot& snapshot, Rng& rng,
                                       bool recheck_filter, uint32_t max_steals) {
  CoreAction action;
  action.thief = thief;

  // --- Selection phase (lock-free, read-only) ------------------------------
  const SelectionView view{.self = thief, .snapshot = snapshot, .topology = topology_};
  const std::vector<CpuId> candidates = policy_->FilterCandidates(view);  // step 1
  if (candidates.empty()) {
    action.outcome = StealOutcome::kNoCandidates;
    return action;
  }
  const CpuId victim = policy_->SelectCore(view, candidates, rng);  // step 2
  OPTSCHED_CHECK_MSG(std::find(candidates.begin(), candidates.end(), victim) != candidates.end(),
                     "SelectCore must return a filtered candidate (Listing 1 ensuring clause)");
  return ExecuteStealPhase(machine, thief, victim, recheck_filter, max_steals);
}

CoreAction LoadBalancer::ExecuteStealPhase(MachineState& machine, CpuId thief, CpuId victim,
                                           bool recheck_filter, uint32_t max_steals) {
  OPTSCHED_CHECK(max_steals >= 1);
  CoreAction action;
  action.thief = thief;
  action.victim = victim;
  ++stats_.attempts;

  // Injected steal abort: behaves exactly like a lost re-check (the thief
  // walks away empty-handed, the victim keeps its task) but is tallied apart
  // from genuine contention so failure attribution stays provable.
  if (injector_ != nullptr && injector_->AbortSteal(thief)) {
    action.outcome = StealOutcome::kFailedRecheck;
    action.injected = true;
    ++stats_.injected_aborts;
    return action;
  }

  const LoadMetric metric = policy_->metric();
  uint32_t moved = 0;
  while (moved < max_steals) {
    // A fresh snapshot models the linearized view the thief has once both
    // runqueue locks are held (and, for batch steals, the state after each
    // completed migration).
    const LoadSnapshot fresh = machine.Snapshot();
    const SelectionView locked_view{.self = thief, .snapshot = fresh, .topology = topology_};
    if (recheck_filter && !policy_->CanSteal(locked_view, victim)) {
      if (moved > 0) {
        break;  // batch ended: the victim is no longer stealable
      }
      // The core we optimistically chose is no longer stealable: some other
      // core's steal intervened between our snapshot and our lock acquisition.
      action.outcome = StealOutcome::kFailedRecheck;
      ++stats_.failed_recheck;
      return action;
    }

    const int64_t victim_load = fresh.Load(victim, metric);
    const int64_t thief_load = fresh.Load(thief, metric);

    // Migration rule: scan the victim's runqueue from the tail (coldest tasks
    // first) for a task the policy allows to move at these exact loads and
    // whose affinity mask admits the thief.
    const CoreState& victim_core = machine.core(victim);
    std::optional<TaskId> eligible;
    for (auto it = victim_core.ready().rbegin(); it != victim_core.ready().rend(); ++it) {
      if (it->AllowedOn(thief) &&
          policy_->ShouldMigrate(MetricWeight(*it, metric), victim_load, thief_load)) {
        eligible = it->id;
        break;
      }
    }
    if (!eligible.has_value()) {
      if (moved > 0) {
        break;  // batch ended: nothing left that the rule admits
      }
      action.outcome = StealOutcome::kFailedNoTask;
      ++stats_.failed_no_task;
      return action;
    }

    OPTSCHED_CHECK(machine.StealTaskById(victim, thief, *eligible));
    if (moved == 0) {
      action.task = eligible;
    }
    ++moved;
  }
  // The thief may have been idle; give it something to run right away.
  machine.core_mutable(thief).ScheduleNext();
  action.outcome = StealOutcome::kStole;
  action.moved = moved;
  // One success per steal ACTION; the per-task total goes to tasks_moved
  // (adding `moved` here made the two disagree whenever max_steals > 1).
  ++stats_.successes;
  stats_.tasks_moved += moved;
  return action;
}

RoundResult LoadBalancer::RunRound(MachineState& machine, Rng& rng, const RoundOptions& options) {
  const uint32_t n = machine.num_cpus();
  RoundResult result;
  result.actions.assign(n, CoreAction{});
  result.potential_before = machine.Potential(policy_->metric());
  ++stats_.rounds;

  // A dropped round (lost timer tick) performs no work at all; loads carry
  // over unchanged and so does the staleness of any cached snapshot.
  if (injector_ != nullptr && injector_->DropRound()) {
    for (CpuId cpu = 0; cpu < n; ++cpu) {
      result.actions[cpu].thief = cpu;
    }
    result.dropped = true;
    ++stats_.dropped_rounds;
    result.potential_after = result.potential_before;
    return result;
  }

  auto participates = [&](CpuId cpu) {
    return !options.only_idle_steal || machine.IsIdle(cpu);
  };
  // Straggler fault: the core misses this round entirely (drawn once per
  // participating core so the decision is deterministic per lane).
  auto straggles = [&](CpuId cpu) {
    if (injector_ == nullptr || !injector_->StallCore(cpu)) {
      return false;
    }
    result.actions[cpu].injected = true;
    ++result.stalled;
    ++stats_.stalled_attempts;
    return true;
  };

  if (options.mode == RoundOptions::Mode::kSequential) {
    // §4.2 simple context: each core runs all three steps in isolation.
    for (CpuId cpu = 0; cpu < n; ++cpu) {
      result.actions[cpu].thief = cpu;
      result.executed_order.push_back(cpu);
      if (!participates(cpu) || straggles(cpu)) {
        continue;
      }
      LoadSnapshot fresh = machine.Snapshot();
      bool stale = false;
      if (injector_ != nullptr && has_prev_round_snapshot_ && injector_->StaleSnapshot(cpu)) {
        fresh = prev_round_snapshot_;
        ++stats_.stale_snapshots;
        stale = true;
      }
      result.actions[cpu] = RunOneAttempt(machine, cpu, fresh, rng, options.recheck_filter,
                                           options.max_steals_per_attempt);
      if (stale && (result.actions[cpu].outcome == StealOutcome::kFailedRecheck ||
                    result.actions[cpu].outcome == StealOutcome::kFailedNoTask)) {
        // A failure under an injected stale view may have no concurrent steal
        // to blame; exclude it from the attribution obligation.
        result.actions[cpu].injected = true;
      }
    }
    prev_round_snapshot_ = machine.Snapshot();
    has_prev_round_snapshot_ = true;
  } else {
    // §4.3 concurrent context: one shared (and soon stale) snapshot, steals
    // serialized in the given order.
    const LoadSnapshot round_snapshot = machine.Snapshot();
    std::vector<uint32_t> order;
    if (options.mode == RoundOptions::Mode::kConcurrentFixedOrder) {
      OPTSCHED_CHECK_MSG(options.steal_order.size() == n,
                         "steal_order must be a permutation of all cores");
      order = options.steal_order;
    } else {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0);
      rng.Shuffle(order);
    }
    result.executed_order = order;
    for (uint32_t cpu : order) {
      OPTSCHED_CHECK(cpu < n);
      result.actions[cpu].thief = cpu;
      if (!participates(cpu) || straggles(cpu)) {
        continue;
      }
      const LoadSnapshot* view = &round_snapshot;
      bool stale = false;
      if (injector_ != nullptr && has_prev_round_snapshot_ && injector_->StaleSnapshot(cpu)) {
        // One round staler than everyone else: selection against the
        // previous round's shared snapshot.
        view = &prev_round_snapshot_;
        ++stats_.stale_snapshots;
        stale = true;
      }
      result.actions[cpu] =
          RunOneAttempt(machine, cpu, *view, rng, options.recheck_filter,
                        options.max_steals_per_attempt);
      if (stale && (result.actions[cpu].outcome == StealOutcome::kFailedRecheck ||
                    result.actions[cpu].outcome == StealOutcome::kFailedNoTask)) {
        // A failure under an injected stale view may have no concurrent steal
        // to blame; exclude it from the attribution obligation.
        result.actions[cpu].injected = true;
      }
    }
    prev_round_snapshot_ = round_snapshot;
    has_prev_round_snapshot_ = true;
  }

  for (const CoreAction& action : result.actions) {
    switch (action.outcome) {
      case StealOutcome::kNoCandidates:
        break;
      case StealOutcome::kStole:
        ++result.attempts;
        ++result.successes;
        result.tasks_moved += action.moved;
        break;
      case StealOutcome::kFailedRecheck:
      case StealOutcome::kFailedNoTask:
        ++result.attempts;
        ++result.failures;
        if (action.injected) {
          ++result.injected_failures;
        }
        break;
    }
  }
  result.potential_after = machine.Potential(policy_->metric());
  return result;
}

}  // namespace optsched
