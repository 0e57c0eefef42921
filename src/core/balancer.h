// The optimistic load-balancing round engine (paper §3.1, Figure 1).
//
// A round executes, for every core of the machine (idle and non-idle alike,
// as in CFS where "load balancing operations are performed simultaneously on
// all cores every 4ms"):
//
//   selection phase (no locks):  FILTER over a load snapshot, then CHOICE;
//   stealing phase  (src+dst "locked"):  re-check the filter on current
//       loads, pick a task the migration rule accepts, move it.
//
// Concurrency model. The stealing phase is atomic in the paper's model ("no
// two cores should be able to steal the same thread"), so any concurrent
// round linearizes into: all cores select against the round-start snapshot,
// then the steals execute one at a time in *some* order. The engine exposes
// that order as a parameter: random (driven by an Rng), fixed (driven by the
// adversarial explorer in src/verify, which enumerates every permutation), or
// fully sequential (§4.2's simplified setting where each core performs all
// three steps in isolation against a fresh snapshot, so steals cannot fail).
//
// Failures are first-class: a steal whose re-check no longer holds is counted
// and classified, never retried within the round — matching the paper's
// definition where failed attempts are legitimate and only *persistent*
// idleness violates work conservation.

#ifndef OPTSCHED_SRC_CORE_BALANCER_H_
#define OPTSCHED_SRC_CORE_BALANCER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/policy.h"
#include "src/fault/fault.h"
#include "src/sched/machine_state.h"
#include "src/stats/counters.h"
#include "src/topology/topology.h"

namespace optsched {

// Outcome of one core's participation in a round.
enum class StealOutcome {
  kNoCandidates,    // filter returned the empty set; core did not attempt a steal
  kStole,           // task migrated
  kFailedRecheck,   // CanSteal no longer held under locks (another steal intervened)
  kFailedNoTask,    // CanSteal held but no ready task satisfied the migration rule
};

const char* StealOutcomeName(StealOutcome outcome);

struct CoreAction {
  CpuId thief = 0;
  std::optional<CpuId> victim;  // set iff the filter was non-empty
  StealOutcome outcome = StealOutcome::kNoCandidates;
  std::optional<TaskId> task;   // set iff outcome == kStole (first task moved)
  uint32_t moved = 0;           // tasks migrated by this action (batch steals move > 1)
  // True when the outcome was forced by fault injection (a stalled core or an
  // injected steal abort) rather than by genuine contention. Attribution
  // proofs (§4.3: every failed steal implicates a successful one) quantify
  // over the non-injected actions only.
  bool injected = false;
};

struct RoundResult {
  std::vector<CoreAction> actions;   // one per core, dense core order
  std::vector<uint32_t> executed_order;  // core ids in steal-phase execution order
  uint32_t attempts = 0;             // cores whose filter was non-empty
  uint32_t successes = 0;            // cores whose steal phase moved >= 1 task
  uint32_t tasks_moved = 0;          // total migrations (== successes unless batching)
  uint32_t failures = 0;             // kFailedRecheck + kFailedNoTask
  // Fault-injection effects on this round (zero without an injector).
  bool dropped = false;              // the whole round was dropped
  uint32_t stalled = 0;              // straggler cores that skipped the round
  uint32_t injected_failures = 0;    // failures forced by injected aborts
  int64_t potential_before = 0;      // d before the round, policy metric
  int64_t potential_after = 0;

  std::string ToString() const;
};

struct RoundOptions {
  enum class Mode {
    // §4.2: cores act one after another, each against fresh state. Steals
    // cannot fail (the paper's "simple context").
    kSequential,
    // §4.3: all cores select against the round-start snapshot; steals then
    // serialize in an order drawn from the Rng.
    kConcurrentRandomOrder,
    // Same, but the serialization order is supplied explicitly (adversarial
    // exploration enumerates all of them).
    kConcurrentFixedOrder,
  };
  Mode mode = Mode::kConcurrentRandomOrder;

  // Permutation of core ids; required iff mode == kConcurrentFixedOrder.
  std::vector<uint32_t> steal_order;

  // Listing 1 line 12. Disabling this is the D2 ablation: steals proceed on
  // stale information and can idle their victim / overshoot.
  bool recheck_filter = true;

  // Upper bound on tasks moved per steal phase (Listing 1 moves exactly one;
  // CFS pulls until the imbalance is gone). Values > 1 re-evaluate the
  // filter AND the migration rule against current loads before every
  // additional task, so each individual migration still strictly decreases
  // the potential — the proofs are per-migration and carry over.
  uint32_t max_steals_per_attempt = 1;

  // Restrict participation to idle cores (a common variant: busy cores skip
  // balancing). The paper's model has every core participate; flipping this
  // narrows attempts without affecting the proofs.
  bool only_idle_steal = false;
};

// Cumulative counters across rounds.
struct BalanceStats {
  uint64_t rounds = 0;
  uint64_t attempts = 0;
  // One per successful steal ACTION (a core whose steal phase moved at least
  // one task). With max_steals > 1 a single action can migrate several tasks;
  // those are counted in tasks_moved. Invariant:
  //   successes <= tasks_moved <= successes * max_steals.
  // (Before the split, batch steals added `moved` here while RoundResult
  // counted one success per stealing core, so the two disagreed.)
  uint64_t successes = 0;
  uint64_t tasks_moved = 0;
  uint64_t failed_recheck = 0;
  uint64_t failed_no_task = 0;
  // Fault-injection tallies, disjoint from the genuine counters above: an
  // injected abort is NOT counted in failed_recheck, so the attribution
  // obligation (every failed_recheck implicates a successful steal) keeps
  // holding under injection.
  uint64_t injected_aborts = 0;
  uint64_t stalled_attempts = 0;
  uint64_t stale_snapshots = 0;
  uint64_t dropped_rounds = 0;

  static constexpr stats::Counter<BalanceStats> kCounters[] = {
      {"rounds", &BalanceStats::rounds},
      {"attempts", &BalanceStats::attempts},
      {"successes", &BalanceStats::successes},
      {"tasks_moved", &BalanceStats::tasks_moved},
      {"failed_recheck", &BalanceStats::failed_recheck},
      {"failed_no_task", &BalanceStats::failed_no_task},
      {"injected_aborts", &BalanceStats::injected_aborts},
      {"stalled_attempts", &BalanceStats::stalled_attempts},
      {"stale_snapshots", &BalanceStats::stale_snapshots},
      {"dropped_rounds", &BalanceStats::dropped_rounds},
  };

  uint64_t failures() const { return failed_recheck + failed_no_task; }
  std::string ToString() const { return stats::FormatCounters(*this, "stats"); }
};
static_assert(stats::CoversEveryField<BalanceStats>());

class LoadBalancer {
 public:
  // `topology` may be null for placement-oblivious policies; it is forwarded
  // to the policy through SelectionView.
  explicit LoadBalancer(std::shared_ptr<const BalancePolicy> policy,
                        const Topology* topology = nullptr);

  const BalancePolicy& policy() const { return *policy_; }
  const BalanceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BalanceStats{}; }

  // Attaches (or detaches, with nullptr) a fault injector. The engine then
  // perturbs its own seams: rounds may be dropped, cores may straggle, a
  // core's selection may run against the previous round's snapshot, and
  // steal phases may abort as if the re-check lost. Not owned; must outlive
  // the balancer or be detached first.
  void set_fault_injector(fault::FaultInjector* injector) { injector_ = injector; }
  fault::FaultInjector* fault_injector() const { return injector_; }

  // Executes one load-balancing round over the machine.
  RoundResult RunRound(MachineState& machine, Rng& rng, const RoundOptions& options = {});

  // Single-thief attempt: core `thief` runs filter/choice/steal against the
  // given snapshot with steals applied to `machine` immediately. Used by the
  // simulator (cores balance at their own tick times) and by idle balancing.
  CoreAction RunOneAttempt(MachineState& machine, CpuId thief, const LoadSnapshot& snapshot,
                           Rng& rng, bool recheck_filter = true, uint32_t max_steals = 1);

  // The stealing phase alone (Figure 1 step 3), with `victim` already chosen:
  // models the thief holding both runqueue locks — re-check the filter on
  // current loads, pick a task via the migration rule, move it (up to
  // `max_steals` tasks, re-checking everything between moves). Exposed so
  // the verifier can exercise the exact engine semantics for *every*
  // (state, thief, victim) triple, not just the pairs the choice step picks.
  // Outcome is one of kStole / kFailedRecheck / kFailedNoTask; `task` is the
  // first task moved.
  CoreAction ExecuteStealPhase(MachineState& machine, CpuId thief, CpuId victim,
                               bool recheck_filter = true, uint32_t max_steals = 1);

 private:
  std::shared_ptr<const BalancePolicy> policy_;
  const Topology* topology_;
  BalanceStats stats_;
  fault::FaultInjector* injector_ = nullptr;
  // Previous round's shared snapshot, served to cores hit by a
  // stale-snapshot fault (valid once one concurrent round has run).
  LoadSnapshot prev_round_snapshot_;
  bool has_prev_round_snapshot_ = false;
};

}  // namespace optsched

#endif  // OPTSCHED_SRC_CORE_BALANCER_H_
