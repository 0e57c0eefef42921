// Deterministic fault injection at the optimistic protocol's seams.
//
// The paper's claim (§3.2) is resilience by construction: the three-step
// protocol tolerates *transient* failures — stale snapshots, lost re-checks,
// cores that miss balancing rounds — and only *persistent* idleness while
// another core is overloaded violates work conservation. This module makes
// those transient failures first-class and reproducible: a FaultPlan is a
// seeded description of fault rates at each seam, and a FaultInjector turns
// it into per-core deterministic decisions. The same plan can drive the
// model checker (src/verify), the discrete-event simulator (src/sim), the
// round engines (src/core) and the real-thread executor (src/runtime), so a
// perturbation found interesting in one layer can be replayed in the others.
//
// Decision, not mechanism: the injector answers "does fault X hit core c at
// its next protocol invocation?" and counts the hit; the call sites own the
// mechanics (skipping the round, aborting the steal phase, serving an aged
// snapshot, killing the worker thread). This keeps the injector free of
// dependencies on any scheduler layer and — because every lane (core) has
// its own SplitMix64 stream and its own counters — safe to consult from one
// thread per lane without synchronization.

#ifndef OPTSCHED_SRC_FAULT_FAULT_H_
#define OPTSCHED_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/stats/counters.h"

namespace optsched::fault {

// Probabilities are per protocol invocation: one balancing attempt (or round
// participation) of one core. All zero means "no faults" and every consumer
// behaves exactly as if no injector were attached.
struct FaultPlan {
  // Straggler core: skips its balancing attempt this round (models a core
  // stuck in a long critical section / interrupt storm during the tick).
  double straggler_rate = 0.0;
  // Forced steal-phase abort: the steal behaves as if the re-check lost
  // against a concurrent steal (the paper's legitimate failure), even though
  // no competing steal intervened.
  double steal_abort_rate = 0.0;
  // Selection runs against the previous round's snapshot instead of the
  // current one (artificially aggravated staleness).
  double stale_snapshot_rate = 0.0;
  // The entire periodic balancing round is dropped (lost timer tick).
  double drop_round_rate = 0.0;
  // Worker crash-and-restart (threaded executor only): the worker leaves its
  // loop at a protocol seam, and its thread re-enters the loop after
  // crash_restart_us.
  double crash_rate = 0.0;
  uint64_t crash_restart_us = 200;
  // --- Serving-ingress seams (src/ingress, docs/serving.md) -----------------
  // Mailbox enqueue failure: the producer's TryPush is forced to fail as if
  // the mailbox were full (models a transient allocator/NIC-ring reject).
  // The admission policy then runs its normal full-mailbox fallback, so an
  // injected failure is indistinguishable from real overload downstream —
  // which is the point: it must surface in metrics, not trip the watchdog.
  double mailbox_enqueue_fail_rate = 0.0;
  // Stalled producer: the connection shard sleeps producer_stall_us before
  // offering the item (models a connection handler stuck in a syscall).
  double producer_stall_rate = 0.0;
  uint64_t producer_stall_us = 200;
  // Delayed drain: the owner skips one mailbox-drain opportunity (the items
  // stay admitted-but-undrained one round longer; watchdog must classify the
  // resulting idle-while-pending window as transient).
  double drain_delay_rate = 0.0;
  uint64_t seed = 1;

  // True if any rate is non-zero (consumers skip all hooks otherwise).
  bool any() const {
    return straggler_rate > 0 || steal_abort_rate > 0 || stale_snapshot_rate > 0 ||
           drop_round_rate > 0 || crash_rate > 0 || mailbox_enqueue_fail_rate > 0 ||
           producer_stall_rate > 0 || drain_delay_rate > 0;
  }

  std::string ToString() const;
};

// Cumulative injected-fault counts (what the plan actually did to a run).
struct FaultStats {
  uint64_t stalled_attempts = 0;
  uint64_t injected_aborts = 0;
  uint64_t stale_snapshots = 0;
  uint64_t dropped_rounds = 0;
  uint64_t crashes = 0;
  uint64_t mailbox_enqueue_failures = 0;
  uint64_t producer_stalls = 0;
  uint64_t delayed_drains = 0;

  // The two ingress faults export under the router's names.
  static constexpr stats::Counter<FaultStats> kCounters[] = {
      {"stalled_attempts", &FaultStats::stalled_attempts},
      {"injected_aborts", &FaultStats::injected_aborts},
      {"stale_snapshots", &FaultStats::stale_snapshots},
      {"dropped_rounds", &FaultStats::dropped_rounds},
      {"crashes", &FaultStats::crashes},
      {"enqueue_failures", &FaultStats::mailbox_enqueue_failures},
      {"producer_stalls", &FaultStats::producer_stalls},
      {"delayed_drains", &FaultStats::delayed_drains},
  };
};
static_assert(stats::CoversEveryField<FaultStats>());

class FaultInjector {
 public:
  // `num_lanes` is the number of cores/workers; lane i must only be consulted
  // by the thread acting for core i (single-threaded consumers may use any
  // lane). DropRound draws from a dedicated round lane.
  FaultInjector(const FaultPlan& plan, uint32_t num_lanes);

  const FaultPlan& plan() const { return plan_; }
  uint32_t num_lanes() const { return static_cast<uint32_t>(lanes_.size()); }

  // Each probe draws once from the lane's stream and, when it fires, counts
  // the injection. Deterministic: the sequence of probe results for a lane is
  // a pure function of (plan.seed, lane, probe history).
  bool StallCore(uint32_t lane);       // straggler: skip this balancing attempt
  bool AbortSteal(uint32_t lane);      // force a lost re-check in the steal phase
  bool StaleSnapshot(uint32_t lane);   // select against an aged snapshot
  bool CrashWorker(uint32_t lane);     // fail-stop the worker thread
  bool DropRound();                    // lose the whole periodic round
  // Ingress seams. For the producer-side probes the lane is the connection
  // SHARD (the router sizes its injector by shards, one producer thread per
  // lane); for DelayDrain the lane is the owning WORKER, probed on its own
  // executor-side injector.
  bool FailMailboxEnqueue(uint32_t lane);  // force one TryPush to reject
  bool StallProducer(uint32_t lane);       // sleep the shard before offering
  bool DelayDrain(uint32_t lane);          // skip one mailbox-drain opportunity

  // Sum of all lanes. Quiescence contract (not a lock): call only while no
  // other thread is probing — the executor reads it after joining its
  // workers. There is deliberately no mutex here; serializing the probes
  // would serialize the protocol attempts they are injected into.
  FaultStats stats() const;
  const FaultStats& lane_stats(uint32_t lane) const;

  // Restores the injector to its initial (seeded) state. Same quiescence
  // contract as stats().
  void Reset();

 private:
  // One lane per worker thread, each thread touching only its own lane (the
  // unsynchronized-by-design contract above — there is no lock to annotate,
  // so the discipline lives in the "lane i / thread i" ownership rule).
  // Cache-line alignment keeps the contract cheap as well as correct:
  // without it, adjacent lanes share a line and every probe's RNG advance
  // false-shares with its neighbours' — measurable on the steal path, where
  // each fruitless attempt probes three fault seams.
  struct alignas(64) Lane {
    Rng rng;
    FaultStats stats;
    Lane() : rng(0) {}
  };

  bool Draw(uint32_t lane, double rate, uint64_t FaultStats::* counter);

  FaultPlan plan_;
  std::vector<Lane> lanes_;
  Lane round_lane_;
};

}  // namespace optsched::fault

#endif  // OPTSCHED_SRC_FAULT_FAULT_H_
