// Time-integral accounting of core states: per-core busy/idle time and the
// machine-level "wasted core" time — the total time during which at least
// one core was idle while at least one other core was overloaded. This is
// the quantity the paper's work-conservation property drives to zero (a
// work-conserving scheduler bounds each episode; a broken one accumulates
// wasted time without bound).

#ifndef OPTSCHED_SRC_TRACE_ACCOUNTING_H_
#define OPTSCHED_SRC_TRACE_ACCOUNTING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sched/machine_state.h"
#include "src/stats/counters.h"
#include "src/trace/trace.h"

namespace optsched::trace {

class TimeAccountant {
 public:
  explicit TimeAccountant(uint32_t num_cpus);

  // Integrates the interval [last_time, now] using `machine` as the state
  // that held throughout it. Call at every event time BEFORE mutating the
  // machine (between events the state is constant, so the pre-mutation state
  // at `now` is exactly the state of the whole interval), and once more at
  // the end of the run.
  void AdvanceTo(SimTime now, const MachineState& machine);

  SimTime busy_us(CpuId cpu) const;
  SimTime idle_us(CpuId cpu) const;
  SimTime total_busy_us() const;
  SimTime total_idle_us() const;
  // Time with >= 1 idle core and >= 1 overloaded core simultaneously.
  SimTime wasted_us() const { return wasted_us_; }
  // Observed wall time: last AdvanceTo minus the priming AdvanceTo. An
  // accountant primed at t > 0 has seen nothing before t, so that span must
  // not count (it used to, understating wasted_fraction).
  SimTime elapsed_us() const { return last_time_ - first_time_; }

  // Fraction of total core-time spent busy, in [0, 1].
  double utilization() const;
  // Fraction of wall time that was wasted (idle-while-overloaded), in [0, 1].
  double wasted_fraction() const;

  std::string ToString() const;

 private:
  SimTime first_time_ = 0;  // time of the priming AdvanceTo
  SimTime last_time_ = 0;
  bool primed_ = false;
  uint32_t num_cpus_;
  std::vector<SimTime> busy_us_;
  std::vector<SimTime> idle_us_;
  SimTime wasted_us_ = 0;
};

// Episode detector over a recorded load-sample series: returns the episodes
// (start, end) during which some core was idle while another was overloaded.
struct WastedEpisode {
  SimTime start_us = 0;
  SimTime end_us = 0;
};

class LoadSampler {
 public:
  void Sample(SimTime now, const MachineState& machine);
  const std::vector<std::pair<SimTime, std::vector<int64_t>>>& samples() const {
    return samples_;
  }
  std::vector<WastedEpisode> WastedEpisodes() const;

  // ASCII timeline: one row per CPU, one column per sample.
  // '.' idle, '#' busy (1 task), digit/'+' queue depth.
  std::string RenderTimeline(size_t max_columns = 100) const;

 private:
  std::vector<std::pair<SimTime, std::vector<int64_t>>> samples_;
};

// Work-conservation watchdog: the runtime counterpart of the verifier's
// convergence bound.
//
// The paper's property guarantees an N such that after N balancing rounds no
// core is idle while another is overloaded. The watchdog observes the load
// vector once per round and tracks, per core, the streak of consecutive
// rounds the core spent idle while some other core was overloaded. A streak
// at or below the threshold is a *transient* violation — expected under an
// optimistic scheduler (failed steals, stale snapshots, injected faults). A
// streak that exceeds the threshold is a *persistent* violation: the
// convergence bound was missed at runtime, so the caller should escalate
// (force a reliable, ladder-outermost balancing round) and the event stream
// records violation/escalation/recovery markers.
//
// Pick the threshold from the verifier's worst-case N where available
// (CheckSequentialConvergence / CheckConcurrentConvergence report it), with
// headroom for fault rates; DefaultThreshold gives 2*num_cpus, a safe bound
// for the proven policies whose N never exceeds the core count in the
// verified envelopes.
struct WatchdogConfig {
  // Streaks strictly above this many consecutive rounds are persistent.
  uint64_t threshold_rounds = 0;  // 0 = DefaultThreshold(num_cpus)
};

struct WatchdogStats {
  uint64_t observations = 0;
  // Streak endings at or below the threshold (the expected, benign kind).
  uint64_t transient_violations = 0;
  // Streaks that crossed the threshold (counted once per crossing).
  uint64_t persistent_violations = 0;
  // Persistent streaks that subsequently cleared.
  uint64_t recoveries = 0;
  // Escalations the caller reported back via RecordEscalation.
  uint64_t escalations = 0;
  uint64_t max_streak_rounds = 0;

  static constexpr stats::Counter<WatchdogStats> kCounters[] = {
      {"observations", &WatchdogStats::observations},
      {"transient_violations", &WatchdogStats::transient_violations},
      {"persistent_violations", &WatchdogStats::persistent_violations},
      {"recoveries", &WatchdogStats::recoveries},
      {"escalations", &WatchdogStats::escalations},
      {"max_streak_rounds", &WatchdogStats::max_streak_rounds},
  };
};
static_assert(stats::CoversEveryField<WatchdogStats>());

class ConservationWatchdog {
 public:
  explicit ConservationWatchdog(uint32_t num_cpus, WatchdogConfig config = {});

  static uint64_t DefaultThreshold(uint32_t num_cpus) { return 2ull * num_cpus; }

  uint64_t threshold_rounds() const { return threshold_; }

  // Feed one balancing round's end-state loads (policy metric irrelevant:
  // idle == 0, overloaded >= 2). Returns true iff some core's streak crossed
  // the threshold at THIS observation — the caller should escalate. Records
  // kViolation / kRecovery events into `trace` when given.
  bool ObserveRound(SimTime now, const std::vector<int64_t>& loads,
                    TraceBuffer* trace = nullptr);

  // Ingress-aware variant (docs/serving.md): `mailbox_pending[cpu]` is the
  // admitted-but-undrained mailbox depth for `cpu` (empty = no ingress). A
  // core that looks idle but has mailbox-resident work is NOT violating work
  // conservation — the items are already assigned to it and will enter its
  // runqueue at its next drain, and no other core could legally steal them
  // from the mailbox anyway. Without this, sustained overload at the ingress
  // edge reads as a persistent conservation violation and the watchdog
  // escalates against a scheduler that is doing nothing wrong.
  // `any_overloaded` still considers runqueue loads only: mailbox backlog is
  // not stealable, so it cannot obligate OTHER cores.
  bool ObserveRound(SimTime now, const std::vector<int64_t>& loads,
                    const std::vector<int64_t>& mailbox_pending, TraceBuffer* trace);

  // The caller escalated (forced a global round); tallies and traces it.
  void RecordEscalation(SimTime now, TraceBuffer* trace = nullptr);

  // End-of-run classification: a streak still open at shutdown was a real
  // violation even though no later round observed it ending. Non-persistent
  // open streaks count as transient; persistent ones stay counted (from
  // their crossing) but do NOT count as recovered. Idempotent — every
  // streak is cleared, so a second call is a no-op.
  void Finalize();

  const WatchdogStats& stats() const { return stats_; }
  uint64_t streak(CpuId cpu) const;
  // True while at least one core is in a persistent violation.
  bool in_violation() const { return persistent_cores_ > 0; }

 private:
  uint32_t num_cpus_;
  uint64_t threshold_;
  std::vector<uint64_t> streak_;
  std::vector<bool> persistent_;
  uint32_t persistent_cores_ = 0;
  WatchdogStats stats_;
};

}  // namespace optsched::trace

#endif  // OPTSCHED_SRC_TRACE_ACCOUNTING_H_
