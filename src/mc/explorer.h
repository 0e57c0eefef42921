// Schedule-space exploration strategies over mc::Scheduler.
//
//   * DfsExplorer — stateless depth-first enumeration with CHESS-style
//     iterative preemption bounding and sleep-set (partial-order) pruning.
//     Sleep sets prune only free switches: a switch that costs a preemption
//     may always go to a sleeping thread (explorer.cc, Eligible). This is
//     not a soundness proof for the bounded space — the equivalent schedule
//     a sleeper stands for can still cost more preemptions than one it
//     prunes (docs/model_checking.md) — so mc_explorer_test pins every
//     seeded fault at a bound no higher than its golden's preemption count.
//   * PctStrategy — the PCT randomized sampler (random priorities plus d-1
//     priority-change points) for spaces too large to exhaust.
//   * ReplayStrategy — follows a recorded choice sequence, then the
//     deterministic default rule; flags divergence.
//   * MinimizeCounterexample — shrinks a violating schedule by tail
//     truncation and greedy choice elimination, re-validating the violation
//     after every candidate step.

#ifndef OPTSCHED_SRC_MC_EXPLORER_H_
#define OPTSCHED_SRC_MC_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/rng.h"
#include "src/mc/schedule.h"
#include "src/mc/scheduler.h"

namespace optsched::mc {

// Fresh bodies over fresh harness state, one call per execution.
using BodyFactory = std::function<std::vector<std::function<void()>>()>;
// Inspects a completed (non-aborted) execution. Return false to stop
// exploring — the convention is "false = violation found, keep this one".
using ExecutionSink = std::function<bool(const ExecutionResult&, uint32_t bound)>;

struct ExploreStats {
  uint64_t schedules_explored = 0;  // completed executions (all bounds)
  uint64_t schedules_pruned = 0;    // branches abandoned by sleep sets
  uint64_t deadlocks = 0;
  uint32_t bound_reached = 0;       // highest preemption bound attempted
  bool stopped_by_sink = false;     // sink returned false (violation)
  bool budget_exhausted = false;    // max_schedules hit before completion
  // Choices of the last completed execution (the counterexample when
  // stopped_by_sink).
  std::vector<uint32_t> last_choices;
};

class DfsExplorer {
 public:
  struct Options {
    // Iterative bound: the space is swept at 0, 1, ..., max_preemptions, so
    // the first violation found uses as few preemptions as possible.
    uint32_t max_preemptions = 2;
    // Total completed-execution budget across all bounds.
    uint64_t max_schedules = 1u << 20;
    Scheduler::Options scheduler;
  };

  DfsExplorer() = default;
  explicit DfsExplorer(Options options) : options_(options) {}

  ExploreStats Explore(const BodyFactory& make_bodies, const ExecutionSink& sink);

 private:
  Options options_;
};

// PCT (Burckhardt et al., ASPLOS'10): each execution draws random distinct
// thread priorities and d-1 random change points; at a change point the
// running thread's priority drops below every initial priority. Pick() runs
// the highest-priority enabled thread, so each execution is deterministic
// given the draw.
class PctStrategy : public Strategy {
 public:
  PctStrategy(uint32_t num_threads, uint32_t depth_estimate, uint32_t num_change_points,
              uint64_t seed);

  uint32_t Pick(const SchedulePoint& point) override;
  // Redraws priorities and change points for the next execution.
  void Reset();

 private:
  uint32_t num_threads_;
  uint32_t depth_estimate_;
  uint32_t num_change_points_;
  Rng rng_;
  std::vector<uint64_t> priority_;
  std::vector<uint32_t> change_points_;
  uint64_t next_low_priority_ = 0;
};

// Follows `choices` verbatim while each recorded choice is enabled; after the
// tape runs out (or a recorded choice is disabled — `diverged`), falls back
// to the deterministic default rule: continue the last thread if enabled,
// else the lowest-id enabled thread.
class ReplayStrategy : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<uint32_t> choices) : choices_(std::move(choices)) {}

  uint32_t Pick(const SchedulePoint& point) override;
  bool diverged() const { return diverged_; }
  void Reset() { index_ = 0; diverged_ = false; }

 private:
  std::vector<uint32_t> choices_;
  size_t index_ = 0;
  bool diverged_ = false;
};

// The replay default rule, shared by ReplayStrategy and minimization.
uint32_t DefaultPick(const SchedulePoint& point);

// Replays `choices` over fresh bodies and returns the execution record.
ExecutionResult ReplayChoices(const BodyFactory& make_bodies,
                              const std::vector<uint32_t>& choices,
                              Scheduler::Options options = Scheduler::Options());

// Shrinks `schedule.choices` while `violates(replayed execution)` stays true:
// first binary-searches the shortest violating prefix (the suffix is
// regenerated by the default rule), then greedily deletes single choices.
// Returns the exact choice sequence of the final violating execution, so the
// result replays without divergence.
std::vector<uint32_t> MinimizeCounterexample(
    const BodyFactory& make_bodies, const std::vector<uint32_t>& choices,
    const std::function<bool(const ExecutionResult&)>& violates,
    Scheduler::Options options = Scheduler::Options());

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_EXPLORER_H_
