#include "src/mc/explorer.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"

namespace optsched::mc {

namespace {

// One decision point on the DFS stack.
struct Node {
  std::vector<uint32_t> enabled;
  std::vector<ThreadOp> pending;  // parallel to enabled
  // Threads put to sleep by an ancestor (see Eligible).
  std::vector<uint32_t> sleep;
  // Choices whose subtree from this node is fully explored.
  std::vector<uint32_t> done;
  uint32_t chosen = kNoThread;
  uint32_t preemptions_before = 0;
  uint32_t last_running = kNoThread;
  bool last_still_enabled = false;
  ThreadOp last_pending;
};

bool Contains(const std::vector<uint32_t>& v, uint32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// A context switch away from a still-enabled thread at a non-yield point is
// a preemption (CHESS); everything else is free.
uint32_t PreemptionCost(const Node& node, uint32_t choice) {
  return node.last_still_enabled && choice != node.last_running &&
                 node.last_pending.op != SyncOp::kYield
             ? 1
             : 0;
}

// Sleep sets vs. the preemption bound: the equivalent schedule a sleeper
// stands for (its step moved up to the node that put it to sleep) can cost
// more preemptions than a schedule that reaches the sleeper only by
// preempting someone — a thread put to sleep at its kThreadStart commutes
// with everything and would otherwise never wake in the subtree. So a
// switch that costs a preemption may always go to a sleeper; sleep sets
// prune only free switches.
bool Eligible(const Node& node, uint32_t choice) {
  return !Contains(node.done, choice) &&
         (!Contains(node.sleep, choice) || PreemptionCost(node, choice) == 1);
}

const ThreadOp* PendingOf(const Node& node, uint32_t thread) {
  for (size_t i = 0; i < node.enabled.size(); ++i) {
    if (node.enabled[i] == thread) {
      return &node.pending[i];
    }
  }
  return nullptr;
}

// Next unexplored, bound-feasible choice at `node`. Preference order keeps
// the zero-preemption continuation first so bound-b DFS enumerates cheap
// schedules before spending switches: continue the last thread, then the
// lowest-id free switch, then the lowest-id preemption.
uint32_t PickCandidate(const Node& node, uint32_t bound) {
  uint32_t best = kNoThread;
  int best_rank = std::numeric_limits<int>::max();
  for (uint32_t c : node.enabled) {
    if (!Eligible(node, c)) {
      continue;
    }
    const uint32_t cost = PreemptionCost(node, c);
    if (node.preemptions_before + cost > bound) {
      continue;
    }
    const int rank = c == node.last_running ? 0 : (cost == 0 ? 1 : 2);
    if (rank < best_rank) {
      best = c;
      best_rank = rank;
    }
  }
  return best;
}

// Stateless DFS over schedules: replays the stack prefix, extends with fresh
// nodes, and between executions backtracks to the deepest node with an
// untried alternative. Sleep sets put a choice to sleep once its subtree is
// done; a child inherits the sleeping threads whose pending op is independent
// of the op just executed, and a node whose every enabled thread is either
// asleep behind a free switch or over the preemption bound aborts the
// execution (the continuation is covered by an equivalent schedule explored
// elsewhere).
class DfsStrategy : public Strategy {
 public:
  explicit DfsStrategy(uint32_t bound) : bound_(bound) {}

  uint32_t Pick(const SchedulePoint& point) override {
    if (depth_ < stack_.size()) {
      Node& node = stack_[depth_];
      OPTSCHED_CHECK_MSG(node.enabled == point.enabled && Contains(point.enabled, node.chosen),
                         "nondeterministic replay: enabled set changed under fixed choices");
      preemptions_ += PreemptionCost(node, node.chosen);
      ++depth_;
      return node.chosen;
    }

    Node node;
    node.enabled = point.enabled;
    node.pending = point.pending;
    node.last_running = point.last_running;
    node.last_still_enabled = point.last_still_enabled;
    node.last_pending = point.last_pending;
    node.preemptions_before = preemptions_;
    if (!stack_.empty()) {
      const Node& parent = stack_.back();
      const ThreadOp* executed = PendingOf(parent, parent.chosen);
      OPTSCHED_CHECK(executed != nullptr);
      for (const std::vector<uint32_t>* set : {&parent.sleep, &parent.done}) {
        for (uint32_t sleeper : *set) {
          const ThreadOp* op = PendingOf(node, sleeper);
          if (sleeper != parent.chosen && op != nullptr && CanStaySleeping(*op, *executed)) {
            node.sleep.push_back(sleeper);
          }
        }
      }
    }

    node.chosen = PickCandidate(node, bound_);
    if (node.chosen == kNoThread) {
      pruned_current_ = true;
      return kAbortExecution;
    }
    preemptions_ += PreemptionCost(node, node.chosen);
    stack_.push_back(std::move(node));
    ++depth_;
    return stack_.back().chosen;
  }

  // Moves to the next schedule. False when the bounded space is exhausted.
  bool AdvanceToNext() {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      node.done.push_back(node.chosen);
      const uint32_t next = PickCandidate(node, bound_);
      if (next != kNoThread) {
        node.chosen = next;
        BeginExecution();
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

  void BeginExecution() {
    depth_ = 0;
    preemptions_ = 0;
    pruned_current_ = false;
  }

  bool pruned_current() const { return pruned_current_; }

 private:
  uint32_t bound_;
  std::vector<Node> stack_;
  size_t depth_ = 0;
  uint32_t preemptions_ = 0;
  bool pruned_current_ = false;
};

}  // namespace

ExploreStats DfsExplorer::Explore(const BodyFactory& make_bodies, const ExecutionSink& sink) {
  ExploreStats stats;
  for (uint32_t bound = 0; bound <= options_.max_preemptions; ++bound) {
    stats.bound_reached = bound;
    DfsStrategy dfs(bound);
    dfs.BeginExecution();
    for (;;) {
      Scheduler scheduler(options_.scheduler);
      const ExecutionResult result = scheduler.Run(make_bodies(), dfs);
      if (result.aborted) {
        ++stats.schedules_pruned;
      } else {
        ++stats.schedules_explored;
        if (result.deadlock) {
          ++stats.deadlocks;
        }
        stats.last_choices = result.choices;
        if (!sink(result, bound)) {
          stats.stopped_by_sink = true;
          return stats;
        }
      }
      if (stats.schedules_explored + stats.schedules_pruned >= options_.max_schedules) {
        stats.budget_exhausted = true;
        return stats;
      }
      if (!dfs.AdvanceToNext()) {
        break;
      }
    }
  }
  return stats;
}

PctStrategy::PctStrategy(uint32_t num_threads, uint32_t depth_estimate,
                         uint32_t num_change_points, uint64_t seed)
    : num_threads_(num_threads),
      depth_estimate_(depth_estimate),
      num_change_points_(num_change_points),
      rng_(seed) {
  Reset();
}

void PctStrategy::Reset() {
  // Initial priorities live above every change-point priority; the k-th
  // change point demotes the running thread to num_change_points - k, so
  // later demotions sink below earlier ones.
  priority_.assign(num_threads_, 0);
  for (uint32_t i = 0; i < num_threads_; ++i) {
    priority_[i] = (rng_.Next() | (1ull << 63));
  }
  change_points_.clear();
  for (uint32_t k = 0; k < num_change_points_; ++k) {
    change_points_.push_back(static_cast<uint32_t>(rng_.NextBelow(
        depth_estimate_ > 1 ? depth_estimate_ : 1)));
  }
  next_low_priority_ = num_change_points_;
}

uint32_t PctStrategy::Pick(const SchedulePoint& point) {
  OPTSCHED_CHECK(!point.enabled.empty());
  auto highest = [&] {
    uint32_t best = point.enabled[0];
    for (uint32_t c : point.enabled) {
      if (priority_[c] > priority_[best]) {
        best = c;
      }
    }
    return best;
  };
  if (std::find(change_points_.begin(), change_points_.end(), point.step) !=
      change_points_.end()) {
    priority_[highest()] = next_low_priority_ > 0 ? --next_low_priority_ : 0;
  }
  return highest();
}

uint32_t DefaultPick(const SchedulePoint& point) {
  if (point.last_still_enabled) {
    return point.last_running;
  }
  return point.enabled.front();
}

uint32_t ReplayStrategy::Pick(const SchedulePoint& point) {
  if (index_ < choices_.size()) {
    const uint32_t wanted = choices_[index_];
    if (std::find(point.enabled.begin(), point.enabled.end(), wanted) != point.enabled.end()) {
      ++index_;
      return wanted;
    }
    diverged_ = true;
    index_ = choices_.size();
  }
  return DefaultPick(point);
}

ExecutionResult ReplayChoices(const BodyFactory& make_bodies,
                              const std::vector<uint32_t>& choices,
                              Scheduler::Options options) {
  ReplayStrategy replay(choices);
  Scheduler scheduler(options);
  return scheduler.Run(make_bodies(), replay);
}

std::vector<uint32_t> MinimizeCounterexample(
    const BodyFactory& make_bodies, const std::vector<uint32_t>& choices,
    const std::function<bool(const ExecutionResult&)>& violates,
    Scheduler::Options options) {
  std::vector<uint32_t> actual;
  auto check = [&](const std::vector<uint32_t>& hints) {
    const ExecutionResult result = ReplayChoices(make_bodies, hints, options);
    if (violates(result)) {
      actual = result.choices;
      return true;
    }
    return false;
  };

  if (!check(choices)) {
    // Not reproducible under replay; hand the caller's sequence back rather
    // than "minimize" something else.
    return choices;
  }

  // Tail truncation: shortest prefix of hints whose default-rule completion
  // still violates. Violation need not be monotone in prefix length, so this
  // is a heuristic first cut; the deletion pass below recovers stragglers.
  std::vector<uint32_t> hints = actual;
  size_t lo = 0;
  size_t hi = hints.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (check(std::vector<uint32_t>(hints.begin(), hints.begin() + mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  hints.resize(hi);

  // Greedy single-choice deletion until a fixed point.
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = 0; i < hints.size(); ++i) {
      std::vector<uint32_t> candidate = hints;
      candidate.erase(candidate.begin() + i);
      if (check(candidate)) {
        hints = std::move(candidate);
        improved = true;
        break;
      }
    }
  }

  // Final pass pins `actual` to the minimized execution's exact sequence, so
  // the returned schedule replays without divergence.
  OPTSCHED_CHECK(check(hints));
  return actual;
}

}  // namespace optsched::mc
