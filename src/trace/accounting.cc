#include "src/trace/accounting.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/str.h"

namespace optsched::trace {

TimeAccountant::TimeAccountant(uint32_t num_cpus)
    : num_cpus_(num_cpus), busy_us_(num_cpus, 0), idle_us_(num_cpus, 0) {}

void TimeAccountant::AdvanceTo(SimTime now, const MachineState& machine) {
  OPTSCHED_CHECK(machine.num_cpus() == num_cpus_);
  if (primed_) {
    OPTSCHED_CHECK_MSG(now >= last_time_, "time must be monotone");
    const SimTime delta = now - last_time_;
    if (delta > 0) {
      bool any_idle = false;
      bool any_overloaded = false;
      for (CpuId cpu = 0; cpu < num_cpus_; ++cpu) {
        const bool busy = machine.core(cpu).current().has_value();
        (busy ? busy_us_[cpu] : idle_us_[cpu]) += delta;
        any_idle |= machine.IsIdle(cpu);
        any_overloaded |= machine.IsOverloaded(cpu);
      }
      if (any_idle && any_overloaded) {
        wasted_us_ += delta;
      }
    }
  } else {
    first_time_ = now;
  }
  last_time_ = now;
  primed_ = true;
}

SimTime TimeAccountant::busy_us(CpuId cpu) const {
  OPTSCHED_CHECK(cpu < busy_us_.size());
  return busy_us_[cpu];
}

SimTime TimeAccountant::idle_us(CpuId cpu) const {
  OPTSCHED_CHECK(cpu < idle_us_.size());
  return idle_us_[cpu];
}

SimTime TimeAccountant::total_busy_us() const {
  SimTime total = 0;
  for (SimTime t : busy_us_) {
    total += t;
  }
  return total;
}

SimTime TimeAccountant::total_idle_us() const {
  SimTime total = 0;
  for (SimTime t : idle_us_) {
    total += t;
  }
  return total;
}

double TimeAccountant::utilization() const {
  const SimTime total = total_busy_us() + total_idle_us();
  return total == 0 ? 0.0 : static_cast<double>(total_busy_us()) / static_cast<double>(total);
}

double TimeAccountant::wasted_fraction() const {
  // Divide by the span actually observed, not absolute time: an accountant
  // primed at t > 0 would otherwise count [0, t) as non-wasted time it never
  // saw, understating the fraction.
  const SimTime elapsed = elapsed_us();
  return elapsed == 0 ? 0.0
                      : static_cast<double>(wasted_us_) / static_cast<double>(elapsed);
}

std::string TimeAccountant::ToString() const {
  return StrFormat("accounting{elapsed=%lluus util=%.2f%% wasted=%lluus (%.2f%%)}",
                   static_cast<unsigned long long>(elapsed_us()), utilization() * 100.0,
                   static_cast<unsigned long long>(wasted_us_), wasted_fraction() * 100.0);
}

void LoadSampler::Sample(SimTime now, const MachineState& machine) {
  samples_.emplace_back(now, machine.Loads(LoadMetric::kTaskCount));
}

std::vector<WastedEpisode> LoadSampler::WastedEpisodes() const {
  std::vector<WastedEpisode> episodes;
  bool in_episode = false;
  for (const auto& [time, loads] : samples_) {
    bool any_idle = false;
    bool any_overloaded = false;
    for (int64_t l : loads) {
      any_idle |= (l == 0);
      any_overloaded |= (l >= 2);
    }
    const bool wasted = any_idle && any_overloaded;
    if (wasted && !in_episode) {
      episodes.push_back(WastedEpisode{.start_us = time, .end_us = time});
      in_episode = true;
    } else if (wasted && in_episode) {
      episodes.back().end_us = time;
    } else if (!wasted) {
      in_episode = false;
    }
  }
  return episodes;
}

ConservationWatchdog::ConservationWatchdog(uint32_t num_cpus, WatchdogConfig config)
    : num_cpus_(num_cpus),
      threshold_(config.threshold_rounds > 0 ? config.threshold_rounds
                                             : DefaultThreshold(num_cpus)),
      streak_(num_cpus, 0),
      persistent_(num_cpus, false) {
  OPTSCHED_CHECK(num_cpus > 0);
}

bool ConservationWatchdog::ObserveRound(SimTime now, const std::vector<int64_t>& loads,
                                        const std::vector<bool>& idle,
                                        TraceBuffer* trace) {
  OPTSCHED_CHECK(loads.size() == num_cpus_);
  OPTSCHED_CHECK(idle.empty() || idle.size() == num_cpus_);
  ++stats_.observations;
  bool any_overloaded = false;
  for (int64_t l : loads) {
    any_overloaded |= (l >= 2);
  }
  bool escalate = false;
  for (CpuId cpu = 0; cpu < num_cpus_; ++cpu) {
    const bool violating = loads[cpu] == 0 && (idle.empty() || idle[cpu]) && any_overloaded;
    if (violating) {
      ++streak_[cpu];
      stats_.max_streak_rounds = std::max(stats_.max_streak_rounds, streak_[cpu]);
      if (!persistent_[cpu] && streak_[cpu] > threshold_) {
        persistent_[cpu] = true;
        ++persistent_cores_;
        ++stats_.persistent_violations;
        escalate = true;
        if (trace != nullptr) {
          trace->Record({.time = now, .type = EventType::kViolation, .cpu = cpu,
                         .detail = static_cast<int64_t>(streak_[cpu])});
        }
      }
      continue;
    }
    if (streak_[cpu] > 0) {
      // Streak ended: classify what it was.
      if (persistent_[cpu]) {
        persistent_[cpu] = false;
        --persistent_cores_;
        ++stats_.recoveries;
        if (trace != nullptr) {
          trace->Record({.time = now, .type = EventType::kRecovery, .cpu = cpu,
                         .detail = static_cast<int64_t>(streak_[cpu])});
        }
      } else {
        ++stats_.transient_violations;
      }
      streak_[cpu] = 0;
    }
  }
  return escalate;
}

void ConservationWatchdog::RecordEscalation(SimTime now, TraceBuffer* trace) {
  ++stats_.escalations;
  if (trace != nullptr) {
    trace->Record({.time = now, .type = EventType::kEscalation, .cpu = 0,
                   .detail = static_cast<int64_t>(stats_.persistent_violations)});
  }
}

void ConservationWatchdog::Finalize() {
  for (CpuId cpu = 0; cpu < num_cpus_; ++cpu) {
    if (streak_[cpu] == 0) {
      continue;
    }
    if (persistent_[cpu]) {
      // Counted at its crossing; it never recovered, so no recovery tally.
      persistent_[cpu] = false;
      --persistent_cores_;
    } else {
      ++stats_.transient_violations;
    }
    streak_[cpu] = 0;
  }
}

uint64_t ConservationWatchdog::streak(CpuId cpu) const {
  OPTSCHED_CHECK(cpu < streak_.size());
  return streak_[cpu];
}

std::string LoadSampler::RenderTimeline(size_t max_columns) const {
  if (samples_.empty()) {
    return "";
  }
  const size_t num_cpus = samples_.front().second.size();
  const size_t stride = std::max<size_t>(1, samples_.size() / max_columns);
  std::string out;
  for (size_t cpu = 0; cpu < num_cpus; ++cpu) {
    out += StrFormat("cpu%-3zu ", cpu);
    for (size_t s = 0; s < samples_.size(); s += stride) {
      const int64_t load = samples_[s].second[cpu];
      char c = '.';
      if (load == 1) {
        c = '#';
      } else if (load >= 2 && load <= 9) {
        c = static_cast<char>('0' + load);
      } else if (load > 9) {
        c = '+';
      }
      out.push_back(c);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace optsched::trace
