// MetricsRegistry: one named, mergeable view over the counters that are
// otherwise scattered across BalanceStats, StealCounters, WorkerStats,
// FaultStats and WatchdogStats.
//
// Each producer exports its counters under a dotted prefix (e.g.
// "executor.worker3.steals.successes"); registries merge by summing values
// with the same name, so per-worker snapshots aggregate into machine-wide
// totals and repeated runs accumulate. A name written through Max records a
// maximum (a longest streak) and merges by keeping the larger value. Values
// are doubles: counters fit exactly up to 2^53 and ratios (utilization,
// wasted fraction) need no second type.
//
// Thread safety: internally synchronized — every method may be called from
// any thread (a supervisor exporting mid-run while the main thread merges,
// for example). The map is control-plane state guarded by a base::Mutex and
// checked under clang -Wthread-safety; the scheduler hot path never touches
// a registry.

#ifndef OPTSCHED_SRC_TRACE_METRICS_H_
#define OPTSCHED_SRC_TRACE_METRICS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace optsched::trace {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Overwrites (or creates) `name`.
  void Set(const std::string& name, double value) OPTSCHED_EXCLUDES(lock_);
  // Adds `delta` to `name`, creating it at zero first.
  void Add(const std::string& name, double delta) OPTSCHED_EXCLUDES(lock_);
  // Raises `name` to at least `value`, creating it at zero first, and marks
  // it a maximum, which Merge combines by keeping the larger value.
  void Max(const std::string& name, double value) OPTSCHED_EXCLUDES(lock_);
  // 0.0 when absent.
  double Get(const std::string& name) const OPTSCHED_EXCLUDES(lock_);
  bool Has(const std::string& name) const OPTSCHED_EXCLUDES(lock_);

  // Value-wise sum (maximum on a name either side marked through Max): names
  // present in either side survive. Snapshots `other` first, so the two
  // locks are never held together (no ordering to violate).
  void Merge(const MetricsRegistry& other) OPTSCHED_EXCLUDES(lock_);

  size_t size() const OPTSCHED_EXCLUDES(lock_);
  // Consistent point-in-time copy of every value.
  std::map<std::string, double> values() const OPTSCHED_EXCLUDES(lock_);

  // One "name=value" per line, name-sorted (std::map order).
  std::string ToString() const OPTSCHED_EXCLUDES(lock_);
  // Flat JSON object: {"name":value,...}, name-sorted.
  std::string ToJson() const OPTSCHED_EXCLUDES(lock_);

 private:
  mutable Mutex lock_;
  std::map<std::string, double> values_ OPTSCHED_GUARDED_BY(lock_);
  std::set<std::string> maxima_ OPTSCHED_GUARDED_BY(lock_);
};

}  // namespace optsched::trace

#endif  // OPTSCHED_SRC_TRACE_METRICS_H_
