// Counter tables: each stats struct declares its integer counters once.
//
// A struct S lists its uint64_t counters in
//   static constexpr stats::Counter<S> kCounters[] = {{"name", &S::field}, ...};
// where "name" is the name the counter is exported and printed under. A
// struct that embeds another counter struct splices that struct's table in
// under "<name>." by also declaring
//   static constexpr stats::Nested<S, Inner> kNested = {"name", &S::inner};
// Everything that walks counters — field-wise sums, registry export and
// "name=value" printing — derives from the table, so the three cannot drift
// apart or forget a counter. A row that records a maximum rather than a
// count (a longest streak) says so with a third entry,
//   {"name", &S::field, stats::Aggregate::kMax},
// and is combined by taking the larger value instead of adding. Histograms
// and summaries are not counters and keep their own merge. A struct holding
// nothing but counters pins its row count with
//   static_assert(stats::CoversEveryField<S>());
// so a field added without a row fails the build.

#ifndef OPTSCHED_SRC_STATS_COUNTERS_H_
#define OPTSCHED_SRC_STATS_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

namespace optsched::stats {

// How a row combines across workers, shards and runs.
enum class Aggregate { kSum, kMax };

template <typename S>
struct Counter {
  const char* name;
  uint64_t S::*field;
  Aggregate aggregate = Aggregate::kSum;
};

template <typename S, typename Inner>
struct Nested {
  const char* name;
  Inner S::*field;
};

template <typename S>
constexpr bool CoversEveryField() {
  return std::size(S::kCounters) * sizeof(uint64_t) == sizeof(S);
}

// Calls fn(name, value, aggregate) for every counter of `s`, names prefixed
// by `prefix`.
template <typename S, typename Fn>
void ForEachCounter(const S& s, const std::string& prefix, const Fn& fn) {
  for (const Counter<S>& row : S::kCounters) {
    fn(prefix + row.name, s.*row.field, row.aggregate);
  }
  if constexpr (requires { S::kNested; }) {
    ForEachCounter(s.*S::kNested.field, prefix + S::kNested.name + ".", fn);
  }
}

// Field-wise `into += from` over every counter (the larger of the two on a
// kMax row).
template <typename S>
void AddCounters(S& into, const S& from) {
  for (const Counter<S>& row : S::kCounters) {
    uint64_t& value = into.*row.field;
    value = row.aggregate == Aggregate::kMax ? std::max(value, from.*row.field)
                                             : value + from.*row.field;
  }
  if constexpr (requires { S::kNested; }) {
    AddCounters(into.*S::kNested.field, from.*S::kNested.field);
  }
}

// Sum over every counter (e.g. "did the fault plan inject anything").
template <typename S>
uint64_t CounterSum(const S& s) {
  uint64_t sum = 0;
  ForEachCounter(s, "", [&](const std::string&, uint64_t value, Aggregate) { sum += value; });
  return sum;
}

// Adds every counter to `registry` (a trace::MetricsRegistry) as
// "<prefix>.<name>"; a kMax row goes in through Max, so merging registries
// keeps its larger value.
template <typename S, typename Registry>
void ExportCounters(const S& s, Registry& registry, const std::string& prefix) {
  ForEachCounter(s, prefix + ".",
                 [&](const std::string& name, uint64_t value, Aggregate aggregate) {
                   if (aggregate == Aggregate::kMax) {
                     registry.Max(name, static_cast<double>(value));
                   } else {
                     registry.Add(name, static_cast<double>(value));
                   }
                 });
}

// "label{name=value name=value ...}" over every counter.
template <typename S>
std::string FormatCounters(const S& s, const std::string& label) {
  std::string out;
  ForEachCounter(s, "", [&](const std::string& name, uint64_t value, Aggregate) {
    out += (out.empty() ? "" : " ") + name + "=" + std::to_string(value);
  });
  return label + "{" + out + "}";
}

}  // namespace optsched::stats

#endif  // OPTSCHED_SRC_STATS_COUNTERS_H_
