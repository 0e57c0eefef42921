#include "src/trace/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/base/str.h"

namespace optsched::trace {

void MetricsRegistry::Set(const std::string& name, double value) {
  LockGuard guard(lock_);
  values_[name] = value;
}

void MetricsRegistry::Add(const std::string& name, double delta) {
  LockGuard guard(lock_);
  values_[name] += delta;
}

void MetricsRegistry::Max(const std::string& name, double value) {
  LockGuard guard(lock_);
  maxima_.insert(name);
  double& slot = values_[name];
  slot = std::max(slot, value);
}

double MetricsRegistry::Get(const std::string& name) const {
  LockGuard guard(lock_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::Has(const std::string& name) const {
  LockGuard guard(lock_);
  return values_.count(name) > 0;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  // Snapshot first: registries have no global rank, so holding both locks
  // would be an unordered dual acquisition — exactly the discipline bug the
  // runtime's DualLockGuard exists to prevent. (Also makes self-merge safe.)
  std::map<std::string, double> values;
  std::set<std::string> maxima;
  {
    LockGuard other_guard(other.lock_);
    values = other.values_;
    maxima = other.maxima_;
  }
  LockGuard guard(lock_);
  maxima_.insert(maxima.begin(), maxima.end());
  for (const auto& [name, value] : values) {
    double& slot = values_[name];
    slot = maxima_.count(name) > 0 ? std::max(slot, value) : slot + value;
  }
}

size_t MetricsRegistry::size() const {
  LockGuard guard(lock_);
  return values_.size();
}

std::map<std::string, double> MetricsRegistry::values() const {
  LockGuard guard(lock_);
  return values_;
}

namespace {

// Counters print as integers, ratios keep their fraction.
std::string ValueToString(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.0e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.6g", v);
}

}  // namespace

std::string MetricsRegistry::ToString() const {
  LockGuard guard(lock_);
  std::string out;
  for (const auto& [name, value] : values_) {
    out += name;
    out += '=';
    out += ValueToString(value);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  LockGuard guard(lock_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : values_) {
    out += StrFormat("%s\"%s\":%s", first ? "" : ",", JsonEscape(name).c_str(),
                     ValueToString(value).c_str());
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace optsched::trace
