// Shared plumbing for the benchmark workloads: clocks, the calibrated spin
// body, order statistics, and the metric/result record every workload fills.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

// The executor's calibrated work loop (src/runtime/executor.cc DoWork),
// reproduced so traced runs can execute flat items inside a span.
void Spin(uint64_t units, uint64_t spin_per_unit);
// One Spin(units, spin_per_unit) call timed alone, ns (median of 5 repeats).
double SpinNs(uint64_t units, uint64_t spin_per_unit);

// CPUs this process may run on (what `nproc` prints).
uint32_t AvailableCpus();

// Keeps every available CPU busy for `seconds`. On a virtual machine whose
// CPUs were idle, the first seconds of load run with stalls of several ms;
// every run pays this before its set-up so measurements start warm.
void WarmUpCpus(double seconds);

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main: the correctness verdict, the
// attempted/failed item ledger, metrics, run configuration and diagnostics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> config;  // "key=value" facts about the run
  std::vector<std::string> notes;   // human-readable diagnostics

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
