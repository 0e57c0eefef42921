#include "common.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Spin(uint64_t units, uint64_t spin_per_unit) {
  volatile uint64_t sink = 0;
  for (uint64_t u = 0; u < units; ++u) {
    for (uint64_t i = 0; i < spin_per_unit; ++i) {
      sink = sink + i;
    }
  }
}

double SpinNs(uint64_t units, uint64_t spin_per_unit) {
  const uint64_t calls = std::max<uint64_t>(1, 200000 / std::max<uint64_t>(units, 1));
  std::vector<double> per_call;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < calls; ++i) {
      Spin(units, spin_per_unit);
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(calls));
  }
  return Median(std::move(per_call));
}

uint32_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

void WarmUpCpus(double seconds) {
  const uint64_t until = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < AvailableCpus(); ++i) {
    threads.emplace_back([until] {
      while (NowNs() < until) {
        Spin(1, 64);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buffer[1024];
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return std::string(buffer);
}

}  // namespace perfbench
