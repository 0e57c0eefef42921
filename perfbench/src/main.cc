// The repository benchmark: three executor workloads, each printing its
// configuration and diagnostics and, as the last line, one JSON result
// object with every metric by name and unit (perfbench/run.py tabulates it).
//
//   perfbench_bin --workload <fib_fine|burst_locked|serve_zipf> --seed <n>
//                 --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant (forwarding seams around each layer) plus the direct-drive layer
// probes and reports the per-layer metrics. Exits 1 when any output check
// fails, 2 on bad arguments. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kWarmUpSeconds = 2.5;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload "
               "<fib_fine|burst_locked|serve_zipf> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) {
    return Usage("flags take one value each; --seconds must be positive");
  }

  if (args.workload != "fib_fine" && args.workload != "burst_locked" &&
      args.workload != "serve_zipf") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  WarmUpCpus(kWarmUpSeconds);
  Outcome out;
  if (args.workload == "fib_fine") {
    out = RunFibFine(args);
  } else if (args.workload == "burst_locked") {
    out = RunBurstLocked(args);
  } else {
    out = RunServeZipf(args);
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              AvailableCpus());
  for (const std::string& fact : out.config) {
    std::printf("config %s\n", fact.c_str());
  }
  for (const std::string& note : out.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json = Format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                            out.correct ? "true" : "false",
                            static_cast<unsigned long long>(out.attempted),
                            static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // JSON has no NaN or infinity; a ratio over an empty sample reads 0.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                   JsonEscape(m.name).c_str(), value, JsonEscape(m.unit).c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
