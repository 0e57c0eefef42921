// The benchmark's workloads and its direct-drive layer probes.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>

#include "common.h"

namespace perfbench {

// Closed-system fork-join drains of fib on the chase_lev backend.
Outcome RunFibFine(const RunArgs& args);
// Closed-system drains of flat items seeded on queue 0, default config.
Outcome RunBurstLocked(const RunArgs& args);
// Open-loop keyed arrivals through the ingress router, fixed rate ladder.
Outcome RunServeZipf(const RunArgs& args);

// CPU warm-up before the single-threaded probes: the calling thread mostly
// slept while it supervised the executor runs.
inline constexpr double kProbeWarmUpSeconds = 1.0;

// Single-threaded probes of the runqueue, selection snapshot, steal, mailbox
// and router layers on both backends at `workers` queues (probe.* metrics).
void RunLayerProbes(uint32_t workers, Outcome& out);
// Single-threaded TaskGraph::RunItemOn over a queue-backed spawn sink, no
// executor, both backends (task.direct_ns_per_task.* metrics).
void RunTaskProbes(uint64_t n, uint64_t cutoff, Outcome& out);

// Arena nodes a fib(n) graph with `cutoff` allocates: 3 * I(n) + 1, where
// I(n) = I(n - 1) + I(n - 2) + 1 and I(n < cutoff) = 0 (src/workload).
uint32_t FibArenaNodes(uint64_t n, uint64_t cutoff);
// Extra arena room for `workers` workers: each grabs 16-node chunks, and the
// unused tails of live chunks are never handed out.
inline uint32_t FibArenaSlack(uint32_t workers) { return 16 * (workers + 1); }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
