// The executor's view of an ingress front end (docs/serving.md).
//
// Work used to enter the executor only through Submit/SubmitBatch from the
// benchmark thread. A serving front end instead admits items into per-worker
// bounded mailboxes (src/ingress) and the OWNER moves them into its own
// runqueue at round boundaries — producer threads never touch a runqueue
// lock, so ingress contention cannot serialize the steal protocol.
//
// This interface is the whole seam between the two layers, kept in
// src/runtime so the dependency points upward (ingress implements it;
// the runtime knows nothing about shards, sessions or admission policy):
//
//   * Drain(worker, out, max)  — owner-side: move up to `max` items admitted
//     for `worker` into `out`. Called only by worker `worker`'s thread (or by
//     the harness standing in for it) — MPSC, the owner is the single
//     consumer.
//   * PendingFor(worker)       — lock-free: admitted-but-undrained item count.
//     Consulted by the worker to decide whether a drain is worthwhile. The
//     watchdog needs no view of the mailboxes: an idle worker drains its
//     own at every round boundary (docs/robustness.md).

#ifndef OPTSCHED_SRC_RUNTIME_INGRESS_SOURCE_H_
#define OPTSCHED_SRC_RUNTIME_INGRESS_SOURCE_H_

#include <cstdint>
#include <vector>

namespace optsched::runtime {

struct WorkItem;

class IngressSource {
 public:
  virtual ~IngressSource() = default;

  // Moves up to `max_items` items admitted for `worker` into `out`
  // (appending). Returns the number moved. Single consumer per worker.
  virtual uint32_t Drain(uint32_t worker, std::vector<WorkItem>& out,
                         uint32_t max_items) = 0;

  // Admitted-but-undrained items for `worker`; lock-free, may be stale by a
  // concurrent push or drain (same optimism as the load snapshot).
  virtual int64_t PendingFor(uint32_t worker) const = 0;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_INGRESS_SOURCE_H_
