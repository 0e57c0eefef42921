// IngressRouter: the connection-shard side of the serving front end
// (docs/serving.md).
//
// N producer shards (one thread each, lane-owned like FaultInjector lanes)
// accept keyed session work and Offer() it toward the session's HOME worker
// — a stable hash of the session key, so a session's items always target the
// same mailbox and per-session FIFO order is preserved whenever the policy
// admits at home. On a full home mailbox the shard's AdmissionConfig decides
// (admission.h): shed at the edge, spill to a ring-order sibling, or block
// the shard until space or deadline.
//
// Observability is first-class because overload is the normal case this
// subsystem exists for: every shard keeps offered/admitted/spilled/shed
// counters, an admission-latency histogram, and an optional TraceBuffer of
// shed/spill/block/fault events; ExportMetrics flattens all of it into the
// run's MetricsRegistry next to the executor's counters. Fault injection
// (mailbox enqueue failure, stalled producer) draws from a router-owned
// FaultInjector whose lanes are SHARDS, keeping the probes deterministic
// and unsynchronized exactly like the executor's per-worker lanes.

#ifndef OPTSCHED_SRC_INGRESS_ROUTER_H_
#define OPTSCHED_SRC_INGRESS_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/fault.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace optsched::ingress {

struct RouterConfig {
  uint32_t num_shards = 1;
  // Default admission config, used for every shard not covered by
  // `shard_admission` (which may be empty or shorter than num_shards).
  AdmissionConfig admission;
  std::vector<AdmissionConfig> shard_admission;
  // Ingress fault plan; lanes are shards. A plan with no ingress rates
  // attaches no injector.
  fault::FaultPlan fault_plan;
  // Per-shard trace capacity; 0 disables router tracing.
  size_t trace_capacity_per_shard = 0;
};

// Per-shard accounting. Each shard is written by exactly one producer
// thread (the lane-ownership contract); read the set only at quiescence.
// Invariant at quiescence: offered == admitted_home + admitted_spill + shed.
struct alignas(64) ShardStats {
  uint64_t offered = 0;
  uint64_t admitted_home = 0;
  uint64_t admitted_spill = 0;
  uint64_t shed = 0;
  // Deadline expiries under kBlockWithDeadline (every one is also a shed).
  uint64_t block_timeouts = 0;
  // Injected TryPush failures observed by this shard (also counted by the
  // injector itself; kept here so per-shard visibility survives merging).
  uint64_t enqueue_faults = 0;
  // Offer-entry to admit/shed decision, ns.
  stats::LogHistogram admission_ns;

  static constexpr stats::Counter<ShardStats> kCounters[] = {
      {"offered", &ShardStats::offered},
      {"admitted_home", &ShardStats::admitted_home},
      {"admitted_spill", &ShardStats::admitted_spill},
      {"shed", &ShardStats::shed},
      {"block_timeouts", &ShardStats::block_timeouts},
      {"enqueue_faults", &ShardStats::enqueue_faults},
  };
};

class IngressRouter {
 public:
  // `mailboxes` must outlive the router and have one mailbox per worker.
  IngressRouter(MailboxSet& mailboxes, const RouterConfig& config);

  uint32_t num_shards() const { return config_.num_shards; }
  uint32_t num_workers() const { return mailboxes_.num_mailboxes(); }

  // The session's stable home worker.
  uint32_t HomeWorker(uint64_t session_key) const;

  // Offers one item from `shard` (caller = that shard's producer thread).
  // Stamps nothing: the caller owns item.arrival_ns. Applies the shard's
  // admission policy; the result says where the item went (or that it was
  // shed) and how long the decision took.
  AdmitResult Offer(uint32_t shard, uint64_t session_key, const WorkItem& item);

  const AdmissionConfig& admission_for(uint32_t shard) const;
  const ShardStats& shard_stats(uint32_t shard) const;
  // Sums counters and merges histograms across shards (quiescence contract).
  ShardStats TotalStats() const;
  // Null when the plan has no ingress rates.
  fault::FaultInjector* injector() { return injector_.get(); }

  // All shards' trace events, time-sorted (quiescence contract).
  std::vector<trace::TraceEvent> CollectTrace() const;

  // Flattens router state under "ingress." (totals, per-policy outcomes,
  // admission-latency percentiles, mailbox depths/rejections).
  void ExportMetrics(trace::MetricsRegistry& metrics) const;

 private:
  struct alignas(64) Shard {
    ShardStats stats;
    trace::TraceBuffer trace{0};
  };

  // One TryPush against `worker` with the enqueue-fault seam applied.
  bool TryPushFaulted(uint32_t shard, uint32_t worker, const WorkItem& item,
                      uint64_t now_us);

  MailboxSet& mailboxes_;
  RouterConfig config_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t start_ns_ = 0;
};

}  // namespace optsched::ingress

#endif  // OPTSCHED_SRC_INGRESS_ROUTER_H_
