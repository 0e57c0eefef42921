#include "src/ingress/router.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "src/base/check.h"
#include "src/base/str.h"

namespace optsched::ingress {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// FNV-1a over the key's bytes: stable (the session->home mapping must not
// change across runs or processes) and well-mixed for sequential ids, which
// is what the benchmark generates.
uint64_t HashSessionKey(uint64_t key) {
  uint64_t hash = 1469598103934665603ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= (key >> (i * 8)) & 0xffull;
    hash *= 1099511628211ull;
  }
  return hash;
}

const char* AdmissionPolicyNames[] = {"shed", "spill", "block"};

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  return AdmissionPolicyNames[static_cast<int>(policy)];
}

AdmissionPolicy AdmissionPolicyFromName(const char* name) {
  const std::string spelled(name == nullptr ? "" : name);
  if (spelled == "spill" || spelled == "spill-to-sibling") {
    return AdmissionPolicy::kSpillToSibling;
  }
  if (spelled == "block" || spelled == "block-with-deadline") {
    return AdmissionPolicy::kBlockWithDeadline;
  }
  return AdmissionPolicy::kShed;
}

IngressRouter::IngressRouter(MailboxSet& mailboxes, const RouterConfig& config)
    : mailboxes_(mailboxes), config_(config), start_ns_(NowNs()) {
  OPTSCHED_CHECK(config.num_shards > 0);
  if (config_.fault_plan.mailbox_enqueue_fail_rate > 0 ||
      config_.fault_plan.producer_stall_rate > 0) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.fault_plan, config_.num_shards);
  }
  shards_.reserve(config_.num_shards);
  for (uint32_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->trace = trace::TraceBuffer(config_.trace_capacity_per_shard);
    shards_.push_back(std::move(shard));
  }
}

uint32_t IngressRouter::HomeWorker(uint64_t session_key) const {
  return static_cast<uint32_t>(HashSessionKey(session_key) % mailboxes_.num_mailboxes());
}

const AdmissionConfig& IngressRouter::admission_for(uint32_t shard) const {
  if (shard < config_.shard_admission.size()) {
    return config_.shard_admission[shard];
  }
  return config_.admission;
}

const ShardStats& IngressRouter::shard_stats(uint32_t shard) const {
  OPTSCHED_CHECK(shard < shards_.size());
  return shards_[shard]->stats;
}

ShardStats IngressRouter::TotalStats() const {
  ShardStats total;
  for (const auto& shard : shards_) {
    stats::AddCounters(total, shard->stats);
    total.admission_ns.Merge(shard->stats.admission_ns);
  }
  return total;
}

bool IngressRouter::TryPushFaulted(uint32_t shard_idx, uint32_t worker, const WorkItem& item,
                                   uint64_t now_us) {
  Shard& shard = *shards_[shard_idx];
  if (injector_ != nullptr && injector_->FailMailboxEnqueue(shard_idx)) {
    ++shard.stats.enqueue_faults;
    shard.trace.Record({.time = now_us,
                        .type = trace::EventType::kEnqueueFault,
                        .cpu = worker,
                        .task = item.id});
    return false;
  }
  return mailboxes_.Push(worker, item);
}

AdmitResult IngressRouter::Offer(uint32_t shard_idx, uint64_t session_key,
                                 const WorkItem& item) {
  OPTSCHED_CHECK(shard_idx < shards_.size());
  Shard& shard = *shards_[shard_idx];
  const AdmissionConfig& admission = admission_for(shard_idx);
  const auto trace_now_us = [&] { return (NowNs() - start_ns_) / 1000; };

  // Injected stall first: a stuck connection handler delays the offer
  // itself, so the stall is visible downstream as added sojourn, not as a
  // mailbox anomaly.
  if (injector_ != nullptr && injector_->StallProducer(shard_idx)) {
    const uint64_t stall_us = config_.fault_plan.producer_stall_us;
    shard.trace.Record({.time = trace_now_us(),
                        .type = trace::EventType::kProducerStall,
                        .cpu = HomeWorker(session_key),
                        .task = item.id,
                        .detail = static_cast<int64_t>(stall_us)});
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }

  ++shard.stats.offered;
  const uint32_t home = HomeWorker(session_key);
  const uint64_t t0 = NowNs();
  AdmitResult result;
  result.worker = home;

  if (TryPushFaulted(shard_idx, home, item, trace_now_us())) {
    result.outcome = AdmitOutcome::kAdmittedHome;
    ++shard.stats.admitted_home;
  } else {
    switch (admission.policy) {
      case AdmissionPolicy::kShed:
        break;  // terminal: result stays kShed
      case AdmissionPolicy::kSpillToSibling: {
        const uint32_t workers = mailboxes_.num_mailboxes();
        for (uint32_t hop = 1; hop <= admission.max_spill_hops; ++hop) {
          const uint32_t target = (home + hop) % workers;
          if (target == home) {
            break;  // fewer workers than hops: wrapped all the way around
          }
          if (TryPushFaulted(shard_idx, target, item, trace_now_us())) {
            result.outcome = AdmitOutcome::kAdmittedSpill;
            result.worker = target;
            ++shard.stats.admitted_spill;
            shard.trace.Record({.time = trace_now_us(),
                                .type = trace::EventType::kAdmissionSpill,
                                .cpu = home,
                                .task = item.id,
                                .other_cpu = target});
            break;
          }
        }
        break;
      }
      case AdmissionPolicy::kBlockWithDeadline: {
        const uint64_t deadline_ns = t0 + admission.block_deadline_us * 1000;
        while (NowNs() < deadline_ns) {
          std::this_thread::sleep_for(std::chrono::microseconds(admission.block_poll_us));
          if (TryPushFaulted(shard_idx, home, item, trace_now_us())) {
            // Late admission at home: ordering and locality preserved, paid
            // for with the shard's own time.
            result.outcome = AdmitOutcome::kAdmittedHome;
            ++shard.stats.admitted_home;
            break;
          }
        }
        if (result.outcome == AdmitOutcome::kShed) {
          ++shard.stats.block_timeouts;
          shard.trace.Record({.time = trace_now_us(),
                              .type = trace::EventType::kAdmissionBlock,
                              .cpu = home,
                              .task = item.id,
                              .detail = static_cast<int64_t>((NowNs() - t0) / 1000)});
        }
        break;
      }
    }
  }

  if (result.outcome == AdmitOutcome::kShed) {
    ++shard.stats.shed;
    shard.trace.Record({.time = trace_now_us(),
                        .type = trace::EventType::kAdmissionShed,
                        .cpu = home,
                        .task = item.id,
                        .detail = mailboxes_.PendingFor(home)});
  }
  result.admit_ns = NowNs() - t0;
  shard.stats.admission_ns.Add(result.admit_ns);
  return result;
}

std::vector<trace::TraceEvent> IngressRouter::CollectTrace() const {
  std::vector<trace::TraceEvent> all;
  for (const auto& shard : shards_) {
    const auto& events = shard->trace.events();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const trace::TraceEvent& a, const trace::TraceEvent& b) { return a.time < b.time; });
  return all;
}

void IngressRouter::ExportMetrics(trace::MetricsRegistry& metrics) const {
  const ShardStats total = TotalStats();
  stats::ExportCounters(total, metrics, "ingress");
  metrics.Set("ingress.admission_ns.p50", total.admission_ns.Percentile(0.50));
  metrics.Set("ingress.admission_ns.p99", total.admission_ns.Percentile(0.99));
  for (uint32_t w = 0; w < mailboxes_.num_mailboxes(); ++w) {
    const BoundedMailbox& mailbox = mailboxes_.mailbox(w);
    metrics.Set(StrFormat("ingress.mailbox%u.depth", w),
                static_cast<double>(mailbox.ApproxDepth()));
    metrics.Add(StrFormat("ingress.mailbox%u.pushed", w),
                static_cast<double>(mailbox.total_pushed()));
    metrics.Add(StrFormat("ingress.mailbox%u.rejected_full", w),
                static_cast<double>(mailbox.total_rejected_full()));
  }
  if (injector_ != nullptr) {
    stats::ExportCounters(injector_->stats(), metrics, "ingress.faults");
  }
}

}  // namespace optsched::ingress
