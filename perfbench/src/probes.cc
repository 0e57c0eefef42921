// Direct-drive layer probes. Each one calls a module's public functions from
// a single thread, so its cost is the layer alone, with no contention: the
// baseline that splits a workload's gap or steal time by layer.

#include <algorithm>
#include <optional>
#include <vector>

#include "src/core/policies/thread_count.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/concurrent_machine.h"
#include "src/task/task.h"
#include "src/workload/forkjoin.h"
#include "workloads.h"

namespace perfbench {
namespace {

using optsched::runtime::ConcurrentMachine;
using optsched::runtime::ConcurrentRunQueue;
using optsched::runtime::QueueBackend;
using optsched::runtime::WorkItem;

constexpr int kRepeats = 5;  // each probe reports the median of its repeats
constexpr uint32_t kBatch = 64;

std::vector<WorkItem> Items(uint32_t count) {
  std::vector<WorkItem> items(count);
  for (uint32_t i = 0; i < count; ++i) {
    items[i].id = i + 1;
  }
  return items;
}

// PushBatchOwner per item, and PopForRun + FinishCurrent per item.
void ProbeQueue(QueueBackend backend, const char* tag, Outcome& out) {
  ConcurrentRunQueue queue(backend);
  const std::vector<WorkItem> batch = Items(kBatch);
  std::vector<double> push_ns;
  std::vector<double> pop_ns;
  for (int r = 0; r < kRepeats; ++r) {
    uint64_t push_total = 0;
    uint64_t pop_total = 0;
    constexpr int kRounds = 4000;
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t t0 = NowNs();
      queue.PushBatchOwner(batch.data(), kBatch);
      const uint64_t t1 = NowNs();
      for (uint32_t i = 0; i < kBatch; ++i) {
        if (!queue.PopForRun().has_value()) {
          out.Fail(Format("probe %s: queue lost an item", tag));
          return;
        }
        queue.FinishCurrent();
      }
      pop_total += NowNs() - t1;
      push_total += t1 - t0;
    }
    const double ops = static_cast<double>(kRounds) * kBatch;
    push_ns.push_back(static_cast<double>(push_total) / ops);
    pop_ns.push_back(static_cast<double>(pop_total) / ops);
  }
  out.Add(Format("probe.%s.push_ns", tag), Median(push_ns), "ns");
  out.Add(Format("probe.%s.pop_finish_ns", tag), Median(pop_ns), "ns");
}

void ProbeSnapshot(QueueBackend backend, const char* tag, uint32_t workers, Outcome& out) {
  ConcurrentMachine machine(workers, {.backend = backend});
  const std::vector<WorkItem> batch = Items(8);
  for (uint32_t q = 0; q < workers; ++q) {
    machine.queue(q).PushBatchOwner(batch.data(), static_cast<uint32_t>(batch.size()));
  }
  optsched::LoadSnapshot snapshot;
  std::vector<double> ns;
  constexpr int kCalls = 200000;
  for (int r = 0; r < kRepeats; ++r) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      machine.SnapshotInto(snapshot);
    }
    ns.push_back(static_cast<double>(NowNs() - t0) / kCalls);
  }
  out.Add(Format("probe.%s.snapshot_ns", tag), Median(ns), "ns");
}

// A successful steal: thief 0 takes one item from a loaded victim 1, then
// runs it so the thief stays empty. A failed steal: the snapshot claims the
// victim is loaded but its queue is empty, so the attempt passes the filter
// and fails in the stealing phase (re-check or empty deque). Each call is
// timed on its own; the figure includes one clock read.
void ProbeSteal(QueueBackend backend, const char* tag, uint32_t workers, Outcome& out) {
  const auto policy = optsched::policies::MakeThreadCount();
  optsched::Rng rng(7);
  const optsched::runtime::StealOptions options;
  std::vector<double> ok_ns;
  std::vector<double> fail_ns;
  constexpr uint32_t kSteals = 4000;
  for (int r = 0; r < kRepeats; ++r) {
    ConcurrentMachine machine(std::max(workers, 2u),
                              {.backend = backend, .deque_capacity = 2 * kSteals});
    const std::vector<WorkItem> load = Items(kSteals + 64);
    machine.queue(1).PushBatchOwner(load.data(), static_cast<uint32_t>(load.size()));
    optsched::LoadSnapshot snapshot;
    optsched::runtime::StealScratch scratch;
    optsched::runtime::StealCounters counters;
    std::vector<double> per_call;
    for (uint32_t i = 0; i < kSteals; ++i) {
      machine.SnapshotInto(snapshot);
      const uint64_t t0 = NowNs();
      const bool stole = machine.TrySteal(*policy, 0, snapshot, rng, options, counters, nullptr,
                                          nullptr, nullptr, &scratch);
      per_call.push_back(static_cast<double>(NowNs() - t0));
      if (!stole || !machine.queue(0).PopForRun().has_value()) {
        out.Fail(Format("probe %s: steal from a loaded victim failed", tag));
        return;
      }
      machine.queue(0).FinishCurrent();
    }
    ok_ns.push_back(Median(std::move(per_call)));

    ConcurrentMachine empty(std::max(workers, 2u), {.backend = backend});
    empty.SnapshotInto(snapshot);
    snapshot.task_count[1] = 64;
    snapshot.weighted_load[1] = 64 * 1024;
    per_call.clear();
    for (uint32_t i = 0; i < kSteals; ++i) {
      const uint64_t t0 = NowNs();
      const bool stole = empty.TrySteal(*policy, 0, snapshot, rng, options, counters, nullptr,
                                        nullptr, nullptr, &scratch);
      per_call.push_back(static_cast<double>(NowNs() - t0));
      if (stole) {
        out.Fail(Format("probe %s: steal from an empty victim succeeded", tag));
        return;
      }
    }
    fail_ns.push_back(Median(std::move(per_call)));
  }
  out.Add(Format("probe.%s.steal_ok_ns", tag), Median(ok_ns), "ns");
  out.Add(Format("probe.%s.steal_fail_ns", tag), Median(fail_ns), "ns");
}

// MailboxSet::Push per item and MailboxSet::Drain per item.
void ProbeMailbox(uint32_t workers, Outcome& out) {
  optsched::ingress::MailboxSet mailboxes(workers, 4096);
  const std::vector<WorkItem> batch = Items(kBatch);
  std::vector<WorkItem> drained;
  drained.reserve(kBatch);
  std::vector<double> push_ns;
  std::vector<double> drain_ns;
  for (int r = 0; r < kRepeats; ++r) {
    uint64_t push_total = 0;
    uint64_t drain_total = 0;
    constexpr int kRounds = 4000;
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t t0 = NowNs();
      for (const WorkItem& item : batch) {
        mailboxes.Push(0, item);
      }
      const uint64_t t1 = NowNs();
      drained.clear();
      if (mailboxes.Drain(0, drained, kBatch) != kBatch) {
        out.Fail("probe mailbox: drain lost items");
        return;
      }
      drain_total += NowNs() - t1;
      push_total += t1 - t0;
    }
    const double ops = static_cast<double>(kRounds) * kBatch;
    push_ns.push_back(static_cast<double>(push_total) / ops);
    drain_ns.push_back(static_cast<double>(drain_total) / ops);
  }
  out.Add("probe.mailbox.push_ns", Median(push_ns), "ns");
  out.Add("probe.mailbox.drain_ns", Median(drain_ns), "ns");
}

// IngressRouter::Offer per item (one shard, shed policy): the admission
// path of the serving front end, home hashing included.
void ProbeRouter(uint32_t workers, Outcome& out) {
  optsched::ingress::MailboxSet mailboxes(workers, 4096);
  optsched::ingress::RouterConfig config;
  config.num_shards = 1;
  config.admission.policy = optsched::ingress::AdmissionPolicy::kShed;
  optsched::ingress::IngressRouter router(mailboxes, config);
  const std::vector<WorkItem> batch = Items(kBatch);
  std::vector<WorkItem> drained;
  std::vector<double> offer_ns;
  uint64_t session = 0;
  for (int r = 0; r < kRepeats; ++r) {
    uint64_t offer_total = 0;
    constexpr int kRounds = 4000;
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t t0 = NowNs();
      for (const WorkItem& item : batch) {
        router.Offer(0, ++session, item);
      }
      offer_total += NowNs() - t0;
      drained.clear();
      for (uint32_t w = 0; w < workers; ++w) {
        mailboxes.Drain(w, drained, kBatch);
      }
      if (drained.size() != kBatch) {
        out.Fail("probe router: offered items were not admitted");
        return;
      }
    }
    offer_ns.push_back(static_cast<double>(offer_total) / (static_cast<double>(kRounds) * kBatch));
  }
  out.Add("probe.router.offer_ns", Median(offer_ns), "ns");
}

// Spawn batches land on one queue through its owner push path.
class QueueSink final : public optsched::task::SpawnSink {
 public:
  explicit QueueSink(ConcurrentRunQueue& queue) : queue_(queue) {}
  void SubmitBatch(uint32_t /*worker*/, const WorkItem* items, uint32_t count) override {
    queue_.PushBatchOwner(items, count);
  }

 private:
  ConcurrentRunQueue& queue_;
};

}  // namespace

uint32_t FibArenaNodes(uint64_t n, uint64_t cutoff) {
  std::vector<uint64_t> internal(n + 1, 0);
  for (uint64_t i = 0; i <= n; ++i) {
    internal[i] = i < cutoff ? 0 : internal[i - 1] + internal[i - 2] + 1;
  }
  return static_cast<uint32_t>(3 * internal[n] + 1);
}

void RunLayerProbes(uint32_t workers, Outcome& out) {
  for (const QueueBackend backend : {QueueBackend::kLocked, QueueBackend::kChaseLev}) {
    const char* tag = optsched::runtime::QueueBackendName(backend);
    ProbeQueue(backend, tag, out);
    ProbeSnapshot(backend, tag, workers, out);
    ProbeSteal(backend, tag, workers, out);
  }
  ProbeMailbox(workers, out);
  ProbeRouter(workers, out);
}

void RunTaskProbes(uint64_t n, uint64_t cutoff, Outcome& out) {
  const uint64_t expected = optsched::workload::FibSequential(n);
  optsched::task::TaskGraph graph(
      {.max_workers = 1, .arena_capacity = FibArenaNodes(n, cutoff) + FibArenaSlack(1)});
  for (const QueueBackend backend : {QueueBackend::kLocked, QueueBackend::kChaseLev}) {
    ConcurrentRunQueue queue(backend, 1u << 12);
    QueueSink sink(queue);
    std::vector<double> ns_per_task;
    for (int r = 0; r < kRepeats; ++r) {
      graph.Reset();
      uint64_t result = 0;
      const WorkItem root = optsched::workload::MakeFibRoot(graph, n, cutoff, &result);
      queue.PushBatchOwner(&root, 1);
      uint64_t tasks = 0;
      const uint64_t t0 = NowNs();
      while (std::optional<WorkItem> item = queue.PopForRun()) {
        graph.RunItemOn(*item, 0, sink);
        queue.FinishCurrent();
        ++tasks;
      }
      const uint64_t elapsed = NowNs() - t0;
      if (result != expected || !graph.done() || tasks != FibArenaNodes(n, cutoff)) {
        out.Fail(Format("task probe (%s): fib(%llu) = %llu, want %llu",
                        optsched::runtime::QueueBackendName(backend),
                        static_cast<unsigned long long>(n),
                        static_cast<unsigned long long>(result),
                        static_cast<unsigned long long>(expected)));
        return;
      }
      ns_per_task.push_back(static_cast<double>(elapsed) / static_cast<double>(tasks));
    }
    out.Add(Format("task.direct_ns_per_task.%s", optsched::runtime::QueueBackendName(backend)),
            Median(ns_per_task), "ns");
  }
}

}  // namespace perfbench
