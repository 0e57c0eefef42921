// Tracing seams for the benchmark's traced runs. Every span is taken from
// outside the program, around calls into a module's public interface:
//
//   * CountingPolicy   — forwarding BalancePolicy (core): counts filter,
//                        choice and migration-rule calls.
//   * TracingIngress   — forwarding IngressSource (ingress): stamps the
//                        instant each item is handed back by Drain.
//   * TracingRunner    — TaskRunner shim (runtime -> task): times every item
//                        body. It wraps TaskGraph for fork-join work and, for
//                        flat items (WorkItem::task == kFlatItem), runs the
//                        calibrated spin itself so each body gets a span.
//
// Spans stay in memory until the run ends; the workloads read them
// only after the executor has joined its workers.

#ifndef PERFBENCH_SRC_SHIMS_H_
#define PERFBENCH_SRC_SHIMS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/policy.h"
#include "src/runtime/executor.h"
#include "src/runtime/ingress_source.h"
#include "src/task/task.h"

namespace perfbench {

// Task word marking a flat item that a traced run routes through the runner.
inline constexpr uint64_t kFlatItem = 1;

class CountingPolicy final : public optsched::BalancePolicy {
 public:
  explicit CountingPolicy(std::shared_ptr<const optsched::BalancePolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  optsched::LoadMetric metric() const override { return inner_->metric(); }
  bool CanSteal(const optsched::SelectionView& view, optsched::CpuId stealee) const override;
  optsched::CpuId SelectCore(const optsched::SelectionView& view,
                             const std::vector<optsched::CpuId>& candidates,
                             optsched::Rng& rng) const override;
  bool ShouldMigrate(int64_t task_weight, int64_t victim_load,
                     int64_t thief_load) const override;
  uint32_t StealBatchHint(int64_t victim_load, int64_t thief_load) const override {
    return inner_->StealBatchHint(victim_load, thief_load);
  }

  uint64_t can_steal_calls() const { return can_steal_.load(std::memory_order_relaxed); }
  uint64_t select_calls() const { return select_.load(std::memory_order_relaxed); }
  uint64_t migrate_calls() const { return migrate_.load(std::memory_order_relaxed); }
  uint64_t migrate_accepts() const { return accepts_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const optsched::BalancePolicy> inner_;
  mutable std::atomic<uint64_t> can_steal_{0};
  mutable std::atomic<uint64_t> select_{0};
  mutable std::atomic<uint64_t> migrate_{0};
  mutable std::atomic<uint64_t> accepts_{0};
};

class TracingIngress final : public optsched::runtime::IngressSource {
 public:
  // `drained_at` is indexed by item id and must cover every id admitted.
  TracingIngress(optsched::runtime::IngressSource& inner, std::vector<uint64_t>& drained_at)
      : inner_(inner), drained_at_(drained_at) {}

  uint32_t Drain(uint32_t worker, std::vector<optsched::runtime::WorkItem>& out,
                 uint32_t max_items) override;
  int64_t PendingFor(uint32_t worker) const override { return inner_.PendingFor(worker); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t items() const { return items_.load(std::memory_order_relaxed); }

 private:
  optsched::runtime::IngressSource& inner_;
  std::vector<uint64_t>& drained_at_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> items_{0};
};

// Per-worker body/gap record. `gap_ns` is the worker's time from the end of
// its previous body to the start of this one; kHeadGap marks the first body
// of a run, which has no previous body.
inline constexpr uint32_t kHeadGap = UINT32_MAX;
struct BodySpan {
  uint32_t body_ns = 0;
  uint32_t gap_ns = 0;
};

class TracingRunner final : public optsched::runtime::TaskRunner {
 public:
  // `graph` is null for flat items. `span_capacity` bounds the stored spans
  // per worker (sums keep counting past it). `max_id` sizes the per-item
  // start/end/execution arrays (0 = no per-item record).
  TracingRunner(uint32_t workers, optsched::task::TaskGraph* graph, uint64_t spin_per_unit,
                size_t span_capacity, uint64_t max_id);

  // Resets every worker's "previous body end" to `start_ns`; call before
  // each executor run.
  void BeginRun(uint64_t start_ns);

  void RunItem(const optsched::runtime::WorkItem& item, optsched::runtime::Executor& executor,
               uint32_t worker) override;
  int64_t OutstandingFor(uint32_t worker) const override;

  struct alignas(64) WorkerTrace {
    uint64_t last_end = 0;
    uint64_t first_start = 0;  // of the current run; 0 until the first body
    uint64_t bodies = 0;
    uint64_t body_sum_ns = 0;
    // Time between consecutive bodies of one run (excludes the head gap from
    // the run start to the first body).
    uint64_t inner_gap_sum_ns = 0;
    std::vector<BodySpan> spans;
  };
  const WorkerTrace& worker(uint32_t w) const { return workers_[w]; }
  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }

  // Per-item record (flat items only; ids index the arrays).
  const std::vector<uint64_t>& start_ns() const { return start_; }
  const std::vector<uint64_t>& end_ns() const { return end_; }
  uint32_t executions(uint64_t id) const {
    return executions_[id].load(std::memory_order_relaxed);
  }
  void ClearItems();

 private:
  optsched::task::TaskGraph* graph_;
  uint64_t spin_per_unit_;
  size_t span_capacity_;
  std::vector<WorkerTrace> workers_;
  std::vector<uint64_t> start_;
  std::vector<uint64_t> end_;
  std::unique_ptr<std::atomic<uint32_t>[]> executions_;
  uint64_t max_id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SHIMS_H_
