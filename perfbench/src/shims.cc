#include "shims.h"

#include <algorithm>

#include "common.h"

namespace perfbench {

using optsched::CpuId;
using optsched::runtime::WorkItem;

bool CountingPolicy::CanSteal(const optsched::SelectionView& view, CpuId stealee) const {
  can_steal_.fetch_add(1, std::memory_order_relaxed);
  return inner_->CanSteal(view, stealee);
}

CpuId CountingPolicy::SelectCore(const optsched::SelectionView& view,
                                 const std::vector<CpuId>& candidates,
                                 optsched::Rng& rng) const {
  select_.fetch_add(1, std::memory_order_relaxed);
  return inner_->SelectCore(view, candidates, rng);
}

bool CountingPolicy::ShouldMigrate(int64_t task_weight, int64_t victim_load,
                                   int64_t thief_load) const {
  migrate_.fetch_add(1, std::memory_order_relaxed);
  const bool accept = inner_->ShouldMigrate(task_weight, victim_load, thief_load);
  if (accept) {
    accepts_.fetch_add(1, std::memory_order_relaxed);
  }
  return accept;
}

uint32_t TracingIngress::Drain(uint32_t worker, std::vector<WorkItem>& out,
                               uint32_t max_items) {
  const size_t before = out.size();
  const uint32_t moved = inner_.Drain(worker, out, max_items);
  const uint64_t now = NowNs();
  for (size_t i = before; i < out.size(); ++i) {
    drained_at_[out[i].id] = now;
  }
  calls_.fetch_add(1, std::memory_order_relaxed);
  items_.fetch_add(moved, std::memory_order_relaxed);
  return moved;
}

TracingRunner::TracingRunner(uint32_t workers, optsched::task::TaskGraph* graph,
                             uint64_t spin_per_unit, size_t span_capacity, uint64_t max_id)
    : graph_(graph),
      spin_per_unit_(spin_per_unit),
      span_capacity_(span_capacity),
      workers_(workers),
      start_(max_id, 0),
      end_(max_id, 0),
      executions_(std::make_unique<std::atomic<uint32_t>[]>(max_id)),
      max_id_(max_id) {
  for (WorkerTrace& w : workers_) {
    w.spans.reserve(span_capacity_);
  }
  ClearItems();
}

void TracingRunner::BeginRun(uint64_t start_ns) {
  for (WorkerTrace& w : workers_) {
    w.last_end = start_ns;
    w.first_start = 0;
  }
}

void TracingRunner::ClearItems() {
  std::fill(start_.begin(), start_.end(), 0);
  std::fill(end_.begin(), end_.end(), 0);
  for (uint64_t i = 0; i < max_id_; ++i) {
    executions_[i].store(0, std::memory_order_relaxed);
  }
}

void TracingRunner::RunItem(const WorkItem& item, optsched::runtime::Executor& executor,
                            uint32_t worker) {
  WorkerTrace& w = workers_[worker];
  const uint64_t start = NowNs();
  if (graph_ != nullptr) {
    graph_->RunItem(item, executor, worker);
  } else {
    Spin(item.work_units, spin_per_unit_);
  }
  const uint64_t end = NowNs();
  const bool head = w.first_start == 0;
  const uint64_t gap = start - w.last_end;
  if (head) {
    w.first_start = start;
  } else {
    w.inner_gap_sum_ns += gap;
  }
  ++w.bodies;
  w.body_sum_ns += end - start;
  if (w.spans.size() < span_capacity_) {
    w.spans.push_back({static_cast<uint32_t>(std::min<uint64_t>(end - start, UINT32_MAX)),
                       head ? kHeadGap : static_cast<uint32_t>(std::min<uint64_t>(gap, kHeadGap - 1))});
  }
  w.last_end = end;
  if (item.id < max_id_) {
    start_[item.id] = start;
    end_[item.id] = end;
    executions_[item.id].fetch_add(1, std::memory_order_relaxed);
  }
}

int64_t TracingRunner::OutstandingFor(uint32_t worker) const {
  return graph_ != nullptr ? graph_->OutstandingFor(worker) : 0;
}

}  // namespace perfbench
