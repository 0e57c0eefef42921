#include "src/runtime/termination.h"

#include "src/runtime/concurrent_machine.h"

namespace optsched::runtime {

TerminationCounts::Sums TerminationCounts::Read(ConcurrentMachine& machine) const {
  Sums sums;
  const auto read_executed = [&] {
    for (uint32_t i = 0; i < machine.num_queues(); ++i) {
      const WorkerCounts& slot = machine.queue(i).counts();
      mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountLoad, &slot.executed_items);
      sums.executed += slot.executed_items.load(std::memory_order_acquire);
    }
  };
  const auto read_submitted = [&] {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountLoad, &external_);
    // order: executed-then-submitted
    sums.submitted = external_.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < machine.num_queues(); ++i) {
      const WorkerCounts& slot = machine.queue(i).counts();
      mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountLoad, &slot.submitted_items);
      // order: executed-then-submitted
      sums.submitted += slot.submitted_items.load(std::memory_order_relaxed);
    }
  };
  if (broken_read_order_) {
    read_submitted();
    read_executed();
  } else {
    read_executed();
    read_submitted();
  }
  return sums;
}

}  // namespace optsched::runtime
