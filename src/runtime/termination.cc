#include "src/runtime/termination.h"

#include "src/runtime/concurrent_machine.h"

namespace optsched::runtime {

TerminationCounts::Sums TerminationCounts::ReadSums(ConcurrentMachine& machine,
                                                    bool hooks) const {
  Sums sums;
  const auto sync = [hooks](const void* counter) {
    if (hooks) {
      mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountLoad, counter);
    }
  };
  const auto read_executed = [&] {
    for (uint32_t i = 0; i < machine.num_queues(); ++i) {
      const WorkerCounts& slot = machine.queue(i).counts();
      sync(&slot.executed_items);
      sums.executed += slot.executed_items.load(std::memory_order_acquire);
    }
  };
  const auto read_submitted = [&] {
    sync(&external_);
    // order: executed-then-submitted
    sums.submitted = external_.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < machine.num_queues(); ++i) {
      const WorkerCounts& slot = machine.queue(i).counts();
      sync(&slot.submitted_items);
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
