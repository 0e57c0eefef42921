// Closed-system termination detection without a shared per-item counter
// (docs/runtime.md, "Termination and wakeup").
//
// Every worker owns one WorkerCounts slot: how many items it SUBMITTED
// (spawn flushes, ingress drains) and how many it EXECUTED. Only the owner
// writes its slot, with a plain load+store, so the per-item path performs no
// read-modify-write on a line another core writes. External producers
// (Submit, SubmitBatch, Seed) are rare and share one fetch_add counter.
//
// "Drained" is decided by a quiescence sum: every executed count is read
// (acquire) FIRST, then the external and every submitted count. Each counted
// execution happens-after its own submission and after every child its body
// flushed (the owner bumps `executed` only after the body returns), so the
// submitted sum read afterwards covers all of them. Equal sums therefore
// mean every item ever submitted — the whole spawn tree — has run. Reading
// the submitted counts first would miss children spawned between the two
// passes (the model checker's seeded `broken_termination_order` fault).
//
// Only idle workers, the park loop and the supervisor compute the sum; a
// busy worker never reads another worker's slot.

#ifndef OPTSCHED_SRC_RUNTIME_TERMINATION_H_
#define OPTSCHED_SRC_RUNTIME_TERMINATION_H_

#include <atomic>
#include <cstdint>

#include "src/runtime/mc_hooks.h"
#include "src/runtime/work_item.h"

namespace optsched::runtime {

class ConcurrentMachine;

// One worker's counts, on a line of their own: the owner writes them once
// per item and per flush, idle workers read them in the quiescence sum.
struct alignas(kCacheLineSize) WorkerCounts {
  // mc: kCountLoad, kCountStore
  std::atomic<uint64_t> submitted_items{0};
  // mc: kCountLoad, kCountStore
  std::atomic<uint64_t> executed_items{0};
};

class TerminationCounts {
 public:
  struct Sums {
    uint64_t executed = 0;
    uint64_t submitted = 0;
  };

  // `broken_read_order` is the model checker's fault knob: sum the submitted
  // counts before the executed ones. Never set in production.
  explicit TerminationCounts(bool broken_read_order = false)
      : broken_read_order_(broken_read_order) {}

  // Any thread, BEFORE the items become poppable.
  void AddExternal(uint64_t n) {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountStore, &external_);
    external_.fetch_add(n, std::memory_order_release);
  }

  // Owner of `slot` only, BEFORE the items become poppable (the push that
  // follows publishes the store along with the items) and, for items kept
  // in the executor's private spawn segment, before the running item's
  // AddExecuted.
  static void AddSubmitted(WorkerCounts& slot, uint64_t n) {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountStore, &slot.submitted_items);
    // order: single-writer-count
    const uint64_t mine = slot.submitted_items.load(std::memory_order_relaxed);
    // order: count-before-publish, count-before-executed
    slot.submitted_items.store(mine + n, std::memory_order_relaxed);
  }

  // Owner of `slot` only, AFTER the item's body and every flush it made.
  static void AddExecuted(WorkerCounts& slot, uint64_t n) {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kCountStore, &slot.executed_items);
    // order: single-writer-count
    const uint64_t mine = slot.executed_items.load(std::memory_order_relaxed);
    slot.executed_items.store(mine + n, std::memory_order_release);
  }

  // The quiescence sum over every queue's slot of `machine`: executed first,
  // then external + submitted. sums.executed <= sums.submitted always holds;
  // equality means drained.
  Sums Read(ConcurrentMachine& machine) const { return ReadSums(machine, /*hooks=*/true); }
  bool Drained(ConcurrentMachine& machine) const {
    const Sums sums = Read(machine);
    return sums.executed == sums.submitted;
  }
  // Drained() without mc hooks, for the model checker's blocking predicates,
  // which must not announce decision points of their own.
  bool PeekDrained(ConcurrentMachine& machine) const {
    const Sums sums = ReadSums(machine, /*hooks=*/false);
    return sums.executed == sums.submitted;
  }

 private:
  Sums ReadSums(ConcurrentMachine& machine, bool hooks) const;

  // mc: kCountLoad, kCountStore
  std::atomic<uint64_t> external_{0};
  const bool broken_read_order_;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_TERMINATION_H_
