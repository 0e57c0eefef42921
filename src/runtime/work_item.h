// The unit of schedulable work shared by every queue backend.
//
// Split out of concurrent_machine.h so the lock-free Chase-Lev deque
// (chase_lev_deque.h) can store items without pulling in the full runqueue
// facade. The layout is load-bearing: the deque stores items as whole
// 64-bit words through relaxed atomics (TSan-clean), so WorkItem must stay
// trivially copyable and a multiple of 8 bytes — both are static_asserted at
// the storage site.
//
// WorkItem is exactly 32 bytes, four words (static_asserted below), so every
// item store (the locked ready ring, the chase_lev slots, the inbox, the
// spawn segments, spawn batches, ingress mailboxes and callers' seed vectors)
// holds 8 bytes less per item than with a whole word for `work_units`:
//   * `work_units` is a 32-bit bit-field of type uint64_t in the word it
//     shares with `weight`. Its bound is 2^32 - 1 spin units; a larger value
//     is truncated on store.
//   * It is not a plain uint32_t because a caller's brace initializer from
//     a non-constant uint64_t would then narrow (a warning under GCC, an
//     error under clang).
//   * Arithmetic on it promotes it to unsigned int, as for any bit-field no
//     wider than int: widen it (`uint64_t{item.work_units}`) before
//     multiplying.
// There is no alignas: `alignas(32)` here and a 64-byte-aligned ring buffer
// both raised burst_locked peak RSS above the unaligned record's
// (EXPERIMENTS.md E24).

#ifndef OPTSCHED_SRC_RUNTIME_WORK_ITEM_H_
#define OPTSCHED_SRC_RUNTIME_WORK_ITEM_H_

#include <cstddef>
#include <cstdint>

namespace optsched::runtime {

// Destructive-interference granularity for per-field padding. A compile-time
// constant (not std::hardware_destructive_interference_size, which is
// ABI-fragile and warns under GCC) — 64 bytes is correct for every x86-64
// and the common AArch64 parts this runs on.
inline constexpr std::size_t kCacheLineSize = 64;

// A unit of work: `work_units` spins of the calibrated work loop.
// `arrival_ns` is an optional wall-clock arrival stamp (steady-clock ns, 0 =
// unstamped): the serving ingress stamps each admitted item at its open-loop
// arrival time so the executor can record end-to-end sojourn latency
// (arrival -> execution finished) without any per-item bookkeeping of its own.
// `task` is the structured-parallelism hook (docs/tasks.md): 0 means a plain
// calibrated-spin item; nonzero is an opaque task handle the executor routes
// to its configured TaskRunner instead of the spin loop. The handle is a
// word, not a pointer type, so this header stays free of any task-layer
// dependency and the item stays trivially copyable.
struct WorkItem {
  uint64_t id = 0;
  uint64_t work_units : 32 = 1;
  uint32_t weight = 1024;
  uint64_t arrival_ns = 0;
  uint64_t task = 0;
};
static_assert(sizeof(WorkItem) == 32, "WorkItem is four 64-bit words");

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_WORK_ITEM_H_
