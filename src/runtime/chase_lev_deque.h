// Bounded lock-free Chase-Lev work-stealing deque (Chase & Lev, SPAA'05, in
// the C11 formulation of Le, Pop, Cohen & Zappa Nardelli, PPoPP'13).
//
// This is the optimistic synchronization substrate the paper's proof
// structure is meant to survive: the owner pushes and pops at `bottom` with
// plain loads/stores (no CAS except for the very last item), thieves race
// each other and the owner on a single CAS of `top`. A thief that loses the
// CAS has made a stale observation — exactly the failed re-check of the
// paper's stealing phase, so the runqueue facade surfaces it as
// `failed_recheck`, not as a retry loop.
//
// Deviations from the textbook deque, and why:
//   * BOUNDED. No growth: capacity is fixed at construction (rounded up to a
//     power of two) and PushBottom reports overflow instead of reallocating.
//     The runqueue facade spills overflow into its locked inbox, keeping the
//     lock-free fast path allocation-free forever — and keeping the model
//     checker's state space finite.
//   * SPLIT STEAL. The classic `steal()` is decomposed into PeekTop()
//     (observe top, size and the top item) and TakeTop(peek) (commit via the
//     CAS, anchored to the SAME observed top). The split lets the policy
//     layer run its migration gate between observation and commit: if the
//     CAS succeeds, `top` was unchanged since the peek, so the gate judged
//     the very state it acted on — the paper's re-check argument carries
//     over with the CAS playing the role of the lock-protected re-check.
//   * MONOTONIC 64-BIT INDICES. `top` only ever grows, so the take/steal CAS
//     is ABA-free by construction; slot = index & mask.
//
// Memory-order argument (docs/runtime.md#chase-lev-memory-orders):
//   * PushBottom: the release store to `bottom` publishes the slot words
//     written before it; a thief's acquire load of `bottom` therefore sees
//     the item it is about to read. The acquire load of `top` is needed to
//     reuse slots: it synchronizes with thieves' top-CASes, proving the slot
//     being overwritten was vacated.
//   * PopBottom: the decrement of `bottom` must be globally visible BEFORE
//     the load of `top` (seq_cst fence between them), or a pop and a steal
//     could both observe "more than one item" and take the same one.
//   * PeekTop: `top` acquire, then a seq_cst fence, then `bottom` acquire —
//     the fence pairs with PopBottom's so thief and owner agree on who wins
//     the last item; reading top FIRST anchors the size computation to the
//     index the CAS will validate (the broken_steal_order fault knob flips
//     exactly this and is caught by the model checker).
//   * TakeTop: seq_cst CAS on `top`; success means top was still the peeked
//     value at commit time, failure is a legitimate stale observation.
//
// Slot words are relaxed std::atomic<uint64_t>, not raw memory: a thief may
// read a slot the owner is concurrently overwriting (its CAS then fails and
// the torn value is discarded) — word-wise relaxed atomics make that
// protocol race-free under the C++ model and ThreadSanitizer, and compile to
// plain loads/stores. A slot is four words (WorkItem is 32 bytes,
// work_item.h), so each push stores 4 words and each pop or peek loads 4.
//
// Concurrency contract: exactly ONE owner thread may call PushBottom /
// PopBottom; any number of thieves may call PeekTop / TakeTop concurrently
// with the owner and each other. SizeRelaxed / SumWeightRelaxed are exact
// only at quiescence (mc-harness structural checks).

#ifndef OPTSCHED_SRC_RUNTIME_CHASE_LEV_DEQUE_H_
#define OPTSCHED_SRC_RUNTIME_CHASE_LEV_DEQUE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/runtime/work_item.h"

namespace optsched::runtime {

class ChaseLevDeque {
  static_assert(std::is_trivially_copyable_v<WorkItem>,
                "deque slots are copied word-wise");
  static_assert(sizeof(WorkItem) % sizeof(uint64_t) == 0,
                "WorkItem must be a whole number of 64-bit words");

 public:
  // One thief-side observation: the top index the take-CAS will validate,
  // the size computed against it (<= 0 means "observed empty"), and the top
  // item itself (valid iff found). A found peek may still be stale — TakeTop
  // resolves that race, never the caller.
  struct TopPeek {
    uint64_t top = 0;
    int64_t size = 0;
    bool found = false;
    WorkItem item;
  };

  // Capacity is rounded up to a power of two, minimum 2. `broken_steal_order`
  // is a FAULT KNOB for the model-checking harness only
  // (docs/model_checking.md): PeekTop reads `bottom` BEFORE `top` (and drops
  // the fence between them), the classic mis-ordering that lets a thief pair
  // a stale bottom with a fresh top and steal an already-executed item.
  // Never set in production paths.
  explicit ChaseLevDeque(uint32_t min_capacity, bool broken_steal_order = false);

  uint64_t capacity() const { return mask_ + 1; }

  // --- Owner operations ------------------------------------------------------
  // Appends at bottom; false when the ring is full (caller spills elsewhere).
  bool PushBottom(const WorkItem& item);
  // Removes the newest item (LIFO). For the last remaining item the owner
  // races thieves on the top CAS; losing means a thief got it first.
  std::optional<WorkItem> PopBottom();

  // --- Thief operations ------------------------------------------------------
  TopPeek PeekTop() const;
  // Commits the steal the peek observed. True iff the CAS top -> top+1
  // succeeded, i.e. no thief or owner-last-item pop intervened since the
  // peek; the caller owns peek.item from then on. False is a failed re-check.
  bool TakeTop(const TopPeek& peek);

  // --- Quiescent / statistical observation -----------------------------------
  // bottom - top as this thread happens to see it; exact at quiescence.
  int64_t SizeRelaxed() const;
  // Sum of the weights of the items currently in [top, bottom); exact at
  // quiescence (mc published-depth property), torn under concurrency.
  int64_t SumWeightRelaxed() const;

 private:
  static constexpr std::size_t kWordsPerItem = sizeof(WorkItem) / sizeof(uint64_t);

  void StoreSlot(uint64_t index, const WorkItem& item);
  WorkItem LoadSlot(uint64_t index) const;

  const uint64_t mask_;
  const bool broken_steal_order_;
  // Owner-written index and thief-CASed index on separate cache lines: a
  // thief's top CAS must not invalidate the line the owner's push/pop cycle
  // lives on. Slot words are relaxed-atomic storage, covered by the index
  // protocol above (no per-word hooks; the indices are the decision points).
  // mc: kDequeBottomLoad, kDequeBottomStore
  alignas(kCacheLineSize) std::atomic<uint64_t> bottom_{0};
  // mc: kDequeTopLoad, kDequeTopCas
  alignas(kCacheLineSize) std::atomic<uint64_t> top_{0};
  alignas(kCacheLineSize) const std::unique_ptr<std::atomic<uint64_t>[]> slots_;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_CHASE_LEV_DEQUE_H_
