// Single-writer seqlock for small trivially-copyable values.
//
// This is how the runtime makes the selection phase genuinely lock-free:
// each runqueue owner publishes its load through a Seqlock<LoadPair>; any
// core can read every other core's load without taking a lock and without
// ever blocking the owner — "allow cores to look at the other cores' states
// and take optimistic decisions based on these observations, without locks"
// (§1). Readers may observe values that are stale by the time they act;
// that staleness is exactly what the re-check in the stealing phase handles.
//
// The payload is stored as an array of relaxed std::atomic<uint64_t> words
// rather than raw bytes copied with memcpy. Under the C++ memory model a
// plain-memory seqlock is a data race (the reader may load words the writer
// is concurrently storing, even though the sequence check discards them);
// word-wise relaxed atomics express the same protocol race-free, keep
// ThreadSanitizer clean, and compile to the same plain loads/stores on
// x86/ARM. Ordering still comes from the acquire/release fences around the
// copy, exactly as before.
//
// Locking discipline (checked by tools/lint/optsched_lint.py, rule
// seqlock-write-context): Write() must only be called while the writer's
// serializing lock is held — in the runtime, from OPTSCHED_REQUIRES(lock_)
// methods of ConcurrentRunQueue. The seqlock itself cannot name that lock
// (it serializes any one writer, whoever that is), so the obligation is
// enforced by the lint at every call site instead of by a REQUIRES here.

#ifndef OPTSCHED_SRC_RUNTIME_SEQLOCK_H_
#define OPTSCHED_SRC_RUNTIME_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "src/base/thread_annotations.h"
#include "src/runtime/spinlock.h"

namespace optsched::runtime {

template <typename T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>, "seqlock values must be trivially copyable");

  static constexpr size_t kWords = (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

 public:
  // Zero-initializes the payload WITHOUT going through Write(): construction
  // is single-threaded (no concurrent reader can exist yet), so it needs no
  // protocol — and it must not count in write_count(), whose consumers
  // (publish-batching assertions in the mc harness, per-critical-section
  // write deltas in TrySteal) expect "completed publishes", starting at 0
  // for a fresh instance.
  Seqlock() {
    for (size_t w = 0; w < kWords; ++w) {
      words_[w].store(0, std::memory_order_relaxed);  // order: ctor-single-threaded
    }
  }

  // Writer side (one writer at a time; the runqueue lock serializes writers).
  // The mid-write SyncPoint exposes the torn window (sequence odd, payload
  // words half-stored) to the model checker, which is exactly the state a
  // reader's retry loop exists to survive.
  OPTSCHED_HOT_PATH void Write(const T& value) {
    uint64_t staging[kWords] = {};
    std::memcpy(staging, &value, sizeof(T));
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kSeqWriteBegin, this);
    const uint64_t seq = sequence_.load(std::memory_order_relaxed);  // order: seq-writer-serialized
    sequence_.store(seq + 1, std::memory_order_release);  // odd: write in progress
    std::atomic_thread_fence(std::memory_order_release);
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kSeqWriteTorn, this);
    for (size_t w = 0; w < kWords; ++w) {
      words_[w].store(staging[w], std::memory_order_relaxed);  // order: seqlock-word-protocol
    }
    std::atomic_thread_fence(std::memory_order_release);
    sequence_.store(seq + 2, std::memory_order_release);  // even: stable
    // Writers are serialized, so the count is single-writer: load+store, no
    // lock-prefixed RMW on every publish.
    // order: seq-writer-serialized
    writes_.store(writes_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kSeqWriteEnd, this);
  }

  // Reader side: lock-free, never blocks the writer; retries on torn reads.
  // Each retry (odd sequence or before/after mismatch) bumps a relaxed
  // per-instance counter: the retry rate is the direct measure of snapshot
  // staleness pressure — how often the selection phase raced a publisher —
  // which ExecutorReport surfaces as executor.seqlock.read_retries.
  OPTSCHED_HOT_PATH T Read() const {
    T out;
    TryRead(out, std::numeric_limits<uint64_t>::max());
    return out;
  }

  // Read() that gives up after `max_attempts` torn attempts: false, `out`
  // untouched. Retrying alone is not wait-free: a writer that publishes more
  // often than a reader can copy the words tears every attempt, and the
  // reader spins as long as the writer keeps writing. A caller that must make
  // progress bounds the attempts and then serializes with the writers
  // (ConcurrentRunQueue::ReadLoad takes the queue lock).
  OPTSCHED_HOT_PATH bool TryRead(T& out, uint64_t max_attempts) const {
    uint64_t staging[kWords];
    for (uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
      mc_hooks::SyncPoint(mc_hooks::SyncOp::kSeqRead, this);
      const uint64_t before = sequence_.load(std::memory_order_acquire);
      if (before & 1) {
        ReadRetryPause();
        continue;
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      for (size_t w = 0; w < kWords; ++w) {
        staging[w] = words_[w].load(std::memory_order_relaxed);  // order: seqlock-word-protocol
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t after = sequence_.load(std::memory_order_acquire);
      if (before == after) {
        std::memcpy(&out, staging, sizeof(T));
        return true;
      }
      ReadRetryPause();
    }
    return false;
  }

  // Torn-read loop iterations observed by Read() since construction. Relaxed:
  // a monotone statistic, not a synchronization device.
  // order: reporting-counter
  uint64_t read_retries() const { return read_retries_.load(std::memory_order_relaxed); }

  // Completed Write() calls since construction — 0 for a fresh seqlock (the
  // constructor's zero-initialization is not a Write). Publish batching (one
  // Write per critical section, however many items moved) is asserted against
  // this counter by the mc harness; each write also invalidates every
  // concurrent reader, so the write rate bounds the retry pressure readers
  // can see.
  // order: reporting-counter
  uint64_t write_count() const { return writes_.load(std::memory_order_relaxed); }

 private:
  OPTSCHED_HOT_PATH void ReadRetryPause() const {
    read_retries_.fetch_add(1, std::memory_order_relaxed);  // order: reporting-counter
    // Under the model checker a retrying reader blocks until the in-flight
    // write completes (sequence even again); rescheduling it earlier would
    // just spin the fiber without progress. In production: plain CpuRelax.
    if (!mc_hooks::BlockUntil(mc_hooks::SyncOp::kSeqReadRetry, this,
                              &Seqlock::SequenceEven, this)) {
      CpuRelax();
    }
  }

  static bool SequenceEven(const void* self) {
    return (static_cast<const Seqlock*>(self)->sequence_.load(std::memory_order_acquire) &
            1) == 0;
  }

  // mc: kSeqWriteBegin, kSeqWriteTorn, kSeqWriteEnd, kSeqRead, kSeqReadRetry
  std::atomic<uint64_t> sequence_{0};
  // mc: kSeqWriteTorn, kSeqRead
  std::atomic<uint64_t> words_[kWords];
  // optsched-lint: allow(mc-hook-coverage): monotone statistic, not protocol state
  std::atomic<uint64_t> writes_{0};
  // optsched-lint: allow(mc-hook-coverage): monotone statistic, not protocol state
  mutable std::atomic<uint64_t> read_retries_{0};
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_SEQLOCK_H_
