// Concurrent (real-thread) implementation of the paper's scheduler model,
// behind a pluggable QUEUE-BACKEND concept.
//
// One ConcurrentRunQueue per worker. The queue is a facade over one of two
// synchronization substrates (docs/runtime.md#queue-backends):
//
//   * QueueBackend::kLocked — the reference/ablation backend: a
//     spinlock-protected ready ring plus a load published under the lock. The
//     SELECTION phase reads loads of all cores lock-free (possibly stale — the
//     optimistic part); the STEALING phase locks exactly the thief's and the
//     victim's queues (queue-index order), re-checks the policy's filter
//     against the now-exact loads of the pair, and migrates a batch with
//     every item individually gated by the migration rule.
//
//   * QueueBackend::kChaseLev — the lock-free backend: a bounded Chase-Lev
//     work-stealing deque (chase_lev_deque.h). The owner pushes/pops at
//     bottom with no CAS in the common case; a thief observes (PeekTop),
//     runs the SAME policy gate against the observed state, and commits with
//     a single CAS on top anchored to the observed index. A lost CAS is
//     surfaced as `failed_recheck`: the paper's filter -> choice -> steal
//     proof structure carries over with the CAS playing the role of the
//     locked re-check. External producers cannot touch bottom (single-owner
//     discipline), so PushBatchExternal lands in a small spinlock-protected
//     INBOX the owner drains into the deque at its next pop; the published
//     load is a pair of relaxed counters covering deque + inbox + running.
//
// Steals that fail the re-check (or the CAS) are counted, not retried — they
// are the paper's legitimate failures.
//
// Hot-path cost model (docs/runtime.md): the selection + steal path performs
// ZERO heap allocations in the steady state on both backends. Snapshots
// refill caller-owned buffers in place, the eligibility gate allocates
// nothing, and the steal batch lands in a reusable scratch vector. On
// kLocked the owner pays one lock hold and one publish per item
// (FinishCurrentAndPop), and a thief lands the first stolen item as its
// running item inside the steal's two-lock section.

#ifndef OPTSCHED_SRC_RUNTIME_CONCURRENT_MACHINE_H_
#define OPTSCHED_SRC_RUNTIME_CONCURRENT_MACHINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/base/function_ref.h"
#include "src/base/thread_annotations.h"
#include "src/core/policy.h"
#include "src/runtime/chase_lev_deque.h"
#include "src/runtime/item_ring.h"
#include "src/runtime/spinlock.h"
#include "src/runtime/termination.h"
#include "src/runtime/work_item.h"
#include "src/sched/machine_state.h"
#include "src/stats/counters.h"

namespace optsched::runtime {

// Which synchronization substrate backs each run queue.
enum class QueueBackend {
  kLocked,    // spinlock-protected ready ring + load published under the lock (reference)
  kChaseLev,  // bounded lock-free Chase-Lev deque + counter-published load
};

const char* QueueBackendName(QueueBackend backend);
// Parses "locked" / "chase_lev"; false (out untouched) on anything else.
bool ParseQueueBackend(std::string_view name, QueueBackend& out);

// A queue's load. Read lock-free (ReadLoad) on kLocked, each column is a
// value some publish wrote, and a pair may mix two publishes; that is enough,
// since every reader uses one column (the policy's metric). kChaseLev's
// columns are sums of counters read one by one, exact at quiescence.
struct LoadPair {
  int64_t task_count = 0;
  int64_t weighted_load = 0;
};

class ConcurrentRunQueue {
 public:
  // Default: the locked reference backend (unchanged behaviour).
  ConcurrentRunQueue() : ConcurrentRunQueue(QueueBackend::kLocked) {}
  // `deque_capacity` bounds the chase_lev ring (rounded up to a power of
  // two); overflow spills to the inbox. `broken_steal_order` is the mc fault
  // knob forwarded to ChaseLevDeque — never set in production paths.
  explicit ConcurrentRunQueue(QueueBackend backend, uint32_t deque_capacity = 1024,
                              bool broken_steal_order = false);

  QueueBackend backend() const { return backend_; }

  // --- Owner operations (callers must NOT hold lock()) -----------------------

  // Pops the next item for execution; the popped item counts as the core's
  // "current" (still part of the published load) until FinishCurrent().
  // The single-current invariant is checked BEFORE any mutation: a firing
  // check must leave the queue exactly as it found it (item still queued,
  // load still published), so the post-mortem state is trustworthy.
  // Backend note: kLocked pops the HEAD (FIFO), kChaseLev pops the BOTTOM
  // (LIFO — the work-stealing discipline: owner takes newest, thieves take
  // oldest). Neither order is a proof obligation.
  std::optional<WorkItem> PopForRun() OPTSCHED_EXCLUDES(lock_);
  // Declares the current item finished; load drops accordingly.
  void FinishCurrent() OPTSCHED_EXCLUDES(lock_);
  // FinishCurrent() followed by PopForRun(), fused: kLocked does both under
  // one lock hold with one publish, so the intermediate "finished, nothing
  // popped" state is never published — no lock holder could have observed
  // it anyway. kChaseLev runs the two calls back to back.
  std::optional<WorkItem> FinishCurrentAndPop() OPTSCHED_EXCLUDES(lock_);
  // Finishes the current item and makes `next`, which the owner holds and
  // this queue never held, the running item: the run-next handoff
  // (Executor::HandOffFromWorker). The task count stays as it is, since one
  // running item replaces another. kLocked moves the running weight in one
  // lock hold and one publish. kChaseLev stores own_enq_weight before
  // fin_weight, so the weighted load only over-counts in between, and stores
  // nothing when the two weights are equal. The task counters do not move,
  // so FinishedCount() still counts only finishes that lowered the load.
  void FinishCurrentAndRun(const WorkItem& next) OPTSCHED_EXCLUDES(lock_);
  // Owner-only batch append, backend-neutral: the executor's ingress drain
  // and the steal path's landing site. kLocked takes the queue lock once for
  // the whole batch; kChaseLev pushes at bottom lock-free, spilling to the
  // inbox if the ring fills.
  void PushBatchOwner(const WorkItem* items, uint32_t count) OPTSCHED_EXCLUDES(lock_);
  // Batch enqueue from a thread that is NOT this queue's owner
  // (Executor::SubmitBatch, seeding included). kLocked takes the queue lock
  // once; kChaseLev lands the batch in the inbox and counts it in ext_enq
  // (NOT own_enq: own_enq is a single-writer plain-store counter and a
  // non-owner write would race the owner and leave the published load
  // inexact at quiescence — backend_matrix_test pins this decomposition).
  void PushBatchExternal(const WorkItem* items, uint32_t count) OPTSCHED_EXCLUDES(lock_);

  // --- Lock-free observation (selection phase) -------------------------------
  // Wait-free: relaxed loads, no lock and no retry (see LoadPair for what a
  // pair read this way means).
  LoadPair ReadLoad() const;
  // Exact structural load — counts the actual container contents (+ running)
  // rather than the published value. The mc harness' published-depth
  // property asserts ReadLoad() == ExactLoad() at quiescence: any mutation
  // path that forgets to (re)publish diverges the two. kLocked takes the
  // queue lock; kChaseLev takes the inbox lock and walks the ring.
  LoadPair ExactLoad() OPTSCHED_EXCLUDES(lock_);

  // The owning worker's termination counts (see counts_ below).
  WorkerCounts& counts() { return counts_; }

  // --- Cross-core steal support: kLocked -------------------------------------
  SpinLock& lock() OPTSCHED_RETURN_CAPABILITY(lock_) { return lock_; }
  // Must hold lock(): exact loads / queue access.
  LoadPair ExactLoadLocked() const OPTSCHED_REQUIRES(lock_);
  // Removes up to `max_items` items from the tail, newest first, appending
  // them to `out`. `eligible` is consulted once per candidate; returning true
  // COMMITS the removal (callers update their running victim/thief loads
  // inside the callback). Ineligible items are skipped, the scan continues
  // toward the head. The published load is written ONCE, after the last
  // removal — not per item — so a steal publishes once per queue however
  // many items it moves. Returns the number of items taken.
  uint32_t StealTailLocked(FunctionRef<bool(const WorkItem&)> eligible, uint32_t max_items,
                           std::vector<WorkItem>& out) OPTSCHED_REQUIRES(lock_);
  // Appends `count` items and publishes the new load once.
  void PushBatchLocked(const WorkItem* items, uint32_t count) OPTSCHED_REQUIRES(lock_);
  // Whether the owner currently runs an item (PopForRun..FinishCurrent).
  bool RunningLocked() const OPTSCHED_REQUIRES(lock_) { return running_; }
  // Steal landing with run-next (TrySteal's `run_next`): items[0] becomes
  // the owner's running item — the one PopForRun would have taken next from
  // an empty queue — and the rest are appended; one publish. The owner must
  // not be running. Returns the running item.
  WorkItem LandAndRunLocked(const WorkItem* items, uint32_t count) OPTSCHED_REQUIRES(lock_);

  // --- Cross-core steal support: kChaseLev -----------------------------------
  // Observe the victim's top-of-deque (no locks). The peek carries the top
  // index TakeStealDeferred's CAS will validate, so the policy gate between
  // peek and take judges exactly the state the commit acts on.
  ChaseLevDeque::TopPeek PeekSteal() const;
  // Commits the peeked steal's CAS. False = top moved since the peek — a
  // failed re-check, never retried here. The victim-side counter decrements
  // are DEFERRED: the caller accumulates the batch and applies it once via
  // CommitStealAccounting. Between the two calls the
  // victim's published load overcounts the taken items, which is the safe
  // direction for every consumer: steal gates judge an inflated victim (they
  // under-steal, never over-steal), and the quiescent properties
  // (published-depth, no-lost-items) evaluate only after the batch has
  // landed. Cuts the per-item RMWs on the shared counter lines to one pair
  // per batch.
  bool TakeStealDeferred(const ChaseLevDeque::TopPeek& peek);
  void CommitStealAccounting(uint32_t items, int64_t weight);
  // Owner-side steal landing with run-next: items[count - 1] — the item
  // PopForRun would take from the bottom — becomes the running item, the rest
  // are pushed at bottom. The counters and the run flag are stored before
  // the bottom push. The owner must not be running. Returns the running item.
  WorkItem LandAndRunOwner(const WorkItem* items, uint32_t count) OPTSCHED_EXCLUDES(lock_);
  // Published task count / inbox depth / running flag, relaxed. The steal
  // gate combines peek.size + running + inbox into its victim load so the
  // judged load is anchored to the same top index the CAS validates.
  int64_t TasksRelaxed() const {
    return own_enq_tasks_.load(std::memory_order_relaxed) +  // order: torn-read-tolerated
           ext_enq_tasks_.load(std::memory_order_relaxed) -  // order: torn-read-tolerated
           fin_tasks_.load(std::memory_order_relaxed) -  // order: torn-read-tolerated
           stolen_tasks_.load(std::memory_order_relaxed);  // order: torn-read-tolerated
  }
  // order: torn-read-tolerated
  int64_t InboxCountRelaxed() const { return inbox_count_.load(std::memory_order_relaxed); }
  // order: torn-read-tolerated
  int64_t RunningRelaxed() const { return running_a_.load(std::memory_order_relaxed); }
  // Items this owner has fully executed (FinishCurrent count). A thief
  // brackets its steal with two reads: the delta excuses exactly the
  // decrements the owner's execution progress — the only non-CAS-guarded
  // path that lowers tasks — applied to the victim load between the gate
  // and the post-steal observation (see StealObservation).
  uint64_t FinishedCount() const {
    // order: torn-read-tolerated
    return static_cast<uint64_t>(fin_tasks_.load(std::memory_order_relaxed));
  }

 private:
  std::optional<WorkItem> PopForRunLockedBackend() OPTSCHED_EXCLUDES(lock_);
  std::optional<WorkItem> PopForRunChaseLev() OPTSCHED_EXCLUDES(lock_);
  // Moves inbox items into the deque (owner only); stops early if the ring
  // fills — the leftovers stay counted and are retried next pop.
  void DrainInboxToDeque() OPTSCHED_EXCLUDES(lock_);
  // kChaseLev owner pushes: the own_enq counters first, then the deque
  // bottom (overflow to the inbox).
  void CountOwnerEnqueue(int64_t tasks, int64_t weight);
  void PushToDeque(const WorkItem* items, uint32_t count) OPTSCHED_EXCLUDES(lock_);
  void PublishLocked() OPTSCHED_REQUIRES(lock_);

  const QueueBackend backend_;

  // kLocked hot line: the lock word, the running slot, both weights and the
  // two published words share ONE 64-byte line (pinned by a static_assert in the
  // constructor). Every critical section writes the lock word and publishes,
  // so with the published load on a line of its own each owner item and each
  // steal dirtied two lines, the second of which every thief's snapshot also
  // reads. On one line a critical section dirties one. Measured on
  // burst_locked (4-vCPU Xeon VM, 7 runs of 8 s each): moving the published
  // load back to its own line costs ~8% of items_per_s (EXPERIMENTS.md E19).
  // On kChaseLev the lock guards only the INBOX (external submissions); the
  // deque itself is lock-free.
  alignas(kCacheLineSize) mutable SpinLock lock_;
  bool running_ OPTSCHED_GUARDED_BY(lock_) = false;
  int64_t running_weight_ OPTSCHED_GUARDED_BY(lock_) = 0;
  int64_t queued_weight_ OPTSCHED_GUARDED_BY(lock_) = 0;
  // The published load: stored relaxed under lock_ (PublishLocked), read
  // relaxed by any thread (ReadLoad). Readers take no lock, so no
  // GUARDED_BY; the write side is the REQUIRES on PublishLocked plus the
  // lint rule load-publish-context.
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> published_tasks_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> published_weight_{0};
  ItemRing ready_ OPTSCHED_GUARDED_BY(lock_);

  // --- kChaseLev state (idle on kLocked) -------------------------------------
  std::unique_ptr<ChaseLevDeque> deque_;  // null on kLocked
  std::deque<WorkItem> inbox_ OPTSCHED_GUARDED_BY(lock_);
  // Published load for the lock-free backend, DECOMPOSED BY WRITER so the
  // owner's per-item path is store-only:
  //   tasks  = own_enq_tasks + ext_enq_tasks − fin_tasks − stolen_tasks
  //   weight = the same formula over the *_weight counters.
  // Each counter is monotonic and has exactly one writer class — the owner
  // (plain load+store, no lock-prefixed RMW on its hot path), external
  // submitters (fetch_add in PushBatchExternal), thieves (one fetch_add pair per steal
  // batch) — so a reader may see a torn combination, the same staleness the
  // selection phase already tolerates from the locked backend's two words
  // (and the re-check absorbs); the decomposition is exact at quiescence
  // (published-depth).
  //
  // Owner-written line: single-writer plain stores, read by any thread.
  // mc: kLoadRead, kLoadWrite
  alignas(kCacheLineSize) std::atomic<int64_t> own_enq_tasks_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> own_enq_weight_{0};
  // fin_tasks_ doubles as FinishedCount(), the steal-safety excuse counter.
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> fin_tasks_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> fin_weight_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> running_a_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> running_weight_a_{0};
  // External-submitter line (PushBatchExternal: any thread).
  // mc: kLoadRead, kLoadWrite
  alignas(kCacheLineSize) std::atomic<int64_t> ext_enq_tasks_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> ext_enq_weight_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> inbox_count_{0};
  // Thief line (CommitStealAccounting), kept off the owner's
  // lines so a steal commit does not invalidate the owner's finish path.
  // mc: kLoadRead, kLoadWrite
  alignas(kCacheLineSize) std::atomic<int64_t> stolen_tasks_{0};
  // mc: kLoadRead, kLoadWrite
  std::atomic<int64_t> stolen_weight_{0};

  // Termination counts of the worker that owns this queue (termination.h),
  // on a line of their own. They live here because the queue is the
  // per-worker storage that the executor and the model-checker harness both
  // already own, so both sum the same slots through the same machine.
  WorkerCounts counts_;
};

// Outcome counters for one worker's stealing activity. `successes` counts
// steal ACTIONS (critical sections that moved >= 1 item); `items_stolen`
// counts migrated items. Invariant: successes <= items_stolen <=
// successes * max_batch (mirrors BalanceStats successes/tasks_moved).
// On kChaseLev, `failed_recheck` additionally counts lost top-CAS races —
// the lock-free shape of the same stale-observation failure.
struct StealCounters {
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t items_stolen = 0;
  uint64_t failed_recheck = 0;
  uint64_t failed_no_task = 0;
  uint64_t empty_filter = 0;

  static constexpr stats::Counter<StealCounters> kCounters[] = {
      {"attempts", &StealCounters::attempts},
      {"successes", &StealCounters::successes},
      {"items_stolen", &StealCounters::items_stolen},
      {"failed_recheck", &StealCounters::failed_recheck},
      {"failed_no_task", &StealCounters::failed_no_task},
      {"empty_filter", &StealCounters::empty_filter},
  };
};
static_assert(stats::CoversEveryField<StealCounters>());

// Knobs of one TrySteal call. Defaults reproduce the paper's Listing 1
// exactly: re-checked, one item per successful steal (`steal_one`).
struct StealOptions {
  // Listing 1 line 12; false is the D2 ablation (steal on stale loads).
  bool recheck = true;
  // Cap on items migrated per successful steal action. The effective batch is
  // min(max_batch, policy.StealBatchHint(victim, thief)) with every item
  // still gated by ShouldMigrate — 1 preserves the original steal-one
  // behaviour, larger values enable steal-half batching.
  uint32_t max_batch = 1;
  // FAULT KNOB for the model-checking harness only (docs/model_checking.md):
  // ignore both the migration rule and the batch cap and strip the victim
  // bare. Deliberately violates steal safety — exists so the checker can
  // demonstrate it finds and minimizes the resulting counterexample. Never
  // set in production paths.
  bool break_batch_bound = false;
};

// Reusable scratch buffers for the selection + steal hot path. One per
// worker, passed into TrySteal: every vector reaches its high-water capacity
// during warmup and is refilled in place afterwards (resize-once, zero
// steady-state allocations).
struct StealScratch {
  std::vector<CpuId> candidates;
  LoadSnapshot locked_snapshot;
  std::vector<WorkItem> batch;
};

// Facts about a successful steal captured from the only vantage point where
// "the victim was not idled" (steal safety, §4.1) can be asserted: under
// both runqueue locks on kLocked, bracketing the top-CAS on kChaseLev. The
// model checker's harness consumes this; production callers pass nullptr.
struct StealObservation {
  uint64_t item_id = 0;  // first migrated item
  uint32_t items_moved = 0;
  int64_t victim_tasks_after = 0;
  int64_t thief_tasks_after = 0;
  // kChaseLev only (0 on kLocked, where the victim lock freezes execution):
  // items the victim OWNER finished between the steal's first peek and the
  // post-steal load read. FinishCurrent is the only path that lowers the
  // victim's task count without going through the top CAS, so
  // victim_tasks_after + victim_finished_delta is what the count would have
  // been had the victim not executed concurrently — the steal-safety
  // property asserts on that sum, keeping the proof obligation uniform
  // across backends.
  int64_t victim_finished_delta = 0;
};

// Construction-time knobs for the machine's queues.
struct MachineOptions {
  QueueBackend backend = QueueBackend::kLocked;
  uint32_t deque_capacity = 1024;  // per-queue chase_lev ring bound
  bool broken_steal_order = false;  // mc fault knob (chase_lev_deque.h)
};

class ConcurrentMachine {
 public:
  explicit ConcurrentMachine(uint32_t num_queues, const MachineOptions& options = {});

  uint32_t num_queues() const { return static_cast<uint32_t>(queues_.size()); }
  ConcurrentRunQueue& queue(uint32_t index) { return *queues_[index]; }
  QueueBackend backend() const { return options_.backend; }

  // Lock-free load snapshot across all queues (selection-phase view).
  LoadSnapshot Snapshot() const;
  // Allocation-free variant: resizes `out` once, refills it in place.
  void SnapshotInto(LoadSnapshot& out) const;

  // Snapshot taken while holding every queue lock (the D3 ablation: "locked
  // selection" — exact but stalls all owners; kLocked backend only). The
  // loop-carried acquisition of N locks through the queue vector is outside
  // what the thread-safety analysis can follow, hence the explicit opt-out;
  // the index-order ranking is the same machine-wide one DualLockGuard
  // documents.
  LoadSnapshot LockedSnapshot();
  void LockedSnapshotInto(LoadSnapshot& out) OPTSCHED_NO_THREAD_SAFETY_ANALYSIS;

  // Full three-step attempt by `thief`: filter+choice on `snapshot`, then
  // the backend's stealing phase — two locks + re-check + batched migration
  // on kLocked; per-item peek -> gate -> top-CAS on kChaseLev, with a lost
  // CAS counted as failed_recheck. On success the stolen items land on the
  // thief's own queue (the thief is that queue's owner). Updates `counters`.
  // When the filter was non-empty, `victim_out` (if given) receives the
  // chosen victim — trace events want to attribute the outcome to the pair,
  // not just the thief. `observation_out` (if given) is filled on success
  // (see StealObservation). `scratch` (if given) supplies the reusable
  // buffers that make the attempt allocation-free; null falls back to
  // call-local buffers (tests, harness). `run_next` (if given) lands one
  // stolen item as the thief's RUNNING item and receives it — the item a
  // PopForRun right after the steal would have returned — so the thief runs
  // it without another pop; the thief must not be running. On kLocked the
  // landing happens inside the two-lock section (one publish for the
  // thief). Null keeps the plain landing: every item queued.
  bool TrySteal(const BalancePolicy& policy, CpuId thief, const LoadSnapshot& snapshot,
                Rng& rng, const StealOptions& options, StealCounters& counters,
                const Topology* topology = nullptr, CpuId* victim_out = nullptr,
                StealObservation* observation_out = nullptr,
                StealScratch* scratch = nullptr, WorkItem* run_next = nullptr);

 private:
  bool TryStealLocked(const BalancePolicy& policy, CpuId thief, const LoadSnapshot& snapshot,
                      CpuId victim, const StealOptions& options, StealCounters& counters,
                      const Topology* topology, StealObservation* observation_out,
                      StealScratch& s, WorkItem* run_next);
  bool TryStealChaseLev(const BalancePolicy& policy, CpuId thief,
                        const LoadSnapshot& snapshot, CpuId victim,
                        const StealOptions& options, StealCounters& counters,
                        const Topology* topology, StealObservation* observation_out,
                        StealScratch& s, WorkItem* run_next);

  const MachineOptions options_;
  std::vector<std::unique_ptr<ConcurrentRunQueue>> queues_;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_CONCURRENT_MACHINE_H_
