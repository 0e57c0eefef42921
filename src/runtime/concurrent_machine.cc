#include "src/runtime/concurrent_machine.h"

#include <algorithm>
#include <cstddef>

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::runtime {

const char* QueueBackendName(QueueBackend backend) {
  switch (backend) {
    case QueueBackend::kLocked: return "locked";
    case QueueBackend::kChaseLev: return "chase_lev";
  }
  return "?";
}

bool ParseQueueBackend(std::string_view name, QueueBackend& out) {
  if (name == "locked") {
    out = QueueBackend::kLocked;
    return true;
  }
  if (name == "chase_lev") {
    out = QueueBackend::kChaseLev;
    return true;
  }
  return false;
}

ConcurrentRunQueue::ConcurrentRunQueue(QueueBackend backend, uint32_t deque_capacity,
                                       bool broken_steal_order)
    : backend_(backend) {
  // The kLocked hot line (see the header): lock word, running slot, weights
  // and published load within the first 64 bytes of the object.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static_assert(offsetof(ConcurrentRunQueue, lock_) % kCacheLineSize == 0 &&
                    offsetof(ConcurrentRunQueue, published_) + sizeof(published_) -
                            offsetof(ConcurrentRunQueue, lock_) <=
                        kCacheLineSize,
                "the kLocked lock, running slot, weights and published load must share one line");
#pragma GCC diagnostic pop
  if (backend_ == QueueBackend::kChaseLev) {
    deque_ = std::make_unique<ChaseLevDeque>(deque_capacity, broken_steal_order);
  }
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::PublishLocked() {
  LoadPair load;
  load.task_count = static_cast<int64_t>(ready_.size()) + (running_ ? 1 : 0);
  load.weighted_load = queued_weight_ + running_weight_;
  published_.Write(load);
}

std::optional<WorkItem> ConcurrentRunQueue::PopForRun() {
  return backend_ == QueueBackend::kLocked ? PopForRunLockedBackend() : PopForRunChaseLev();
}

std::optional<WorkItem> ConcurrentRunQueue::PopForRunLockedBackend() {
  LockGuard guard(lock_);
  // Invariant before mutation: if the owner already runs an item, abort with
  // the queue untouched — the old order popped and unpublished first, so a
  // firing check reported a state the queue was no longer in (and the item
  // was silently gone from the load accounting).
  OPTSCHED_CHECK_MSG(!running_, "owner already runs an item");
  if (ready_.empty()) {
    return std::nullopt;
  }
  const WorkItem item = ready_.PopFront();
  queued_weight_ -= item.weight;
  running_ = true;
  running_weight_ = item.weight;
  PublishLocked();
  return item;
}

std::optional<WorkItem> ConcurrentRunQueue::PopForRunChaseLev() {
  OPTSCHED_CHECK_MSG(running_a_.load(std::memory_order_relaxed) == 0,  // order: single-writer-store
                     "owner already runs an item");
  DrainInboxToDeque();
  std::optional<WorkItem> item = deque_->PopBottom();
  if (!item.has_value()) {
    return std::nullopt;
  }
  // The popped item stays in the published count (it is the core's
  // "current" until
  // FinishCurrent) — only the running flag and its weight attribution move.
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  running_a_.store(1, std::memory_order_relaxed);  // order: single-writer-store
  running_weight_a_.store(item->weight, std::memory_order_relaxed);  // order: single-writer-store
  return item;
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::DrainInboxToDeque() {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadRead, this);
  if (inbox_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  // Refill hysteresis: while the ring is above half full, skip the drain so
  // the inbox lock is taken once per capacity/2 pops instead of once per pop.
  // Without this, a spilled-over queue refills ONE freed slot per PopForRun
  // and the owner serializes through the lock on every item — exactly the
  // behaviour the lock-free backend exists to avoid. Only the owner grows
  // `bottom`, so its relaxed size read can only overestimate (thieves shrink
  // it concurrently); a skipped drain is retried on the next pop, and an
  // empty ring always passes the gate, so PopForRun can never report empty
  // while the inbox holds work.
  if (deque_->SizeRelaxed() * 2 > static_cast<int64_t>(deque_->capacity())) {
    return;
  }
  LockGuard guard(lock_);
  // Only the owner pushes, so the free slots can only grow under us: all
  // `moved` pushes below succeed.
  const int64_t free_slots = static_cast<int64_t>(deque_->capacity()) - deque_->SizeRelaxed();
  const int64_t moved = std::min(static_cast<int64_t>(inbox_.size()), free_slots);
  if (moved <= 0) {
    return;
  }
  // The items were already counted by PushBatchExternal (ext_enq) when
  // admitted; only the inbox-residency counter changes — and it drops BEFORE
  // the items reach the deque. A thief's gate adds the inbox count to the stealable
  // items it peeks, so an item in both places would be counted twice and
  // the gate could strip the owner bare (steal-safety). In between, the
  // gate under-counts: it may steal less, never too much.
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  inbox_count_.fetch_sub(moved, std::memory_order_release);
  for (int64_t i = 0; i < moved; ++i) {
    const bool pushed = deque_->PushBottom(inbox_.front());
    OPTSCHED_CHECK(pushed);
    inbox_.pop_front();
  }
}

void ConcurrentRunQueue::FinishCurrent() {
  if (backend_ == QueueBackend::kLocked) {
    LockGuard guard(lock_);
    OPTSCHED_CHECK(running_);
    running_ = false;
    running_weight_ = 0;
    PublishLocked();
    return;
  }
  OPTSCHED_CHECK(running_a_.load(std::memory_order_relaxed) == 1);  // order: single-writer-store
  // One decision point for the whole accounting group. This is the ONLY
  // path that lowers the published task count without winning a top CAS —
  // thieves bracket their steal with FinishedCount() reads so the
  // steal-safety property can excuse exactly these decrements
  // (StealObservation::victim_finished_delta). Every counter here is
  // owner-written only, so plain load+store replaces lock-prefixed RMWs on
  // the per-item hot path.
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  // order: single-writer-store
  const int64_t w = running_weight_a_.load(std::memory_order_relaxed);
  running_a_.store(0, std::memory_order_relaxed);  // order: single-writer-store
  running_weight_a_.store(0, std::memory_order_relaxed);  // order: single-writer-store
  fin_weight_.store(fin_weight_.load(std::memory_order_relaxed) + w,  // order: single-writer-store
                    std::memory_order_relaxed);
  fin_tasks_.store(fin_tasks_.load(std::memory_order_relaxed) + 1,  // order: single-writer-store
                   std::memory_order_relaxed);
}

std::optional<WorkItem> ConcurrentRunQueue::FinishCurrentAndPop() {
  if (backend_ == QueueBackend::kChaseLev) {
    FinishCurrent();
    return PopForRun();
  }
  LockGuard guard(lock_);
  OPTSCHED_CHECK(running_);
  if (ready_.empty()) {
    running_ = false;
    running_weight_ = 0;
    PublishLocked();
    return std::nullopt;
  }
  // The finished item's running slot passes straight to the next one:
  // running_ stays set and the task count drops by one, in one publish.
  const WorkItem item = ready_.PopFront();
  queued_weight_ -= item.weight;
  running_weight_ = item.weight;
  PublishLocked();
  return item;
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::FinishCurrentAndRun(const WorkItem& next) {
  if (backend_ == QueueBackend::kLocked) {
    LockGuard guard(lock_);
    OPTSCHED_CHECK(running_);
    running_weight_ = next.weight;
    PublishLocked();
    return;
  }
  OPTSCHED_CHECK(running_a_.load(std::memory_order_relaxed) == 1);  // order: single-writer-store
  // order: single-writer-store
  const int64_t w = running_weight_a_.load(std::memory_order_relaxed);
  if (next.weight == w) {
    return;
  }
  // One decision point, like FinishCurrent. `next` is counted in before the
  // finished item is counted out: a reader between the stores sees both.
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  // order: single-writer-store, handoff-count-before-finish
  own_enq_weight_.store(own_enq_weight_.load(std::memory_order_relaxed) + next.weight,
                        std::memory_order_relaxed);
  running_weight_a_.store(next.weight, std::memory_order_relaxed);  // order: single-writer-store
  // order: single-writer-store, handoff-count-before-finish
  fin_weight_.store(fin_weight_.load(std::memory_order_relaxed) + w, std::memory_order_relaxed);
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::PushBatchOwner(const WorkItem* items,
                                                          uint32_t count) {
  if (count == 0) {
    return;
  }
  if (backend_ == QueueBackend::kLocked) {
    LockGuard guard(lock_);
    PushBatchLocked(items, count);
    return;
  }
  int64_t weight = 0;
  for (uint32_t i = 0; i < count; ++i) {
    weight += items[i].weight;
  }
  CountOwnerEnqueue(count, weight);
  PushToDeque(items, count);
}

// The caller is the queue's owner (seeding, a thief landing its batch, or the
// owner itself): single-writer counters, store-only. Counted BEFORE the items
// reach the deque: a thief can take a slot the moment its bottom store lands,
// and a published load that did not count it yet would read the victim as
// emptier than it is (steal-safety observes exactly that load). Between the
// two the load overcounts, the safe direction for every reader.
void ConcurrentRunQueue::CountOwnerEnqueue(int64_t tasks, int64_t weight) {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  // order: single-writer-store, count-before-push
  own_enq_tasks_.store(own_enq_tasks_.load(std::memory_order_relaxed) + tasks,
                       std::memory_order_relaxed);
  // order: single-writer-store, count-before-push
  own_enq_weight_.store(own_enq_weight_.load(std::memory_order_relaxed) + weight,
                        std::memory_order_relaxed);
}

void ConcurrentRunQueue::PushToDeque(const WorkItem* items, uint32_t count) {
  uint32_t pushed = 0;
  while (pushed < count && deque_->PushBottom(items[pushed])) {
    ++pushed;
  }
  if (pushed == count) {
    return;
  }
  // Ring full: overflow goes to the inbox and re-enters via the next
  // DrainInboxToDeque. Bounded ring + locked spill keeps the fast path
  // allocation-free without dropping work.
  {
    LockGuard guard(lock_);
    for (uint32_t i = pushed; i < count; ++i) {
      // optsched-lint: allow(hot-path-alloc): ring-overflow spill path — off the steady-state fast path by construction (the ring absorbs the working set; E14 alloc audit)
      inbox_.push_back(items[i]);
    }
  }
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  inbox_count_.fetch_add(count - pushed, std::memory_order_release);
}

void ConcurrentRunQueue::PushBatchExternal(const WorkItem* items, uint32_t count) {
  if (count == 0) {
    return;
  }
  if (backend_ == QueueBackend::kLocked) {
    LockGuard guard(lock_);
    PushBatchLocked(items, count);
    return;
  }
  // Non-owner context: the deque's bottom and the own_enq counters are both
  // single-writer owner state, so the batch lands in the inbox and is charged
  // to the external-submitter counters: one lock acquisition and one counter
  // RMW triple per batch.
  int64_t weight = 0;
  {
    LockGuard guard(lock_);
    for (uint32_t i = 0; i < count; ++i) {
      inbox_.push_back(items[i]);
      weight += items[i].weight;
    }
  }
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadWrite, this);
  inbox_count_.fetch_add(count, std::memory_order_release);
  ext_enq_tasks_.fetch_add(count, std::memory_order_relaxed);  // order: external-submit-counter
  ext_enq_weight_.fetch_add(weight, std::memory_order_relaxed);  // order: external-submit-counter
}

OPTSCHED_HOT_PATH LoadPair ConcurrentRunQueue::ReadLoad() const {
  if (backend_ == QueueBackend::kLocked) {
    LoadPair load;
    if (!published_.TryRead(load, kSeqlockReadAttempts)) {
      // An owner that publishes faster than this reader copies can tear
      // every attempt: under ThreadSanitizer the supervisor's watchdog
      // snapshot spent most of a 40 ms run here (EXPERIMENTS.md E24).
      // Writers publish under the queue lock, so one read under it succeeds.
      LockGuard guard(lock_);
      load = published_.Read();
    }
    return load;
  }
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kDequeLoadRead, this);
  LoadPair load;
  load.task_count = TasksRelaxed();
  // order: torn-read-tolerated
  load.weighted_load = own_enq_weight_.load(std::memory_order_relaxed) +
                       // order: torn-read-tolerated
                       ext_enq_weight_.load(std::memory_order_relaxed) -
                       fin_weight_.load(std::memory_order_relaxed) -  // order: torn-read-tolerated
                       // order: torn-read-tolerated
                       stolen_weight_.load(std::memory_order_relaxed);
  return load;
}

LoadPair ConcurrentRunQueue::ExactLoad() {
  LockGuard guard(lock_);
  if (backend_ == QueueBackend::kLocked) {
    return ExactLoadLocked();
  }
  LoadPair load;
  int64_t inbox_weight = 0;
  for (const WorkItem& item : inbox_) {
    inbox_weight += item.weight;
  }
  load.task_count = deque_->SizeRelaxed() + static_cast<int64_t>(inbox_.size()) +
                    running_a_.load(std::memory_order_relaxed);  // order: quiescent-report
  load.weighted_load = deque_->SumWeightRelaxed() + inbox_weight +
                       // order: quiescent-report
                       running_weight_a_.load(std::memory_order_relaxed);
  return load;
}

OPTSCHED_HOT_PATH LoadPair ConcurrentRunQueue::ExactLoadLocked() const {
  LoadPair load;
  load.task_count = static_cast<int64_t>(ready_.size()) + (running_ ? 1 : 0);
  load.weighted_load = queued_weight_ + running_weight_;
  return load;
}

OPTSCHED_HOT_PATH uint32_t ConcurrentRunQueue::StealTailLocked(
    FunctionRef<bool(const WorkItem&)> eligible, uint32_t max_items,
    std::vector<WorkItem>& out) {
  uint32_t taken = 0;
  // Newest-first scan by index. Skipped items stay skipped: the batch only
  // tightens the loads as it grows, so an item the rule rejected at a wider
  // gap cannot become eligible later.
  for (size_t i = ready_.size(); i > 0 && taken < max_items;) {
    --i;
    if (!eligible(ready_[i])) {
      continue;
    }
    const WorkItem item = ready_[i];
    ready_.Erase(i);
    queued_weight_ -= item.weight;
    // optsched-lint: allow(hot-path-alloc): scratch batch at high-water capacity after warmup (E14 alloc audit)
    out.push_back(item);
    ++taken;
  }
  if (taken > 0) {
    // One publish for the whole batch: with per-item publishes a batch of N
    // performed N seqlock writes under BOTH held locks, each one stalling
    // every concurrent snapshot reader into a retry loop.
    PublishLocked();
  }
  return taken;
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::PushBatchLocked(const WorkItem* items,
                                                           uint32_t count) {
  if (count == 0) {
    return;
  }
  for (uint32_t i = 0; i < count; ++i) {
    queued_weight_ += items[i].weight;
  }
  // The ring grows only past its high-water size and never shrinks (E14a
  // audits the steady state allocation-free).
  ready_.PushBatch(items, count);
  PublishLocked();
}

OPTSCHED_HOT_PATH WorkItem ConcurrentRunQueue::LandAndRunLocked(const WorkItem* items,
                                                                uint32_t count) {
  OPTSCHED_DCHECK(count > 0 && !running_);
  running_ = true;
  running_weight_ = items[0].weight;
  if (count > 1) {
    PushBatchLocked(items + 1, count - 1);
  } else {
    PublishLocked();
  }
  return items[0];
}

OPTSCHED_HOT_PATH ChaseLevDeque::TopPeek ConcurrentRunQueue::PeekSteal() const {
  OPTSCHED_DCHECK(backend_ == QueueBackend::kChaseLev);
  return deque_->PeekTop();
}

OPTSCHED_HOT_PATH bool ConcurrentRunQueue::TakeStealDeferred(const ChaseLevDeque::TopPeek& peek) {
  OPTSCHED_DCHECK(backend_ == QueueBackend::kChaseLev);
  return deque_->TakeTop(peek);
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::CommitStealAccounting(uint32_t items, int64_t weight) {
  OPTSCHED_DCHECK(backend_ == QueueBackend::kChaseLev);
  if (items == 0) {
    return;
  }
  // Deliberately NO SyncPoint: under the checker the deferred decrement
  // merges into the adjacent step, so the hook sequence (and every committed
  // golden schedule) is the one a take with its accounting inside the CAS
  // step would produce. The
  // overcount window this hides is benign by the safe-direction argument in
  // the header — the checker still discharges the end-state properties.
  stolen_tasks_.fetch_add(items, std::memory_order_relaxed);  // order: steal-commit-batch
  stolen_weight_.fetch_add(weight, std::memory_order_relaxed);  // order: steal-commit-batch
}

OPTSCHED_HOT_PATH WorkItem ConcurrentRunQueue::LandAndRunOwner(const WorkItem* items,
                                                               uint32_t count) {
  OPTSCHED_DCHECK(backend_ == QueueBackend::kChaseLev && count > 0);
  const WorkItem& run = items[count - 1];
  // The running item is counted in own_enq like a pushed one (tasks =
  // enqueued − finished − stolen covers running items too), and the whole
  // batch is counted before any of it becomes stealable (CountOwnerEnqueue).
  int64_t weight = 0;
  for (uint32_t i = 0; i < count; ++i) {
    weight += items[i].weight;
  }
  CountOwnerEnqueue(count, weight);
  running_a_.store(1, std::memory_order_relaxed);  // order: single-writer-store
  running_weight_a_.store(run.weight, std::memory_order_relaxed);  // order: single-writer-store
  PushToDeque(items, count - 1);
  return run;
}

ConcurrentMachine::ConcurrentMachine(uint32_t num_queues, const MachineOptions& options)
    : options_(options) {
  OPTSCHED_CHECK(num_queues > 0);
  queues_.reserve(num_queues);
  for (uint32_t i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<ConcurrentRunQueue>(
        options_.backend, options_.deque_capacity, options_.broken_steal_order));
  }
}

OPTSCHED_HOT_PATH void ConcurrentMachine::SnapshotInto(LoadSnapshot& out) const {
  // resize() is a no-op after the first call on a reused buffer; the refill
  // happens in place, so the selection phase never touches the allocator.
  // optsched-lint: allow(hot-path-alloc): resize to a constant queue count — allocates once, first call only
  out.task_count.resize(queues_.size());
  // optsched-lint: allow(hot-path-alloc): resize to a constant queue count — allocates once, first call only
  out.weighted_load.resize(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    const LoadPair load = queues_[i]->ReadLoad();
    out.task_count[i] = load.task_count;
    out.weighted_load[i] = load.weighted_load;
  }
}

LoadSnapshot ConcurrentMachine::Snapshot() const {
  LoadSnapshot snap;
  SnapshotInto(snap);
  return snap;
}

void ConcurrentMachine::LockedSnapshotInto(LoadSnapshot& out) {
  OPTSCHED_CHECK_MSG(options_.backend == QueueBackend::kLocked,
                     "locked selection (D3) requires the locked backend");
  // Lock everything in index order (the machine-wide ranking): exact, but
  // owners stall on their own queue lock for the duration — the cost the
  // paper's design deliberately avoids.
  for (auto& queue : queues_) {
    queue->lock().lock();
  }
  out.task_count.resize(queues_.size());
  out.weighted_load.resize(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    const LoadPair load = queues_[i]->ExactLoadLocked();
    out.task_count[i] = load.task_count;
    out.weighted_load[i] = load.weighted_load;
  }
  for (auto it = queues_.rbegin(); it != queues_.rend(); ++it) {
    (*it)->lock().unlock();
  }
}

LoadSnapshot ConcurrentMachine::LockedSnapshot() {
  LoadSnapshot snap;
  LockedSnapshotInto(snap);
  return snap;
}

uint64_t ConcurrentMachine::TotalSeqlockReadRetries() const {
  uint64_t total = 0;
  for (const auto& queue : queues_) {
    total += queue->SeqlockReadRetries();
  }
  return total;
}

uint64_t ConcurrentMachine::TotalSeqlockWrites() const {
  uint64_t total = 0;
  for (const auto& queue : queues_) {
    total += queue->SeqlockWriteCount();
  }
  return total;
}

OPTSCHED_HOT_PATH bool ConcurrentMachine::TrySteal(
    const BalancePolicy& policy, CpuId thief, const LoadSnapshot& snapshot, Rng& rng,
    const StealOptions& options, StealCounters& counters, const Topology* topology,
    CpuId* victim_out, StealObservation* observation_out, StealScratch* scratch,
    WorkItem* run_next) {
  StealScratch local_scratch;  // tests and the mc harness may not thread one
  StealScratch& s = scratch != nullptr ? *scratch : local_scratch;

  // --- Selection phase (no locks, no allocations, backend-independent) -------
  const SelectionView view{.self = thief, .snapshot = snapshot, .topology = topology};
  policy.FilterCandidatesInto(view, s.candidates);  // step 1
  if (s.candidates.empty()) {
    ++counters.empty_filter;
    return false;
  }
  const CpuId victim = policy.SelectCore(view, s.candidates, rng);  // step 2
  OPTSCHED_CHECK(victim != thief);
  if (victim_out != nullptr) {
    *victim_out = victim;
  }
  ++counters.attempts;

  if (options_.backend == QueueBackend::kChaseLev) {
    return TryStealChaseLev(policy, thief, snapshot, victim, options, counters, topology,
                            observation_out, s, run_next);
  }
  return TryStealLocked(policy, thief, snapshot, victim, options, counters, topology,
                        observation_out, s, run_next);
}

OPTSCHED_HOT_PATH bool ConcurrentMachine::TryStealLocked(
    const BalancePolicy& policy, CpuId thief, const LoadSnapshot& snapshot, CpuId victim,
    const StealOptions& options, StealCounters& counters, const Topology* topology,
    StealObservation* observation_out, StealScratch& s, WorkItem* run_next) {
  // --- Stealing phase (two locks, queue-index order) -------------------------
  ConcurrentRunQueue& victim_queue = *queues_[victim];
  ConcurrentRunQueue& thief_queue = *queues_[thief];
  // Index order, the machine-wide lock ranking (see DualLockGuard). The rank
  // is decided at runtime, so the thread-safety analysis cannot map the
  // guard's {lower, higher} pair back to {victim, thief} by itself; the
  // AssertHeld() pair below re-anchors it — the REQUIRES(lock_) checks on
  // every *Locked call in this phase are live again from there on.
  ConcurrentRunQueue& lower_queue = thief < victim ? thief_queue : victim_queue;
  ConcurrentRunQueue& higher_queue = thief < victim ? victim_queue : thief_queue;
  DualLockGuard guard(lower_queue.lock(), higher_queue.lock());
  victim_queue.lock().AssertHeld();
  thief_queue.lock().AssertHeld();
  // Checked before anything moves, like PopForRun's single-current check.
  OPTSCHED_CHECK_MSG(run_next == nullptr || !thief_queue.RunningLocked(),
                     "owner already runs an item");

  // Exact loads for the locked pair; other cores stay as the (stale) snapshot
  // observed them — a thief can only be sure of what it locked. The copy
  // assignment reuses the scratch snapshot's capacity (no allocation).
  LoadSnapshot& locked_snapshot = s.locked_snapshot;
  locked_snapshot.task_count = snapshot.task_count;
  locked_snapshot.weighted_load = snapshot.weighted_load;
  const LoadPair victim_load = victim_queue.ExactLoadLocked();
  const LoadPair thief_load = thief_queue.ExactLoadLocked();
  locked_snapshot.task_count[victim] = victim_load.task_count;
  locked_snapshot.weighted_load[victim] = victim_load.weighted_load;
  locked_snapshot.task_count[thief] = thief_load.task_count;
  locked_snapshot.weighted_load[thief] = thief_load.weighted_load;

  const SelectionView locked_view{.self = thief, .snapshot = locked_snapshot,
                                  .topology = topology};
  if (options.recheck && !policy.CanSteal(locked_view, victim)) {
    ++counters.failed_recheck;
    return false;
  }

  const uint64_t writes_before =
      victim_queue.SeqlockWriteCount() + thief_queue.SeqlockWriteCount();

  const LoadMetric metric = policy.metric();
  // Running pair loads, updated as the batch grows so every migration is
  // judged against the loads it would actually act on.
  int64_t v = metric == LoadMetric::kTaskCount ? victim_load.task_count
                                               : victim_load.weighted_load;
  int64_t t = metric == LoadMetric::kTaskCount ? thief_load.task_count
                                               : thief_load.weighted_load;
  uint32_t max_items;
  if (options.break_batch_bound) {
    // mc fault mode: no cap — the harness wants the victim stripped bare.
    max_items = ~0u;
  } else {
    max_items = std::min(std::max(options.max_batch, 1u),
                         std::max(policy.StealBatchHint(v, t), 1u));
  }
  s.batch.clear();
  const uint32_t moved = victim_queue.StealTailLocked(
      [&](const WorkItem& item) {
        if (options.break_batch_bound) {
          return true;  // ignore the migration rule: provoke the violation
        }
        const int64_t w =
            metric == LoadMetric::kTaskCount ? 1 : static_cast<int64_t>(item.weight);
        if (!policy.ShouldMigrate(w, v, t)) {
          return false;
        }
        v -= w;  // returning true commits the removal; keep the running
        t += w;  // loads exact for the next candidate
        return true;
      },
      max_items, s.batch);
  if (moved == 0) {
    ++counters.failed_no_task;
    return false;
  }
  if (run_next != nullptr) {
    *run_next = thief_queue.LandAndRunLocked(s.batch.data(), moved);
  } else {
    thief_queue.PushBatchLocked(s.batch.data(), moved);
  }
  ++counters.successes;
  counters.items_stolen += moved;
  if (observation_out != nullptr) {
    observation_out->item_id = s.batch.front().id;
    observation_out->items_moved = moved;
    observation_out->seqlock_writes =
        victim_queue.SeqlockWriteCount() + thief_queue.SeqlockWriteCount() - writes_before;
    observation_out->victim_tasks_after = victim_queue.ExactLoadLocked().task_count;
    observation_out->thief_tasks_after = thief_queue.ExactLoadLocked().task_count;
    observation_out->victim_finished_delta = 0;  // victim frozen under its lock
  }
  return true;
}

OPTSCHED_HOT_PATH bool ConcurrentMachine::TryStealChaseLev(
    const BalancePolicy& policy, CpuId thief, const LoadSnapshot& snapshot, CpuId victim,
    const StealOptions& options, StealCounters& counters, const Topology* topology,
    StealObservation* observation_out, StealScratch& s, WorkItem* run_next) {
  ConcurrentRunQueue& victim_queue = *queues_[victim];
  ConcurrentRunQueue& thief_queue = *queues_[thief];
  // The thief reads its own running flag: single writer, so exact.
  OPTSCHED_CHECK_MSG(run_next == nullptr || thief_queue.RunningRelaxed() == 0,
                     "owner already runs an item");

  // --- Optimistic re-check (no locks exist to take) --------------------------
  // Refresh the pair's published loads; other cores stay as the (stale)
  // snapshot observed them. This is the same CanSteal gate the locked
  // backend runs under its two locks — here it runs on loads that can go
  // stale again immediately, which is fine: the per-item gate below plus the
  // top CAS carry the actual safety argument.
  LoadSnapshot& fresh_snapshot = s.locked_snapshot;
  fresh_snapshot.task_count = snapshot.task_count;
  fresh_snapshot.weighted_load = snapshot.weighted_load;
  const LoadPair victim_load = victim_queue.ReadLoad();
  const LoadPair thief_load = thief_queue.ReadLoad();
  fresh_snapshot.task_count[victim] = victim_load.task_count;
  fresh_snapshot.weighted_load[victim] = victim_load.weighted_load;
  fresh_snapshot.task_count[thief] = thief_load.task_count;
  fresh_snapshot.weighted_load[thief] = thief_load.weighted_load;
  const SelectionView fresh_view{.self = thief, .snapshot = fresh_snapshot,
                                 .topology = topology};
  if (options.recheck && !policy.CanSteal(fresh_view, victim)) {
    ++counters.failed_recheck;
    return false;
  }

  const uint64_t finished_before = victim_queue.FinishedCount();
  const LoadMetric metric = policy.metric();
  const int64_t v0 = metric == LoadMetric::kTaskCount ? victim_load.task_count
                                                      : victim_load.weighted_load;
  const int64_t t0 = metric == LoadMetric::kTaskCount ? thief_load.task_count
                                                      : thief_load.weighted_load;
  uint32_t max_items;
  if (options.break_batch_bound) {
    max_items = ~0u;  // mc fault mode: strip the victim bare
  } else {
    max_items = std::min(std::max(options.max_batch, 1u),
                         std::max(policy.StealBatchHint(v0, t0), 1u));
  }

  s.batch.clear();
  uint32_t moved = 0;
  int64_t moved_metric = 0;   // what the batch has added to the thief so far
  int64_t moved_weight = 0;   // victim-side weight to commit after the loop
  bool cas_lost = false;
  // The owner's running flag is read before the first peek and its inbox
  // count after each one. The owner lowers bottom before it raises the flag
  // (PopForRun) and drops the inbox count before its refill pushes
  // (DrainInboxToDeque), so neither read counts an item the peek already
  // saw. Counted twice, an item could make the gate strip the owner bare.
  const int64_t victim_running = victim_queue.RunningRelaxed();
  while (moved < max_items) {
    const ChaseLevDeque::TopPeek peek = victim_queue.PeekSteal();
    if (!peek.found) {
      break;
    }
    if (!options.break_batch_bound) {
      // Per-item migration gate, anchored to the SAME top index the commit
      // CAS validates: if TakeStealDeferred succeeds, no competing thief (and no
      // owner-last-item pop) intervened since this peek, so the gate judged
      // the state it acted on. The victim load is recomputed from the peek
      // each iteration — peek.size counts exactly the still-stealable items
      // at that top, plus the owner's current item and any inbox residents.
      // Owner progress between gate and commit can only LOWER the victim's
      // count via FinishCurrent, which the steal-safety property excuses
      // through victim_finished_delta.
      const int64_t w =
          metric == LoadMetric::kTaskCount ? 1 : static_cast<int64_t>(peek.item.weight);
      int64_t v_now;
      if (metric == LoadMetric::kTaskCount) {
        // peek.size is exact at the top index the commit validates.
        v_now = peek.size + victim_running + victim_queue.InboxCountRelaxed();
      } else {
        // Deferred accounting: ReadLoad still counts this batch's takes, so
        // subtract them to judge the load a fresh observer would see.
        v_now = victim_queue.ReadLoad().weighted_load - moved_weight;
      }
      const int64_t t_now = t0 + moved_metric;
      if (!policy.ShouldMigrate(w, v_now, t_now)) {
        break;
      }
    }
    if (!victim_queue.TakeStealDeferred(peek)) {
      cas_lost = true;  // top moved since the peek: a stale observation
      break;
    }
    // optsched-lint: allow(hot-path-alloc): scratch batch at high-water capacity after warmup (E14 alloc audit)
    s.batch.push_back(peek.item);
    ++moved;
    moved_weight += static_cast<int64_t>(peek.item.weight);
    moved_metric +=
        metric == LoadMetric::kTaskCount ? 1 : static_cast<int64_t>(peek.item.weight);
  }
  victim_queue.CommitStealAccounting(moved, moved_weight);

  if (moved == 0) {
    if (cas_lost) {
      // The lock-free analogue of losing the locked re-check: another core
      // changed the state between observation and commit. Counted as
      // failed_recheck so ablation comparisons line up across backends.
      ++counters.failed_recheck;
    } else {
      ++counters.failed_no_task;
    }
    return false;
  }
  // The thief owns its queue: landing the batch is an owner push.
  if (run_next != nullptr) {
    *run_next = thief_queue.LandAndRunOwner(s.batch.data(), moved);
  } else {
    thief_queue.PushBatchOwner(s.batch.data(), moved);
  }
  ++counters.successes;
  counters.items_stolen += moved;
  if (observation_out != nullptr) {
    observation_out->item_id = s.batch.front().id;
    observation_out->items_moved = moved;
    observation_out->seqlock_writes = 0;  // no seqlock on this backend
    // Read tasks BEFORE the finished count: a FinishCurrent landing between
    // the reads then inflates the sum (safe direction — the property asserts
    // a lower bound) instead of deflating it into a spurious violation.
    observation_out->victim_tasks_after = victim_queue.TasksRelaxed();
    observation_out->thief_tasks_after = thief_queue.TasksRelaxed();
    observation_out->victim_finished_delta =
        static_cast<int64_t>(victim_queue.FinishedCount() - finished_before);
  }
  return true;
}

}  // namespace optsched::runtime
