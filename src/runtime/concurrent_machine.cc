#include "src/runtime/concurrent_machine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/runtime/mc_hooks.h"

namespace optsched::runtime {
namespace {

int64_t SumWeight(const WorkItem* items, uint32_t count) {
  int64_t weight = 0;
  for (uint32_t i = 0; i < count; ++i) {
    weight += items[i].weight;
  }
  return weight;
}

}  // namespace

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
  // and both published words within the first 64 bytes of the object.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static_assert(offsetof(ConcurrentRunQueue, lock_) % kCacheLineSize == 0 &&
                    offsetof(ConcurrentRunQueue, published_weight_) +
                            sizeof(published_weight_) - offsetof(ConcurrentRunQueue, lock_) <=
                        kCacheLineSize,
                "the kLocked lock, running slot, weights and published load must share one line");
#pragma GCC diagnostic pop
  if (backend_ == QueueBackend::kChaseLev) {
    deque_ = std::make_unique<ChaseLevDeque>(deque_capacity, broken_steal_order);
  }
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::PublishLocked() {
  const LoadPair load = ExactLoadLocked();
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
  // order: publish-under-lock
  published_tasks_.store(load.task_count, std::memory_order_relaxed);
  // order: publish-under-lock
  published_weight_.store(load.weighted_load, std::memory_order_relaxed);
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
  // The popped item stays in the published count (it is the core's "current"
  // until FinishCurrent): only the running flag and its weight move.
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
  running_a_.store(1, std::memory_order_relaxed);  // order: single-writer-store
  running_weight_a_.store(item->weight, std::memory_order_relaxed);  // order: single-writer-store
  return item;
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::DrainInboxToDeque() {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadRead, this);
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
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
  inbox_count_.fetch_sub(moved, std::memory_order_release);
  for (int64_t i = 0; i < moved; ++i) {
    const bool pushed = deque_->PushBottom(inbox_.PopFront());
    OPTSCHED_CHECK(pushed);
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
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
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
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
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
  CountOwnerEnqueue(count, SumWeight(items, count));
  PushToDeque(items, count);
}

// The caller is the queue's owner (seeding, a thief landing its batch, or the
// owner itself): single-writer counters, store-only. Counted BEFORE the items
// reach the deque: a thief can take a slot the moment its bottom store lands,
// and a published load that did not count it yet would read the victim as
// emptier than it is (steal-safety observes exactly that load). Between the
// two the load overcounts, the safe direction for every reader.
void ConcurrentRunQueue::CountOwnerEnqueue(int64_t tasks, int64_t weight) {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
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
    // optsched-lint: allow(hot-path-alloc): ring-overflow spill path — off the steady-state fast path by construction (the ring absorbs the working set; E14 alloc audit)
    inbox_.PushBatch(items + pushed, count - pushed);
  }
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
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
  const int64_t weight = SumWeight(items, count);
  {
    LockGuard guard(lock_);
    inbox_.PushBatch(items, count);
  }
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
  inbox_count_.fetch_add(count, std::memory_order_release);
  ext_enq_tasks_.fetch_add(count, std::memory_order_relaxed);  // order: external-submit-counter
  ext_enq_weight_.fetch_add(weight, std::memory_order_relaxed);  // order: external-submit-counter
}

OPTSCHED_HOT_PATH LoadPair ConcurrentRunQueue::ReadLoad() const {
  mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadRead, this);
  LoadPair load;
  if (backend_ == QueueBackend::kLocked) {
    // order: torn-read-tolerated
    load.task_count = published_tasks_.load(std::memory_order_relaxed);
    // order: torn-read-tolerated
    load.weighted_load = published_weight_.load(std::memory_order_relaxed);
    return load;
  }
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
  for (size_t i = 0; i < inbox_.size(); ++i) {
    inbox_weight += inbox_[i].weight;
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
    // One publish for the whole batch, not one per item (the checker's
    // publish-batching property).
    PublishLocked();
  }
  return taken;
}

OPTSCHED_HOT_PATH void ConcurrentRunQueue::PushBatchLocked(const WorkItem* items,
                                                           uint32_t count) {
  if (count == 0) {
    return;
  }
  queued_weight_ += SumWeight(items, count);
  // optsched-lint: allow(hot-path-alloc): the ring grows only past its high-water size and never shrinks (E14a audits the steady state allocation-free)
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
  // step would produce. The overcount window this hides is benign (see the
  // header); the checker still discharges the end-state properties.
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
  CountOwnerEnqueue(count, SumWeight(items, count));
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

namespace {

// The migration rule applied item by item as a batch grows (§4.2): each
// candidate is judged against the pair view's loads less what the batch has
// moved, so every move strictly lowers the potential and the victim is never
// idled. `unbounded` is the mc fault break_batch_bound: no cap, no rule.
struct BatchGate {
  const BalancePolicy& policy;
  bool by_count;  // the policy's metric: task count, else weight
  bool unbounded;
  int64_t victim;  // pair-view loads in that metric
  int64_t thief;
  uint32_t max_items = 0;
  int64_t moved = 0;  // metric units the batch has moved so far

  // Whether `item` may move off a victim whose load reads `victim_load()` now
  // (not called under the fault). An admitted item is charged to the thief.
  template <typename VictimLoad>
  bool Admit(const WorkItem& item, VictimLoad victim_load) {
    if (unbounded) {
      return true;
    }
    const int64_t w = by_count ? 1 : static_cast<int64_t>(item.weight);
    if (!policy.ShouldMigrate(w, victim_load(), thief + moved)) {
      return false;
    }
    moved += w;
    return true;
  }
};

// kLocked synchronization: the caller holds both queue locks, so the pair's
// loads are exact and the victim cannot run. The lock ranking was decided at
// runtime, which the thread-safety analysis cannot follow, so each member
// that calls a *Locked member re-anchors it with AssertHeld().
struct LockedPair {
  ConcurrentRunQueue& victim;
  ConcurrentRunQueue& thief;
  static constexpr bool lost = false;  // a lock holder races no one

  bool ThiefRunning() const {
    thief.lock().AssertHeld();
    return thief.RunningLocked();
  }
  std::pair<LoadPair, LoadPair> ReadLoads() const {  // {victim, thief}
    victim.lock().AssertHeld();
    thief.lock().AssertHeld();
    return {victim.ExactLoadLocked(), thief.ExactLoadLocked()};
  }
  // The newest-first skip scan: an item the rule rejects is passed over.
  // Nothing else moves under the locks, so the running victim load is exact.
  OPTSCHED_HOT_PATH uint32_t Take(BatchGate& gate, std::vector<WorkItem>& out) {
    victim.lock().AssertHeld();
    return victim.StealTailLocked(
        [&](const WorkItem& item) {
          return gate.Admit(item, [&] { return gate.victim - gate.moved; });
        },
        gate.max_items, out);
  }
  // Either landing publishes the thief once, inside the two-lock section.
  WorkItem LandAndRun(const WorkItem* items, uint32_t count) {
    thief.lock().AssertHeld();
    return thief.LandAndRunLocked(items, count);
  }
  void Land(const WorkItem* items, uint32_t count) {
    thief.lock().AssertHeld();
    thief.PushBatchLocked(items, count);
  }
  // victim_finished_delta stays 0: the victim is frozen under its lock.
  void ReadAfter(StealObservation& observation) const {
    victim.lock().AssertHeld();
    thief.lock().AssertHeld();
    observation.victim_tasks_after = victim.ExactLoadLocked().task_count;
    observation.thief_tasks_after = thief.ExactLoadLocked().task_count;
  }
};

// kChaseLev synchronization: there is no lock to take. The pair view reads
// the published loads, which may go stale at once. The safety argument rests
// on the per-item gate: it judges the state at the peeked top index, and the
// commit CAS succeeds only if no thief (and no owner pop of the last item)
// moved that index since. A lost CAS is the lock-free failed re-check.
struct ChaseLevPair {
  ConcurrentRunQueue& victim;
  ConcurrentRunQueue& thief;
  bool lost = false;
  uint64_t finished_before = 0;  // the victim's FinishedCount() before the take

  // The thief reads its own run flag: single writer, so exact.
  bool ThiefRunning() const { return thief.RunningRelaxed() != 0; }
  // Victim first: braced initializers are evaluated in order.
  std::pair<LoadPair, LoadPair> ReadLoads() const { return {victim.ReadLoad(), thief.ReadLoad()}; }
  // Peek -> gate -> top CAS per item, stopping at the first item the rule
  // rejects. Owner progress between gate and commit can only LOWER the
  // victim's count, via FinishCurrent, which the steal-safety property
  // excuses through the FinishedCount bracket (ReadAfter).
  OPTSCHED_HOT_PATH uint32_t Take(BatchGate& gate, std::vector<WorkItem>& out) {
    finished_before = victim.FinishedCount();
    // The owner's running flag is read before the first peek and its inbox
    // count after each one. The owner lowers bottom before it raises the flag
    // (PopForRun) and drops the inbox count before its refill pushes
    // (DrainInboxToDeque), so neither read counts an item the peek already
    // saw. Counted twice, an item could make the gate strip the owner bare.
    const int64_t victim_running = victim.RunningRelaxed();
    uint32_t moved = 0;
    int64_t moved_weight = 0;  // victim-side weight to commit after the loop
    while (moved < gate.max_items) {
      const ChaseLevDeque::TopPeek peek = victim.PeekSteal();
      if (!peek.found || !gate.Admit(peek.item, [&] {
            // By count, peek.size is exact at the top the commit validates.
            // By weight, ReadLoad still counts this batch's deferred takes.
            return gate.by_count ? peek.size + victim_running + victim.InboxCountRelaxed()
                                 : victim.ReadLoad().weighted_load - moved_weight;
          })) {
        break;
      }
      if (!victim.TakeStealDeferred(peek)) {
        lost = true;  // top moved since the peek: a stale observation
        break;
      }
      // optsched-lint: allow(hot-path-alloc): scratch batch at high-water capacity after warmup (E14 alloc audit)
      out.push_back(peek.item);
      ++moved;
      moved_weight += static_cast<int64_t>(peek.item.weight);
    }
    victim.CommitStealAccounting(moved, moved_weight);
    return moved;
  }
  // The thief owns its queue: landing the batch is an owner push.
  WorkItem LandAndRun(const WorkItem* items, uint32_t count) {
    return thief.LandAndRunOwner(items, count);
  }
  void Land(const WorkItem* items, uint32_t count) { thief.PushBatchOwner(items, count); }
  // Tasks are read BEFORE the finished count: a FinishCurrent landing between
  // the reads then inflates the sum (safe direction — the property asserts a
  // lower bound) instead of deflating it into a spurious violation.
  void ReadAfter(StealObservation& observation) const {
    observation.victim_tasks_after = victim.TasksRelaxed();
    observation.thief_tasks_after = thief.TasksRelaxed();
    observation.victim_finished_delta =
        static_cast<int64_t>(victim.FinishedCount() - finished_before);
  }
};

// The stealing phase, one body over either substrate: refresh the pair view,
// re-check the filter on it (Listing 1 line 12), move the batch the migration
// rule admits and land it on the thief.
template <typename Pair>
OPTSCHED_HOT_PATH bool StealPhase(Pair& pair, const BalancePolicy& policy,
                                  const SelectionView& view, CpuId victim,
                                  const StealOptions& options, StealCounters& counters,
                                  StealObservation* observation_out, StealScratch& s,
                                  WorkItem* run_next) {
  // Checked before anything moves, like PopForRun's single-current check.
  OPTSCHED_CHECK_MSG(run_next == nullptr || !pair.ThiefRunning(),
                     "owner already runs an item");
  // The pair's loads as the backend reads them now; other cores stay as the
  // (stale) snapshot observed them. The copy assignment reuses the scratch
  // snapshot's capacity (no allocation).
  LoadSnapshot& pair_view = s.pair_view;
  pair_view.task_count = view.snapshot.task_count;
  pair_view.weighted_load = view.snapshot.weighted_load;
  const auto [victim_load, thief_load] = pair.ReadLoads();
  pair_view.task_count[victim] = victim_load.task_count;
  pair_view.weighted_load[victim] = victim_load.weighted_load;
  pair_view.task_count[view.self] = thief_load.task_count;
  pair_view.weighted_load[view.self] = thief_load.weighted_load;
  if (options.recheck &&
      !policy.CanSteal({.self = view.self, .snapshot = pair_view, .topology = view.topology},
                       victim)) {
    ++counters.failed_recheck;
    return false;
  }

  const bool by_count = policy.metric() == LoadMetric::kTaskCount;
  const int64_t v = by_count ? victim_load.task_count : victim_load.weighted_load;
  const int64_t t = by_count ? thief_load.task_count : thief_load.weighted_load;
  BatchGate gate{.policy = policy, .by_count = by_count,
                 .unbounded = options.break_batch_bound, .victim = v, .thief = t};
  gate.max_items = gate.unbounded ? ~0u
                                  : std::min(std::max(options.max_batch, 1u),
                                             std::max(policy.StealBatchHint(v, t), 1u));
  s.batch.clear();
  const uint32_t moved = pair.Take(gate, s.batch);
  if (moved == 0) {
    // A lost top CAS is the lock-free analogue of losing the locked re-check,
    // counted as one so ablation comparisons line up across backends.
    ++(pair.lost ? counters.failed_recheck : counters.failed_no_task);
    return false;
  }
  if (run_next != nullptr) {
    *run_next = pair.LandAndRun(s.batch.data(), moved);
  } else {
    pair.Land(s.batch.data(), moved);
  }
  ++counters.successes;
  counters.items_stolen += moved;
  if (observation_out != nullptr) {
    *observation_out = StealObservation{.item_id = s.batch.front().id, .items_moved = moved};
    pair.ReadAfter(*observation_out);
  }
  return true;
}

}  // namespace

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

  // --- Stealing phase (step 3) -----------------------------------------------
  ConcurrentRunQueue& victim_queue = *queues_[victim];
  ConcurrentRunQueue& thief_queue = *queues_[thief];
  if (options_.backend == QueueBackend::kChaseLev) {
    ChaseLevPair pair{.victim = victim_queue, .thief = thief_queue};
    return StealPhase(pair, policy, view, victim, options, counters, observation_out, s,
                      run_next);
  }
  // Two locks in index order, the machine-wide lock ranking (see
  // DualLockGuard), held until the observation is read.
  ConcurrentRunQueue& lower_queue = thief < victim ? thief_queue : victim_queue;
  ConcurrentRunQueue& higher_queue = thief < victim ? victim_queue : thief_queue;
  DualLockGuard guard(lower_queue.lock(), higher_queue.lock());
  LockedPair pair{.victim = victim_queue, .thief = thief_queue};
  return StealPhase(pair, policy, view, victim, options, counters, observation_out, s,
                    run_next);
}

}  // namespace optsched::runtime
