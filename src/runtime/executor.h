// Multi-threaded work-stealing executor: the paper's scheduler running on
// real host threads.
//
// One std::thread per simulated core. Each worker loops: pop from its own
// runqueue, execute the item (a calibrated spin), and when its queue is
// empty, run the three-step balancing protocol to steal work. Selection is
// lock-free by default (a snapshot of the published loads, DESIGN.md D3); the
// `locked_selection` ablation takes every runqueue lock during selection
// instead, quantifying the cost the paper's optimistic design avoids. The
// `recheck_filter` ablation (D2) disables the steal-phase re-check.
//
// Robustness layer (docs/robustness.md):
//  * A worker whose protocol attempts keep failing parks in bounded
//    exponential backoff instead of hammering the snapshot path
//    (Leiserson-style: failed steals are bounded, so idle cores should pay
//    less for each extra failure). It announces itself idle on its first
//    fruitless round and parks after a fixed number of fruitless rounds
//    more.
//  * A FaultPlan (src/fault) perturbs the seams: stalled stragglers, forced
//    steal aborts, artificially stale snapshots, and worker crash-and-restart
//    — the worker genuinely leaves its loop, and its own thread waits out
//    the plan's restart delay and enters the loop afresh (queues are shared
//    memory, so no item is lost: fail-stop between items, as in the paper's
//    model).
//  * A work-conservation watchdog samples the lock-free load snapshot and
//    each worker's idle word, which the worker writes only on its idle path,
//    and charges a worker at load 0 beside an overloaded queue only if it
//    stayed announced idle in one episode and beat between two samples. It
//    tracks idle-while-overloaded streaks and escalates a persistent
//    violation by notifying the wakeup gate, which snaps every parked worker
//    out of backoff into an immediate full-rate balancing attempt. The gate
//    is the idle path's one wakeup protocol: new work and escalations end a
//    park the same way.
//
// Publication on demand (docs/runtime.md, "Spawn segment"): a task body's
// final flush stays in its worker's private spawn segment, counted as
// submitted but in no queue, and the worker runs the newest item next. The
// segment is published (one owner push, one notify) at an item boundary
// where a relaxed peek of the gate's idle count reads non-zero, on a crash,
// at a RunFor deadline, and in halves on overflow. So an idle thief may see
// an owner at load 1 that holds k private items. The gap is bounded: once
// an idle announcement is visible to the owner, the owner publishes or
// empties its segment at its next item boundary, before it finishes one
// more item (the checker's bounded-idleness property, forkjoin mode).

#ifndef OPTSCHED_SRC_RUNTIME_EXECUTOR_H_
#define OPTSCHED_SRC_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/fault/fault.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/ingress_source.h"
#include "src/runtime/termination.h"
#include "src/runtime/wakeup_gate.h"
#include "src/stats/histogram.h"
#include "src/trace/accounting.h"
#include "src/trace/collector.h"
#include "src/trace/metrics.h"

namespace optsched::runtime {

class Executor;

// The executor's view of a structured-parallelism task layer (docs/tasks.md).
// Kept in src/runtime so the dependency points upward, exactly like
// IngressSource: src/task implements it; the runtime knows nothing about
// join counters, task graphs or continuation bodies.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  // Executes `item` (item.task != 0) on `worker`'s thread, in place of the
  // calibrated spin. Children spawned and join continuations fired while the
  // body runs must be submitted before this returns: through
  // Executor::SubmitFromWorker, or, for the body's final flush, through
  // Executor::HandOffFromWorker, which keeps the flush in the worker's
  // private spawn segment. The loop runs the segment's newest item next and
  // publishes the rest once a sibling is idle, on a crash or at a RunFor
  // deadline.
  virtual void RunItem(const WorkItem& item, Executor& executor, uint32_t worker) = 0;

  // Residue (ROADMAP item 2): the runtime never calls this. It stays only
  // because the benchmark's tracing runner overrides and calls it.
  virtual int64_t OutstandingFor(uint32_t /*worker*/) const { return 0; }
};

struct ExecutorConfig {
  uint32_t num_workers = 4;
  // Spin iterations per work unit (~tens of ns each on current hardware).
  uint64_t spin_per_unit = 50;
  // Queue-backend concept (docs/runtime.md#queue-backends): the locked
  // reference queue or the lock-free Chase-Lev deque. Every worker-loop seam
  // (pop, finish, ingress drain, steal, wakeup epoch) is backend-neutral.
  QueueBackend backend = QueueBackend::kLocked;
  // Per-queue ring bound for the chase_lev backend; overflow spills to the
  // queue's locked inbox (never dropped).
  uint32_t chase_lev_capacity = 1024;
  // D3 ablation: lock all runqueues during the selection phase. Requires the
  // locked backend (the chase_lev deque has no per-queue lock to take).
  bool locked_selection = false;
  // D2 ablation: skip the filter re-check in the steal phase.
  bool recheck_filter = true;
  // Cap on items migrated per successful steal action (batched steal-half,
  // docs/runtime.md). The effective batch per steal is
  // min(max_steal_batch, policy.StealBatchHint(victim, thief)), every item
  // still individually gated by the migration rule under both locks. 1 (the
  // default) preserves the original behaviour — the `steal_one` ablation.
  uint32_t max_steal_batch = 1;
  // Bounded exponential backoff: an idle worker's first park lasts
  // `initial_backoff_spins` CpuRelax iterations, doubling per consecutive
  // park up to `max_backoff_spins` (the bound — an idle worker is never more
  // than one capped park away from retrying, so transient faults delay
  // convergence by a bounded, configurable amount).
  uint64_t initial_backoff_spins = 64;
  uint64_t max_backoff_spins = 1 << 15;
  // Fault injection (all-zero plan = no injector, zero overhead in the loop).
  fault::FaultPlan fault_plan;
  // Work-conservation watchdog (supervisor thread): samples loads and the
  // workers' idle words every `supervisor_poll_us`, escalates when a worker
  // sits idle-while-overloaded for more than `watchdog_threshold_samples`
  // consecutive samples (0 = 2 * num_workers). The supervisor polls only
  // while the watchdog or the trace rings are on; otherwise a closed run
  // just joins its workers and RunFor sleeps once to its deadline.
  bool watchdog = false;
  uint64_t watchdog_threshold_samples = 0;
  uint64_t supervisor_poll_us = 50;
  // Concurrent observability (docs/observability.md): per-worker lock-free
  // SPSC trace rings, plus one supervisor ring for watchdog verdicts, merged
  // into ExecutorReport::trace_events after the run. Steal outcomes, backoff
  // parks, park wakeups, crashes and restarts are recorded
  // WITHOUT any lock on the selection fast path. 0 disables recording; the
  // disabled path costs one null-pointer check per event site, so throughput
  // numbers don't move.
  size_t trace_ring_capacity = 0;
  // Serving ingress (docs/serving.md): when non-null, each worker drains its
  // slice of the source into its own runqueue at round boundaries (queue
  // empty) and, under sustained local load, every kIngressDrainIntervalItems
  // executed items — so a busy owner bounds its mailbox sojourn instead of
  // starving the mailbox until it runs dry. The source must outlive the run.
  // Requires RunFor (open-system mode): closed-system Run() terminates on its
  // submitted count and would strand late-admitted mailbox items.
  IngressSource* ingress = nullptr;
  // Structured-parallelism seam (docs/tasks.md): items with item.task != 0
  // are dispatched to this runner instead of the calibrated spin. The runner
  // must outlive the run. Null rejects task items loudly.
  TaskRunner* task_runner = nullptr;
  uint64_t seed = 1;
};

// The model checker's window into the worker loop (src/mc implements it,
// docs/model_checking.md). The executor never installs one: each call site
// in the loop is one null check on a member pointer.
class WorkerProbe {
 public:
  virtual ~WorkerProbe() = default;

  // `worker` finished item `item_id` and bumped its executed count; `kept`
  // items stay in its private spawn segment after this item boundary.
  virtual void OnExecuted(uint32_t worker, uint64_t item_id, uint32_t kept) = 0;
  // `worker` read the quiescence sum as drained and leaves the loop.
  virtual void OnQuiescent(uint32_t worker, const TerminationCounts::Sums& sums) = 0;
  // One steal round of `worker`: its counters before and after, the victim
  // (when the filter chose one) and, on success, the observation taken under
  // the steal's own synchronization (StealObservation).
  virtual void OnSteal(uint32_t worker, const StealCounters& before, const StealCounters& after,
                       CpuId victim, const StealObservation& observation) = 0;
  // Exploration budget: false holds `worker` out of this round's steal
  // phase, as a straggler fault would (the round counts as fruitless).
  virtual bool MaySteal(uint32_t worker) = 0;
  // `worker` is about to block in its park with nothing yet to end it.
  virtual void OnPark(uint32_t worker) = 0;
};

// Model-checker seams (src/mc): the probe and the seeded faults. Like
// TerminationCounts' broken_read_order, no executor user sets any of them.
struct CheckerSeams {
  WorkerProbe* probe = nullptr;
  // Thieves read bottom before top with no fence (chase_lev_deque.h).
  bool broken_steal_order = false;
  // The quiescence sum reads submitted before executed (termination.h).
  bool broken_termination_order = false;
  // The loop parks on the sample of the round in which it announced itself
  // idle instead of going round once more (wakeup_gate.h).
  bool broken_wakeup_gate = false;
  // A busy worker never asks whether a sibling is idle, so its spawn segment
  // is published only on overflow, a crash or a deadline.
  bool broken_lazy_publish = false;
};

struct WorkerStats {
  uint64_t items_executed = 0;
  uint64_t units_executed = 0;
  StealCounters steals;
  uint64_t idle_loops = 0;
  // Backoff accounting: parks entered and CpuRelax spins paid inside them.
  uint64_t backoff_events = 0;
  uint64_t backoff_spins_total = 0;
  // Injected crash-and-restarts this worker index suffered.
  uint64_t crashes = 0;
  // Ingress accounting: drain actions and items moved mailbox->runqueue.
  // `submit_wakeups` counts every park cut short by the wakeup gate: a
  // submit, a mailbox notify or a watchdog escalation (see `wakeup_` below).
  uint64_t mailbox_drains = 0;
  uint64_t mailbox_items_drained = 0;
  uint64_t submit_wakeups = 0;
  // Steal-phase latency, split by outcome: successful steals and genuine
  // failed attempts (non-empty filter, lost re-check or no eligible task).
  // Failed attempts are exactly the contention §4.3 reasons about — recording
  // only successes made them invisible.
  stats::LogHistogram steal_latency_ns;
  stats::LogHistogram steal_fail_latency_ns;
  stats::LogHistogram selection_latency_ns;
  // End-to-end sojourn (WorkItem::arrival_ns -> execution finished) of
  // executed items that carried an arrival stamp; empty in closed-system
  // runs, which don't stamp.
  stats::LogHistogram sojourn_ns;

  static constexpr stats::Counter<WorkerStats> kCounters[] = {
      {"items_executed", &WorkerStats::items_executed},
      {"units_executed", &WorkerStats::units_executed},
      {"idle_loops", &WorkerStats::idle_loops},
      {"backoff.events", &WorkerStats::backoff_events},
      {"backoff.spins_total", &WorkerStats::backoff_spins_total},
      {"crashes", &WorkerStats::crashes},
      {"mailbox.drains", &WorkerStats::mailbox_drains},
      {"mailbox.items_drained", &WorkerStats::mailbox_items_drained},
      {"backoff.submit_wakeups", &WorkerStats::submit_wakeups},
  };
  static constexpr stats::Nested<WorkerStats, StealCounters> kNested = {"steals",
                                                                       &WorkerStats::steals};
};

struct ExecutorReport {
  std::vector<WorkerStats> workers;
  uint64_t wall_time_ns = 0;
  uint64_t total_items = 0;            // submitted (seeded + dynamic)
  uint64_t items_left_unexecuted = 0;  // still queued at a RunFor deadline
  // Faults the plan actually injected during the run.
  fault::FaultStats faults;
  // Watchdog verdict (all-zero when the watchdog was off).
  trace::WatchdogStats watchdog;
  // Merged time-ordered stream from the per-worker trace rings (empty when
  // trace_ring_capacity == 0) and the events lost to full rings.
  std::vector<trace::TraceEvent> trace_events;
  uint64_t trace_dropped = 0;
  // Always 0: a load read never retries. Kept only because
  // perfbench/src/layers.cc reads it for its seqlock.retries_per_attempt row.
  uint64_t seqlock_read_retries = 0;

  // Every worker's counters summed and histograms merged.
  WorkerStats Totals() const;
  // Sojourn histograms of all workers merged (arrival-stamped items only).
  stats::LogHistogram MergedSojournNs() const;
  double throughput_items_per_ms() const;
  // Snapshots every counter of the run — the workers' counter tables summed
  // and per worker, faults, watchdog, trace drops — into the registry under
  // "executor.*" names.
  void ExportMetrics(trace::MetricsRegistry& registry) const;
  std::string ToString() const;
};

class Executor {
 public:
  // `seams` is the model checker's (see CheckerSeams).
  Executor(std::shared_ptr<const BalancePolicy> policy, const ExecutorConfig& config,
           const Topology* topology = nullptr, const CheckerSeams& seams = {});

  // Seeds queue `queue_index` with `items`; call before Run.
  void Seed(uint32_t queue_index, const std::vector<WorkItem>& items);

  // Spawns the workers, runs until every seeded item has been executed, joins
  // the workers, and returns the report. The instance is reusable: each run
  // reports only the items submitted since the previous run finished (plus
  // any items a RunFor deadline left queued, which the next run executes);
  // a second Run() without new work reports zero items and returns promptly.
  ExecutorReport Run();

  // Open-system mode: spawns the workers, runs `producer` on its own thread
  // (it may call Submit until stopped() turns true), stops everything after
  // `duration_ms` of wall time, joins, and reports. Items still queued at the
  // deadline are left unexecuted (counted via items_left_unexecuted).
  ExecutorReport RunFor(uint64_t duration_ms,
                        const std::function<void(Executor&)>& producer = {});

  // Thread-safe submission while RunFor is active (or before Run).
  void Submit(uint32_t queue_index, const WorkItem& item);

  // Thread-safe batch submission: bumps the external submitted count ONCE for
  // the whole batch, before any item becomes poppable (see the ordering note
  // at the definition), then pushes every item under the queue lock.
  void SubmitBatch(uint32_t queue_index, const std::vector<WorkItem>& items);

  // Worker-context batch submission — the spawn seam (docs/tasks.md). Must be
  // called from worker `worker`'s own thread while it is executing an item:
  // the batch lands on the worker's OWN runqueue through the owner push path
  // (deque bottom on chase_lev, so recursive decomposition stays on the
  // allocation-free hot path and stays stealable), with the same
  // count-before-poppable ordering as SubmitBatch (on the worker's own
  // single-writer count) and one gated wakeup notify per flush so parked
  // siblings come looking for the new work.
  void SubmitFromWorker(uint32_t worker, const WorkItem* items, uint32_t count);

  // Items a worker's private spawn segment holds; 1 KiB of items per worker.
  static constexpr uint32_t kSpawnSegmentCapacity = 32;

  // The final flush of the task body `worker` runs. Counts the whole batch
  // as SubmitFromWorker does and keeps it in the worker's private spawn
  // segment, a LIFO stack no queue, thief or load snapshot sees. The loop
  // runs the segment's newest item next, in place of a pop, so a kept item
  // costs no push, no pop, no fence and no wakeup notify until a sibling is
  // idle (see the header comment for when the segment is published). A
  // flush that would overflow the segment first publishes its oldest half.
  // From inside TaskRunner::RunItem on `worker`'s own thread, at most
  // kSpawnSegmentCapacity / 2 items.
  void HandOffFromWorker(uint32_t worker, const WorkItem* items, uint32_t count);

  // True once the run deadline passed; producers should poll this and return.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  // Ingress notification hook: wire MailboxSet's notify callback here (any
  // producer thread). Notifies the wakeup gate so every parked worker bails
  // out of its backoff window and re-checks its mailbox/queue. Deliberately
  // wakes ALL parked workers, not just `worker`: a per-worker doorbell would
  // need per-worker state the park loop re-reads anyway, and a non-empty
  // mailbox usually coincides with spill traffic toward the siblings.
  void NotifyIngress(uint32_t worker);

  // --- Model-checker entry points (docs/model_checking.md) -------------------
  // The checker runs the shipped worker loop on its own fibers instead of
  // threads. BeginCheckedRun resets the run state as Run (closed system) or
  // RunFor (`deadline_mode`) does, without spawning anything; RunWorker runs
  // worker `worker`'s loop on the calling thread until the run is over; Stop
  // plays RunFor's deadline.
  void BeginCheckedRun(bool deadline_mode);
  void RunWorker(uint32_t worker, WorkerStats& stats);
  void Stop() { stop_.store(true, std::memory_order_release); }
  ConcurrentMachine& machine() { return machine_; }

 private:
  // Runs worker `worker_index`'s loop until the run is over, and returns
  // false, or until an injected crash, and returns true. `ring` is this
  // worker's SPSC trace ring (null when tracing is off). A crashed worker's
  // own thread restarts it, so each ring keeps one producer.
  bool WorkerMain(uint32_t worker_index, WorkerStats& stats, trace::SpscTraceRing* ring);
  // Moves up to kIngressDrainBatch items from config_.ingress into
  // `worker`'s own runqueue (count bumped BEFORE the items become poppable,
  // same ordering contract as SubmitBatch). `batch` is the worker's reusable
  // scratch. Returns items moved.
  uint32_t DrainIngress(uint32_t worker, WorkerStats& stats, std::vector<WorkItem>& batch,
                        trace::SpscTraceRing* ring);
  // Whether a park sampled at `wakeup_before` may end: the wakeup epoch
  // moved (new work or a watchdog escalation) or the run is over. Reads
  // without mc hooks, so the checker can block on it (see the park in
  // WorkerMain).
  struct ParkWait {
    Executor* executor;
    uint64_t wakeup_before;
  };
  static bool ParkMayEnd(const void* wait);
  // Resets the per-run state shared by Run, RunFor and BeginCheckedRun.
  void BeginRun(bool deadline_mode);
  // Shared body of Run and RunFor: spawns workers, feeds the watchdog and
  // drains the trace rings (when on) until the run is over, joins, reports.
  // duration_ms == 0 means
  // closed-system mode (run until drained).
  ExecutorReport RunInternal(uint64_t duration_ms, const std::function<void(Executor&)>& producer);

  std::shared_ptr<const BalancePolicy> policy_;
  ExecutorConfig config_;
  const Topology* topology_;
  ConcurrentMachine machine_;
  std::unique_ptr<fault::FaultInjector> injector_;
  // Per-run trace rings (workers 0..n-1, supervisor lane n); null when off.
  std::unique_ptr<trace::TraceCollector> collector_;
  // Closed-system termination (termination.h): the external-submit counter
  // here, one single-writer slot per worker in its runqueue. Also the source
  // of report.total_items and items_left_unexecuted.
  TerminationCounts counts_;
  // Executed sum at the end of the previous run: a reused instance reports
  // only the items submitted since then plus any a deadline left queued.
  uint64_t executed_at_run_start_ = 0;
  // optsched-lint: allow(mc-hook-coverage): deadline-mode stop flag — set once per run; the checker's parks poll it hook-free (ParkMayEnd)
  std::atomic<bool> stop_{false};
  // Submit/SubmitBatch/SubmitFromWorker/NotifyIngress notify it AFTER the
  // new work is visible, and the supervisor notifies it on a watchdog
  // escalation; it bumps its wakeup epoch only while some worker has
  // announced itself idle (wakeup_gate.h). A worker announces on its first
  // fruitless round, samples the epoch at the TOP of the next round —
  // before its empty re-checks of queue, mailboxes and the steal filter —
  // and a park bails as soon as that sample goes stale, so a submit landing
  // between a worker's last re-check and its park entry is never slept
  // through (regression: executor_wakeup_test). The gate is a cache line of
  // its own, apart from the fields every worker reads per item.
  WakeupGate wakeup_;
  // One private spawn segment per worker (HandOffFromWorker), written and
  // read only by that worker's own thread: items[0] is the oldest. Its items
  // are counted as submitted but sit in no queue, so it is empty whenever
  // the worker is between items.
  struct alignas(kCacheLineSize) SpawnSegment {
    WorkItem items[kSpawnSegmentCapacity];
    uint32_t depth = 0;
    // The worker's idle word, in what was the block's padding. Written only
    // by the worker on its idle path, read only by the supervisor's
    // watchdog. Bits 0-31 are the beat, moved at every fruitless round and
    // every epoch poll of a park; bit 32 is set while the worker is
    // announced to the wakeup gate; bits 33-63 number its idle episodes.
    // Announce and Retract each add 1 to bits 32-63 and clear the beat, so
    // no episode number repeats, also across a crash.
    // optsched-lint: allow(mc-hook-coverage): watchdog input only, read by the supervisor, which checked runs do not have
    std::atomic<uint64_t> idle_word{0};
  };
  // Pushes the `count` oldest items of `worker`'s segment onto its own queue
  // and notifies the wakeup gate once. They were counted when they entered.
  void PublishOldest(uint32_t worker, SpawnSegment& segment, uint32_t count);
  std::unique_ptr<SpawnSegment[]> segments_;
  // Checker seams; null and false in every executor-built run.
  WorkerProbe* const probe_;
  const bool broken_wakeup_gate_;
  const bool broken_lazy_publish_;
  bool deadline_mode_ = false;
  // Wall-clock origin of the current run; trace timestamps are relative μs.
  uint64_t run_start_ns_ = 0;
};

}  // namespace optsched::runtime

#endif  // OPTSCHED_SRC_RUNTIME_EXECUTOR_H_
