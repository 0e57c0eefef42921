#include "src/runtime/executor.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>

#include "src/base/check.h"
#include "src/base/mutex.h"
#include "src/base/str.h"
#include "src/runtime/mc_hooks.h"
#include "src/runtime/spinlock.h"

namespace optsched::runtime {

namespace {

// Ingress drain cadence (docs/serving.md): items moved per drain, and the
// executed items between drains while the own queue never runs empty.
constexpr uint32_t kIngressDrainBatch = 64;
constexpr uint64_t kIngressDrainIntervalItems = 32;

// Fruitless rounds an announced worker spins through before its first park:
// against parking on the first, they halve serve_zipf's p50 sojourn, since
// work arriving within them is found without a park to end (EXPERIMENTS.md
// E23). Under the model checker a worker parks after 1: the spun rounds only
// repeat the same empty re-checks on fresh loop-top samples, the wakeup
// argument (wakeup_gate.h) holds after any number of them, and exploring
// them exhausts the checker's 2^20-schedule budget.
constexpr uint32_t kIdleRoundsBeforePark = 16;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// CPU time `thread` has consumed; 0 once it has exited or been joined.
uint64_t ThreadCpuNs(std::thread& thread) {
  clockid_t clock;
  timespec now;
  if (!thread.joinable() || pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &now) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(now.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(now.tv_nsec);
}

// Opaque spin so the optimizer cannot delete the "work". Out of line and
// cache-line aligned, so its loop sits at the same place whatever the worker
// loop around it looks like: inlined into WorkerMain, it moved with every
// edit there, and a placement whose loop branch sat on a 32-byte boundary
// ran the same spin about 9% slower (EXPERIMENTS.md E22).
__attribute__((noinline, aligned(64))) void DoWork(uint64_t units, uint64_t spin_per_unit) {
  volatile uint64_t sink = 0;
  for (uint64_t u = 0; u < units; ++u) {
    for (uint64_t i = 0; i < spin_per_unit; ++i) {
      sink = sink + i;
    }
  }
}

}  // namespace

WorkerStats ExecutorReport::Totals() const {
  WorkerStats total;
  for (const WorkerStats& w : workers) {
    stats::AddCounters(total, w);
    total.steal_latency_ns.Merge(w.steal_latency_ns);
    total.steal_fail_latency_ns.Merge(w.steal_fail_latency_ns);
    total.selection_latency_ns.Merge(w.selection_latency_ns);
    total.sojourn_ns.Merge(w.sojourn_ns);
  }
  return total;
}

stats::LogHistogram ExecutorReport::MergedSojournNs() const { return Totals().sojourn_ns; }

double ExecutorReport::throughput_items_per_ms() const {
  return wall_time_ns == 0
             ? 0.0
             : static_cast<double>(total_items) / (static_cast<double>(wall_time_ns) / 1e6);
}

std::string ExecutorReport::ToString() const {
  const WorkerStats totals = Totals();
  std::string out = StrFormat("executor{items=%llu wall=%.2fms throughput=%.1f items/ms} ",
                              static_cast<unsigned long long>(total_items),
                              static_cast<double>(wall_time_ns) / 1e6, throughput_items_per_ms()) +
                    stats::FormatCounters(totals, "workers");
  const stats::LogHistogram& ok_ns = totals.steal_latency_ns;
  const stats::LogHistogram& fail_ns = totals.steal_fail_latency_ns;
  if (ok_ns.total() > 0 || fail_ns.total() > 0) {
    out += StrFormat(" steal_ns{ok_p50=%.0f ok_p99=%.0f fail_p50=%.0f fail_p99=%.0f}",
                     ok_ns.Percentile(0.5), ok_ns.Percentile(0.99), fail_ns.Percentile(0.5),
                     fail_ns.Percentile(0.99));
  }
  const stats::LogHistogram& sojourn = totals.sojourn_ns;
  if (sojourn.total() > 0) {
    out += StrFormat(" sojourn_ns{p50=%.0f p99=%.0f p999=%.0f}", sojourn.Percentile(0.5),
                     sojourn.Percentile(0.99), sojourn.Percentile(0.999));
  }
  if (stats::CounterSum(faults) > 0) {
    out.append(" ").append(stats::FormatCounters(faults, "faults"));
  }
  if (stats::CounterSum(watchdog) > 0) {
    out.append(" ").append(stats::FormatCounters(watchdog, "watchdog"));
  }
  if (!trace_events.empty() || trace_dropped > 0) {
    out += StrFormat(" trace{events=%zu dropped=%llu}", trace_events.size(),
                     static_cast<unsigned long long>(trace_dropped));
  }
  return out;
}

void ExecutorReport::ExportMetrics(trace::MetricsRegistry& registry) const {
  registry.Add("executor.wall_time_ns", static_cast<double>(wall_time_ns));
  registry.Add("executor.total_items", static_cast<double>(total_items));
  registry.Add("executor.items_left_unexecuted", static_cast<double>(items_left_unexecuted));
  registry.Add("executor.trace.events", static_cast<double>(trace_events.size()));
  registry.Add("executor.trace.dropped", static_cast<double>(trace_dropped));
  stats::ExportCounters(faults, registry, "executor.faults");
  stats::ExportCounters(watchdog, registry, "executor.watchdog");
  const WorkerStats totals = Totals();
  if (totals.sojourn_ns.total() > 0) {
    registry.Set("executor.sojourn_ns.p50", totals.sojourn_ns.Percentile(0.50));
    registry.Set("executor.sojourn_ns.p99", totals.sojourn_ns.Percentile(0.99));
    registry.Set("executor.sojourn_ns.p999", totals.sojourn_ns.Percentile(0.999));
  }
  // Machine-wide aggregates plus the per-worker split for the
  // load-distribution view.
  stats::ExportCounters(totals, registry, "executor");
  for (size_t i = 0; i < workers.size(); ++i) {
    stats::ExportCounters(workers[i], registry, StrFormat("executor.worker%zu", i));
  }
}

Executor::Executor(std::shared_ptr<const BalancePolicy> policy, const ExecutorConfig& config,
                   const Topology* topology, const CheckerSeams& seams)
    : policy_(std::move(policy)),
      config_(config),
      topology_(topology),
      machine_(config.num_workers,
               MachineOptions{.backend = config.backend,
                              .deque_capacity = config.chase_lev_capacity,
                              .broken_steal_order = seams.broken_steal_order}),
      counts_(seams.broken_termination_order),
      segments_(std::make_unique<SpawnSegment[]>(config.num_workers)),
      probe_(seams.probe),
      broken_wakeup_gate_(seams.broken_wakeup_gate),
      broken_lazy_publish_(seams.broken_lazy_publish) {
  OPTSCHED_CHECK(policy_ != nullptr);
  OPTSCHED_CHECK(config_.num_workers > 0);
  OPTSCHED_CHECK(config_.max_backoff_spins >= 1);
  // D3 locks every runqueue during selection; the chase_lev deque has no
  // queue lock to take, so the combination is meaningless — reject it loudly
  // instead of silently measuring the wrong ablation.
  OPTSCHED_CHECK_MSG(!(config_.locked_selection && config_.backend == QueueBackend::kChaseLev),
                     "locked_selection (D3) requires the locked backend");
  config_.initial_backoff_spins =
      std::clamp<uint64_t>(config_.initial_backoff_spins, 1, config_.max_backoff_spins);
}

void Executor::Seed(uint32_t queue_index, const std::vector<WorkItem>& items) {
  SubmitBatch(queue_index, items);
}

void Executor::Submit(uint32_t queue_index, const WorkItem& item) {
  OPTSCHED_CHECK(queue_index < machine_.num_queues());
  counts_.AddExternal(1);
  machine_.queue(queue_index).PushBatchExternal(&item, 1);
  // Notify strictly AFTER the push: a worker whose wakeup sample goes stale
  // re-runs its empty re-checks and is guaranteed to find this item.
  // Notifying before the push would let a woken worker re-check, miss the
  // not-yet-pushed item, and park through it — the very race the gate
  // exists to close.
  wakeup_.Notify();
}

// Ordering contract for the submitted counts, shared by every submission
// path (Submit, SubmitBatch, SubmitFromWorker, DrainIngress):
//
//  * The count is bumped BEFORE any item of the batch becomes poppable, so
//    the bump happens-before the item's execution and before the executed
//    bump that counts it. The quiescence sum reads the executed counts first
//    (acquire), so the submitted sum it reads afterwards covers every item
//    whose execution it counted — equal sums mean drained, and closed-system
//    Run() cannot terminate early (termination.h).
//  * The external counter's release add additionally orders producer-side
//    writes outside the queue for whoever observes the count. Item payload
//    visibility itself rides on the queue's own publication (lock release,
//    or the deque's release bottom store).
void Executor::SubmitBatch(uint32_t queue_index, const std::vector<WorkItem>& items) {
  OPTSCHED_CHECK(queue_index < machine_.num_queues());
  if (items.empty()) {
    return;
  }
  counts_.AddExternal(items.size());
  // One external batch push: one lock hold and one publish (kLocked), and
  // the ready ring grows once to exactly the batch instead of doubling its
  // way up item by item.
  machine_.queue(queue_index).PushBatchExternal(items.data(), static_cast<uint32_t>(items.size()));
  // One notify per batch, after the push (see Submit).
  wakeup_.Notify();
}

// The spawn seam is on the D7 allocation-free budget: a worker flushing its
// spawn batch mid-item must not touch the allocator (rule hot-path-alloc;
// audited by bench_e16 over the recursive kernels). It is also free of
// shared-line read-modify-writes while every worker is busy: the count is
// this worker's own single-writer slot, and the gated notify only loads the
// idle count.
OPTSCHED_HOT_PATH void Executor::SubmitFromWorker(uint32_t worker, const WorkItem* items,
                                                  uint32_t count) {
  OPTSCHED_CHECK(worker < machine_.num_queues());
  if (count == 0) {
    return;
  }
  ConcurrentRunQueue& own = machine_.queue(worker);
  // Same ordering contract as SubmitBatch: counted BEFORE any item becomes
  // poppable. The caller is a worker mid-item, so its own executed bump
  // (applied after RunItem returns) comes after this one — a counted parent
  // always covers its flushed children in the quiescence sum.
  TerminationCounts::AddSubmitted(own.counts(), count);
  // Owner push path: deque bottom on chase_lev (lock-free, stealable from
  // the top), the queue lock on locked — never the external-submit inbox.
  own.PushBatchOwner(items, count);
  // One notify per flush, after the last push (see Submit): siblings parked
  // through the spawn burst re-run their steal filter and find the new
  // subtree. While no worker is idle this is a fence and a load, no write.
  wakeup_.Notify();
}

// SubmitFromWorker for a body's final flush, minus the publication: the
// batch stays in this worker's private segment, so it is neither pushed nor
// popped and wakes nobody until the loop publishes it. Its count is stored
// now, while the parent item still runs, so the parent's executed bump
// covers it exactly as it covers a pushed child.
OPTSCHED_HOT_PATH void Executor::HandOffFromWorker(uint32_t worker, const WorkItem* items,
                                                   uint32_t count) {
  OPTSCHED_CHECK(worker < machine_.num_queues());
  OPTSCHED_CHECK(count <= kSpawnSegmentCapacity / 2);
  if (count == 0) {
    return;
  }
  TerminationCounts::AddSubmitted(machine_.queue(worker).counts(), count);
  SpawnSegment& segment = segments_[worker];
  if (segment.depth + count > kSpawnSegmentCapacity) {
    // Overflow: the oldest half spills, leaving room for any flush.
    PublishOldest(worker, segment, segment.depth / 2);
  }
  std::copy(items, items + count, segment.items + segment.depth);
  segment.depth += count;
}

OPTSCHED_HOT_PATH void Executor::PublishOldest(uint32_t worker, SpawnSegment& segment,
                                               uint32_t count) {
  machine_.queue(worker).PushBatchOwner(segment.items, count);
  segment.depth -= count;
  std::copy(segment.items + count, segment.items + count + segment.depth, segment.items);
  // One notify per publication, after the push (see Submit).
  wakeup_.Notify();
}

void Executor::NotifyIngress(uint32_t /*worker*/) {
  // The mailbox push already completed (MailboxSet notifies on the
  // empty->non-empty edge, after the item is visible), so the same
  // notify-after-publish ordering as Submit applies.
  wakeup_.Notify();
}

uint32_t Executor::DrainIngress(uint32_t worker, WorkerStats& stats,
                                std::vector<WorkItem>& batch, trace::SpscTraceRing* ring) {
  batch.clear();
  const uint32_t moved = config_.ingress->Drain(worker, batch, kIngressDrainBatch);
  if (moved == 0) {
    return 0;
  }
  // Same ordering contract as SubmitBatch: this worker's submitted count is
  // bumped before any drained item becomes poppable. (Between the mailbox
  // removal and this bump the items are in neither PendingFor nor the
  // count — that window is one drain long and only defers the watchdog's
  // pending view by a round, it cannot terminate a run early because ingress
  // requires deadline mode.)
  ConcurrentRunQueue& own = machine_.queue(worker);
  TerminationCounts::AddSubmitted(own.counts(), moved);
  // Backend-neutral owner append: the queue lock on kLocked, a lock-free
  // bottom push (inbox spill on overflow) on kChaseLev.
  own.PushBatchOwner(batch.data(), moved);
  ++stats.mailbox_drains;
  stats.mailbox_items_drained += moved;
  if (ring != nullptr) {
    ring->TryPush({.time = (NowNs() - run_start_ns_) / 1000,
                   .type = trace::EventType::kMailboxDrain,
                   .cpu = worker,
                   .detail = static_cast<int64_t>(moved)});
  }
  return moved;
}

// The whole worker loop is on the D7 allocation-free budget: after the
// warm-up allocations below, a full pop-execute or selection+steal iteration
// must not touch the allocator (rule hot-path-alloc; audited by bench_e14).
OPTSCHED_HOT_PATH bool Executor::WorkerMain(uint32_t worker_index, WorkerStats& stats,
                                            trace::SpscTraceRing* ring) {
  Rng rng(config_.seed * 1000003 + worker_index);
  ConcurrentRunQueue& own = machine_.queue(worker_index);
  fault::FaultInjector* injector = injector_.get();
  IngressSource* ingress = config_.ingress;
  TaskRunner* task_runner = config_.task_runner;
  SpawnSegment& segment = segments_[worker_index];
  uint32_t fruitless = 0;
  uint64_t backoff_spins = 0;  // current window; 0 = not backing off
  // Locally executed items since the last mailbox drain (sustained-load
  // drain cadence, kIngressDrainIntervalItems).
  uint64_t executed_since_drain = 0;
  // Hot-path buffers, allocated once per worker and refilled in place: after
  // warmup a full selection + steal attempt performs zero heap allocations
  // (docs/runtime.md, "hot-path cost model").
  LoadSnapshot snapshot;
  StealScratch steal_scratch;
  std::vector<WorkItem> drain_batch;  // reaches high-water capacity once
  const StealOptions steal_options{.recheck = config_.recheck_filter,
                                   .max_batch = std::max(config_.max_steal_batch, 1u)};
  // Last snapshot this worker took; a StaleSnapshot fault makes the next
  // selection run against it instead of a fresh read.
  LoadSnapshot stale_view;
  bool has_stale_view = false;
  // True while this worker is counted idle by the wakeup gate: from its
  // first fruitless round until it gets an item (or leaves the loop). Its
  // fruitless rounds and backoff window end with it.
  bool announced = false;
  const auto retract = [&] {
    if (announced) {
      wakeup_.Retract();
      announced = false;
      fruitless = 0;
      backoff_spins = 0;
    }
  };

  // Only a worker without an item asks: the quiescence sum reads every
  // worker's counts line, which a busy worker never does.
  const auto keep_running = [&] {
    if (deadline_mode_) {
      return !stop_.load(std::memory_order_acquire);
    }
    const TerminationCounts::Sums sums = counts_.Read(machine_);
    if (sums.executed != sums.submitted) {
      return true;
    }
    if (probe_ != nullptr) {
      probe_->OnQuiescent(worker_index, sums);
    }
    return false;
  };

  // Trace timestamps are microseconds since the run started, matching the
  // watchdog's timebase so the merged stream interleaves correctly.
  const auto trace_now_us = [&] { return (NowNs() - run_start_ns_) / 1000; };

  // Fail-stop exit for an injected crash; the caller holds no item.
  const auto crash = [&] {
    retract();
    ++stats.crashes;
    if (ring != nullptr) {
      ring->TryPush({.time = trace_now_us(), .type = trace::EventType::kCrash,
                     .cpu = worker_index});
    }
  };

  // The item this worker runs, carried between iterations: popped at the
  // loop top, or handed over by the previous item's fused finish+pop or
  // taken from the top of its spawn segment, or landed by a steal. It is
  // already the queue's running item, so the loop never exits, parks or
  // crashes while holding one — a carried item runs to completion even past
  // a RunFor deadline.
  std::optional<WorkItem> item;
  uint64_t wakeup_before = 0;
  while (item.has_value() || keep_running()) {
    if (!item.has_value()) {
      // Sample the wakeup epoch FIRST: everything below (own-queue pop,
      // mailbox check, steal filter) is an empty re-check relative to this
      // sample, so a submit that lands anywhere after it cannot be slept
      // through — the park compares against this very value. Only a loop-top
      // sample can feed a park: a worker parks only once announced, and it
      // always comes back here between announcing and parking.
      wakeup_before = wakeup_.Sample();
      // Crash seam: only where no item is held — fail-stop between
      // scheduling decisions, so the shared queues stay consistent and the
      // restarted loop loses no work.
      if (injector != nullptr && injector->CrashWorker(worker_index)) {
        crash();
        return true;
      }
      // Run everything queued locally first.
      item = own.PopForRun();
    }
    if (item.has_value()) {
      // Got an item: no longer idle, so wakers stop bumping on our account.
      retract();
      // Whether the body left items in the spawn segment. Flat items never
      // hand off, so their path never reads the segment.
      bool kept = false;
      if (item->task != 0) {
        // Structured-parallelism item: the task layer runs the body and
        // flushes any spawned children back through SubmitFromWorker or
        // HandOffFromWorker before returning — all while this item still
        // counts as running, so the counter ordering note in
        // SubmitFromWorker holds.
        OPTSCHED_CHECK_MSG(task_runner != nullptr,
                           "task item submitted without a task_runner configured");
        task_runner->RunItem(*item, *this, worker_index);
        kept = segment.depth > 0;
      } else {
        DoWork(item->work_units, config_.spin_per_unit);
      }
      ++stats.items_executed;
      stats.units_executed += item->work_units;
      if (item->arrival_ns != 0) {
        const uint64_t now = NowNs();
        stats.sojourn_ns.Add(now > item->arrival_ns ? now - item->arrival_ns : 0);
      }
      // The next item's crash seam runs here, in front of the fused
      // finish+pop, so CrashWorker is still asked once per item and a crash
      // finishes the executed item without popping another. No wakeup
      // sample is taken here: this worker is not announced, so it cannot
      // park before passing the loop top again.
      // Nothing more is popped by a worker about to crash or past a RunFor
      // deadline, and its whole spawn segment goes on the own queue, counted
      // since its handoff, where the restarted worker, a thief or the next
      // run finds it. A closed run needs no deadline check here: a queued
      // item is submitted but not executed, so the run cannot read as
      // drained. Otherwise the segment's newest item takes over the running
      // slot. Only a worker with more than that one item asks whether a
      // sibling is idle.
      const bool crashing = injector != nullptr && injector->CrashWorker(worker_index);
      const uint64_t ran_id = item->id;
      if (crashing || (deadline_mode_ && stop_.load(std::memory_order_acquire))) {
        if (kept) {
          PublishOldest(worker_index, segment, segment.depth);
        }
        own.FinishCurrent();
        item.reset();
      } else if (kept) {
        // A sibling that announced itself idle may be waiting for exactly
        // the items no snapshot shows: publish all but the one run next.
        if (segment.depth > 1 && !broken_lazy_publish_ && wakeup_.AnyIdle()) {
          PublishOldest(worker_index, segment, segment.depth - 1);
        }
        const WorkItem& next = segment.items[--segment.depth];
        own.FinishCurrentAndRun(next);
        item = next;
      } else {
        item = own.FinishCurrentAndPop();
      }
      // After the body and every flush it made: the quiescence sum that
      // counts this execution also covers the children it submitted.
      TerminationCounts::AddExecuted(own.counts(), 1);
      if (probe_ != nullptr) {
        probe_->OnExecuted(worker_index, ran_id, segment.depth);
      }
      if (crashing) {
        crash();
        return true;
      }
      // Items the drain cadence below moved into the own queue: with no
      // carried item they are popped at the loop top, never left behind by a
      // park.
      bool refilled = false;
      // Sustained-load drain cadence: a never-empty runqueue must not starve
      // the mailbox, so pull a batch every N executed items too.
      if (ingress != nullptr &&
          ++executed_since_drain >= kIngressDrainIntervalItems) {
        executed_since_drain = 0;
        if (ingress->PendingFor(worker_index) > 0) {
          refilled = DrainIngress(worker_index, stats, drain_batch, ring) > 0;
        }
      }
      // With no next item the fused pop was this round's empty own-queue
      // re-check: go straight to the round boundary below.
      if (item.has_value() || refilled || !keep_running()) {
        continue;
      }
    }
    // Round boundary (queue empty): drain the mailbox before looking for
    // work to steal — admitted items beat stolen items, they are already
    // ours. A DelayDrain fault skips this one opportunity (the items stay
    // mailbox-resident one round longer; the watchdog must read that as
    // pending, not as a violation).
    if (ingress != nullptr && ingress->PendingFor(worker_index) > 0) {
      if (injector == nullptr || !injector->DelayDrain(worker_index)) {
        executed_since_drain = 0;
        if (DrainIngress(worker_index, stats, drain_batch, ring) > 0) {
          continue;
        }
      }
    }
    // Queue empty: run the three-step balancing protocol — unless a
    // straggler fault holds this core out of the round entirely.
    bool stole = false;
    if ((injector == nullptr || !injector->StallCore(worker_index)) &&
        (probe_ == nullptr || probe_->MaySteal(worker_index))) {
      const uint64_t select_start = NowNs();
      if (injector != nullptr && has_stale_view && injector->StaleSnapshot(worker_index)) {
        snapshot = stale_view;  // selection over a deliberately outdated view
      } else {
        if (config_.locked_selection) {
          machine_.LockedSnapshotInto(snapshot);
        } else {
          machine_.SnapshotInto(snapshot);
        }
        stale_view = snapshot;  // copy-assign: reuses capacity, no allocation
        has_stale_view = true;
      }
      stats.selection_latency_ns.Add(NowNs() - select_start);
      if (injector != nullptr && injector->AbortSteal(worker_index)) {
        // Forced abort between CHOICE and STEAL. The attempt never reaches the
        // two-lock phase, so StealCounters keep counting only genuine protocol
        // outcomes (the §4.3 attribution argument stays intact); the injector
        // tallies the abort.
      } else {
        const uint64_t steal_start = NowNs();
        const StealCounters before = stats.steals;
        CpuId victim = 0;
        // A successful steal lands its first item as this worker's running
        // item, so the next iteration runs it without another pop.
        WorkItem landed;
        StealObservation observation;
        stole = machine_.TrySteal(*policy_, worker_index, snapshot, rng, steal_options,
                                  stats.steals, topology_, &victim,
                                  probe_ != nullptr ? &observation : nullptr, &steal_scratch,
                                  &landed);
        if (stole) {
          item = landed;
        }
        if (probe_ != nullptr) {
          probe_->OnSteal(worker_index, before, stats.steals, victim, observation);
        }
        // An unchanged attempt count means the filter was empty: no steal
        // phase ran, so there is no latency to attribute and no outcome to
        // trace.
        if (stats.steals.attempts != before.attempts) {
          const uint64_t steal_ns = NowNs() - steal_start;
          // Failed attempts get their own histogram: they are the
          // contention-heavy §4.3 cases, and recording only successes (as
          // before) hid exactly the latencies the attribution argument is
          // about.
          (stole ? stats.steal_latency_ns : stats.steal_fail_latency_ns).Add(steal_ns);
          if (ring != nullptr) {
            ring->TryPush({.time = trace_now_us(),
                           .type = stole ? trace::EventType::kSteal
                                         : trace::EventType::kStealFailed,
                           .cpu = worker_index, .other_cpu = victim,
                           .detail = static_cast<int64_t>(steal_ns)});
          }
        }
      }
    }
    if (stole) {
      continue;
    }
    ++stats.idle_loops;
    if (!announced) {
      // First fruitless round: announce, then go round once more. The park
      // below may only rest on a loop-top sample and re-checks taken after
      // the announcement (wakeup_gate.h) — never on this round's. The
      // checker's broken_wakeup_gate parks on this round's sample at once.
      wakeup_.Announce();
      announced = true;
      if (!broken_wakeup_gate_) {
        continue;
      }
    } else if (++fruitless < (probe_ != nullptr ? 1 : kIdleRoundsBeforePark)) {
      continue;
    }
    fruitless = 0;
    // Park: CpuRelax for a window that doubles up to the cap, ending early
    // on shutdown or on a bump of the wakeup epoch — a submit, a mailbox
    // notify or a watchdog escalation. `wakeup_before` was sampled AFTER
    // this worker announced itself idle and BEFORE its last empty re-checks:
    // any bump after that sample might be work the re-checks missed, so the
    // park refuses to start (and keeps checking) rather than sleep through
    // it. Jittering the window and yielding at the cap were measured and
    // lost (EXPERIMENTS.md E23).
    backoff_spins = backoff_spins == 0 ? config_.initial_backoff_spins
                                       : std::min(backoff_spins * 2, config_.max_backoff_spins);
    ++stats.backoff_events;
    stats.backoff_spins_total += backoff_spins;
    const uint64_t park_start = ring != nullptr ? NowNs() : 0;
    bool woken = wakeup_.Sample() != wakeup_before;
    if (!woken) {
      // Under the model checker the spin is a block on the same disjunction
      // the poll below tests, so a park that nothing can end is a deadlock
      // the checker reports instead of a spin it cannot explore. In
      // production BlockUntil is one null check and returns false.
      const ParkWait wait{this, wakeup_before};
      if (probe_ != nullptr && !ParkMayEnd(&wait)) {
        probe_->OnPark(worker_index);
      }
      const bool blocked = mc_hooks::BlockUntil(mc_hooks::SyncOp::kEpochLoad,
                                                wakeup_.epoch_word(), &ParkMayEnd, &wait);
      for (uint64_t i = 0; i < backoff_spins && !woken; ++i) {
        CpuRelax();
        if (blocked || (i & 255u) == 255u) {
          if (!keep_running()) {
            break;
          }
          woken = wakeup_.Sample() != wakeup_before;
        }
      }
    }
    if (woken) {
      ++stats.submit_wakeups;
      backoff_spins = 0;
    }
    if (ring != nullptr) {
      const uint64_t now = NowNs();
      ring->TryPush({.time = (park_start - run_start_ns_) / 1000,
                     .type = trace::EventType::kBackoffPark, .cpu = worker_index,
                     .detail = static_cast<int64_t>(now - park_start)});
      if (woken) {
        ring->TryPush({.time = (now - run_start_ns_) / 1000, .type = trace::EventType::kWakeup,
                       .cpu = worker_index});
      }
    }
  }
  retract();
  return false;
}

bool Executor::ParkMayEnd(const void* wait) {
  const ParkWait& w = *static_cast<const ParkWait*>(wait);
  Executor& e = *w.executor;
  const bool run_over = e.deadline_mode_ ? e.stop_.load(std::memory_order_acquire)
                                         : e.counts_.PeekDrained(e.machine_);
  return run_over || e.wakeup_.PeekEpoch() != w.wakeup_before;
}

void Executor::BeginRun(bool deadline_mode) {
  deadline_mode_ = deadline_mode;
  // Ingress needs open-system mode: closed-system Run() terminates on its
  // submitted count and would strand items admitted after the last drain.
  OPTSCHED_CHECK(config_.ingress == nullptr || deadline_mode_);
  stop_.store(false, std::memory_order_release);
  wakeup_.Reset();
  injector_ = config_.fault_plan.any()
                  ? std::make_unique<fault::FaultInjector>(config_.fault_plan, config_.num_workers)
                  : nullptr;
  // One ring per worker plus a supervisor lane (watchdog verdicts).
  collector_ = config_.trace_ring_capacity > 0
                   ? std::make_unique<trace::TraceCollector>(config_.num_workers + 1,
                                                             config_.trace_ring_capacity)
                   : nullptr;
  run_start_ns_ = NowNs();
}

void Executor::BeginCheckedRun(bool deadline_mode) {
  OPTSCHED_CHECK_MSG(!config_.fault_plan.any() && config_.trace_ring_capacity == 0,
                     "checked runs take no fault plan and no trace rings");
  BeginRun(deadline_mode);
}

void Executor::RunWorker(uint32_t worker, WorkerStats& stats) {
  OPTSCHED_CHECK(worker < config_.num_workers);
  // Checked runs take no fault plan, so the loop never crashes.
  WorkerMain(worker, stats, /*ring=*/nullptr);
}

ExecutorReport Executor::RunInternal(uint64_t duration_ms,
                                     const std::function<void(Executor&)>& producer) {
  ExecutorReport report;
  report.workers.resize(config_.num_workers);
  BeginRun(duration_ms > 0);
  trace::ConservationWatchdog watchdog(
      config_.num_workers,
      trace::WatchdogConfig{.threshold_rounds = config_.watchdog_threshold_samples});
  // The watchdog records into a TraceBuffer; the supervisor (the only thread
  // touching it) forwards new entries into its own SPSC ring after each call.
  trace::TraceBuffer watchdog_trace(collector_ != nullptr ? size_t{1} << 12 : 0);
  size_t watchdog_forwarded = 0;
  trace::SpscTraceRing* supervisor_ring =
      collector_ != nullptr ? &collector_->ring(config_.num_workers) : nullptr;
  const auto forward_watchdog_events = [&] {
    for (; watchdog_forwarded < watchdog_trace.events().size(); ++watchdog_forwarded) {
      supervisor_ring->TryPush(watchdog_trace.events()[watchdog_forwarded]);
    }
  };

  const uint64_t start = run_start_ns_;
  const uint64_t stop_at = deadline_mode_ ? start + duration_ms * 1'000'000ull : 0;

  // Each worker thread runs its loop until the run is over. A crash is
  // fail-stop between items: the same thread waits out the plan's restart
  // delay and enters the loop afresh, which leaves at once if the run ended
  // meanwhile.
  const auto worker_thread = [this, &report](uint32_t i) {
    trace::SpscTraceRing* ring = collector_ != nullptr ? &collector_->ring(i) : nullptr;
    while (WorkerMain(i, report.workers[i], ring)) {
      std::this_thread::sleep_for(std::chrono::microseconds(config_.fault_plan.crash_restart_us));
      if (ring != nullptr) {
        ring->TryPush({.time = (NowNs() - run_start_ns_) / 1000,
                       .type = trace::EventType::kRestart, .cpu = i});
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(config_.num_workers);
  for (uint32_t i = 0; i < config_.num_workers; ++i) {
    threads.emplace_back(worker_thread, i);
  }
  std::thread producer_thread;
  if (producer) {
    producer_thread = std::thread([this, &producer] { producer(*this); });
  }

  // Supervisor loop: polls until the run is over, at the deadline or once
  // the quiescence sum reads drained, and feeds the watchdog meanwhile.
  LoadSnapshot watchdog_snapshot;  // reused across polls
  std::vector<int64_t> watchdog_pending;  // per worker: work it has that no queue shows
  // Each worker thread's CPU time and executed count at the previous poll.
  std::vector<uint64_t> watchdog_cpu_ns(config_.num_workers, 0);
  std::vector<uint64_t> watchdog_executed(config_.num_workers, 0);
  for (;;) {
    const uint64_t now = NowNs();
    if (deadline_mode_ ? now >= stop_at : counts_.Drained(machine_)) {
      break;
    }
    if (config_.watchdog) {
      machine_.SnapshotInto(watchdog_snapshot);
      // Mailbox-resident items are PENDING for their owner (satellite of
      // docs/serving.md): an idle worker with a backlogged mailbox is about
      // to drain, not violating conservation — without this, sustained
      // ingress overload escalates the watchdog against a healthy scheduler.
      // A worker the OS did not run since the previous sample is excused the
      // same way: it was shown no load it could act on, so a descheduled
      // thread is not an idle core. Without this, a host with more runnable
      // threads than CPUs read its time-slice waits as persistent violations
      // (ingress_chaos_test; ROADMAP item 7).
      // So is a worker that finished an item since the previous sample: it
      // was not idle over the interval, whatever its load reads at the
      // sample. A thief whose steal rounds cost more than the items it steals
      // reads load 0 at most samples while it runs an item every few
      // microseconds (ThreadSanitizer's slowdown does this; EXPERIMENTS.md
      // E24).
      watchdog_pending.assign(config_.num_workers, 0);
      for (uint32_t i = 0; i < config_.num_workers; ++i) {
        if (config_.ingress != nullptr) {
          watchdog_pending[i] += config_.ingress->PendingFor(i);
        }
        const uint64_t cpu_ns = ThreadCpuNs(threads[i]);
        const uint64_t executed = TerminationCounts::Executed(machine_.queue(i).counts());
        if (cpu_ns == watchdog_cpu_ns[i] || executed != watchdog_executed[i]) {
          ++watchdog_pending[i];
        }
        watchdog_cpu_ns[i] = cpu_ns;
        watchdog_executed[i] = executed;
      }
      if (watchdog.ObserveRound((now - start) / 1000, watchdog_snapshot.task_count,
                                watchdog_pending, &watchdog_trace)) {
        watchdog.RecordEscalation((now - start) / 1000, &watchdog_trace);
        // Snap every parked worker awake through the wakeup gate: an
        // immediate full-rate balancing attempt is the runtime's "forced
        // global round". Every parked worker has announced itself idle, so
        // the notify bumps the epoch whenever one is parked.
        wakeup_.Notify();
      }
      if (supervisor_ring != nullptr) {
        forward_watchdog_events();
      }
    }
    if (collector_ != nullptr) {
      // Drain the rings at supervisor cadence so fixed-capacity rings only
      // drop under genuine bursts, not steady-state volume.
      collector_->Collect();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(config_.supervisor_poll_us));
  }
  // RunFor's deadline: each worker finishes its carried item and leaves.
  if (deadline_mode_) {
    stop_.store(true, std::memory_order_release);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (producer_thread.joinable()) {
    producer_thread.join();
  }

  report.wall_time_ns = NowNs() - start;
  // Every worker and the producer have joined, so the sums are exact.
  const TerminationCounts::Sums sums = counts_.Read(machine_);
  report.total_items = sums.submitted - executed_at_run_start_;
  report.items_left_unexecuted = sums.submitted - sums.executed;
  if (injector_ != nullptr) {
    report.faults = injector_->stats();
  }
  if (config_.watchdog) {
    // Classify streaks still open at shutdown — without this, a run that
    // ends mid-violation under-reports (the streak is neither transient nor
    // persistent in the tallies).
    watchdog.Finalize();
    report.watchdog = watchdog.stats();
  }
  if (collector_ != nullptr) {
    if (supervisor_ring != nullptr) {
      forward_watchdog_events();
    }
    report.trace_events = collector_->SortedEvents();
    report.trace_dropped = collector_->total_dropped();
    collector_.reset();
  }
  // Reuse: items a deadline left queued carry into the next run's total;
  // everything executed stops counting, so a later Run() never reports this
  // run's items again.
  executed_at_run_start_ = sums.executed;
  deadline_mode_ = false;
  return report;
}

ExecutorReport Executor::Run() { return RunInternal(0, {}); }

ExecutorReport Executor::RunFor(uint64_t duration_ms,
                                const std::function<void(Executor&)>& producer) {
  OPTSCHED_CHECK(duration_ms > 0);
  return RunInternal(duration_ms, producer);
}

}  // namespace optsched::runtime
