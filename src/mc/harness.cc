#include "src/mc/harness.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/base/check.h"
#include "src/base/str.h"
#include "src/core/policies/registry.h"
#include "src/sched/machine_state.h"

namespace optsched::mc {

using runtime::StealCounters;
using runtime::StealObservation;
using runtime::WorkItem;

namespace {

// Uniform spawn tree: every node at remaining depth > 0 forks `fanout`
// children under a trivial continuation. env[0] = remaining depth,
// env[1] = fanout. Lives here (not src/workload) so the mc target does not
// grow a workload dependency for a shape this small.
void UniformTreeCont(task::TaskContext& /*ctx*/, task::TaskNode& /*self*/) {}

void UniformTreeTask(task::TaskContext& ctx, task::TaskNode& self) {
  const uint64_t depth = self.env[0];
  const uint64_t fanout = self.env[1];
  if (depth == 0) {
    return;  // leaf: returns complete, decrements its parent's join
  }
  task::TaskNode& cont = ctx.ForkN(UniformTreeCont, static_cast<uint32_t>(fanout));
  for (uint64_t i = 0; i < fanout; ++i) {
    task::TaskNode& child = ctx.NewChild(UniformTreeTask, cont);
    child.env[0] = depth - 1;
    child.env[1] = fanout;
    ctx.Spawn(child);
  }
}

// Internal (forking) node count of the uniform tree: levels 0..depth-1.
uint64_t UniformTreeInternalNodes(uint32_t depth, uint32_t fanout) {
  uint64_t internal = 0;
  uint64_t level = 1;
  for (uint32_t k = 0; k < depth; ++k) {
    internal += level;
    level *= fanout;
  }
  return internal;
}

}  // namespace

StealHarness::StealHarness(Schedule schedule)
    : schedule_(std::move(schedule)),
      mode_(FindMode(schedule_.harness)),
      topology_(Topology::Smp(static_cast<uint32_t>(schedule_.initial_loads.size()))) {
  const uint32_t n = num_workers();
  OPTSCHED_CHECK(n > 0);
  OPTSCHED_CHECK_MSG(mode_ != nullptr, "unknown harness mode");
  OPTSCHED_CHECK_MSG(runtime::ParseQueueBackend(schedule_.backend, backend_),
                     "unknown backend in schedule");
  if (mode_->spawn_tree) {
    // The only seeded item is the root task: pre-seeded plain items would
    // blur the no-lost-spawns accounting (dynamic spawns are the point).
    for (int64_t load : schedule_.initial_loads) {
      OPTSCHED_CHECK_MSG(load == 0, "a spawn-tree mode seeds only the root task "
                                    "(initial_loads must be all zero)");
    }
    OPTSCHED_CHECK(schedule_.tree_depth >= 1 && schedule_.fanout >= 1);
  }
  // The producer (worker 0) needs at least one owner to push to.
  OPTSCHED_CHECK_MSG(!mode_->mailboxes || (n >= 2 && schedule_.mailbox_capacity >= 1),
                     "a mailbox mode needs >= 2 workers (worker 0 is the producer) "
                     "and mailbox_capacity >= 1");
  seams_.steal.recheck = schedule_.recheck;
  seams_.steal.max_batch = schedule_.max_steal_batch;
  seams_.checker.probe = this;
  // Every internal node allocates one continuation plus `fanout` children;
  // chunked handout wastes up to one chunk per worker, covered by slack.
  const uint64_t internal = UniformTreeInternalNodes(schedule_.tree_depth, schedule_.fanout);
  seams_.task.max_workers = n;
  seams_.task.arena_capacity =
      static_cast<uint32_t>(1 + internal * (schedule_.fanout + 1) + 16ull * n + 16);
  if (!schedule_.fault.empty()) {
    const SeededFault* fault = FindFault(schedule_.fault);
    OPTSCHED_CHECK_MSG(fault != nullptr, "unknown fault in schedule");
    OPTSCHED_CHECK_MSG(fault->AppliesTo(*mode_, backend_),
                       "the schedule's fault does not apply to its mode or backend");
    fault->set(seams_);
  }
  policy_ = policies::MakePolicyByName(schedule_.policy, topology_);
  OPTSCHED_CHECK_MSG(policy_ != nullptr, "unknown policy name");
}

int64_t StealHarness::InitialPotential() const {
  return PotentialOfLoads(schedule_.initial_loads);
}

// "forkjoin" mode's task runner: the real src/task join protocol, spawning
// through the executor's own SubmitFromWorker (count, owner push, notify) and
// ending each body with its spawn-segment handoff (HandOffFromWorker).
// The harness adds only its notes, and tracks which workers are inside a
// body for no-worker-blocks-on-join.
class StealHarness::Tasks final : public runtime::TaskRunner, public task::SpawnSink {
 public:
  Tasks(task::TaskGraph& graph, uint32_t workers) : graph_(graph), in_body_(workers, false) {}

  void RunItem(const WorkItem& item, runtime::Executor& executor, uint32_t worker) override {
    executor_ = &executor;
    in_body_[worker] = true;
    graph_.RunItemOn(item, worker, *this);
    in_body_[worker] = false;
  }

  void SubmitBatch(uint32_t worker, const WorkItem* items, uint32_t count) override {
    executor_->SubmitFromWorker(worker, items, count);
    NoteSpawns(worker, items, count);
  }
  void SubmitFinalBatch(uint32_t worker, const WorkItem* items, uint32_t count) override {
    executor_->HandOffFromWorker(worker, items, count);
    NoteSpawns(worker, items, count);
  }
  void OnFork(uint32_t worker, uint64_t continuation_id, uint32_t children) override {
    ActiveScheduler()->Note(kUserTaskFork, static_cast<int64_t>(continuation_id),
                            static_cast<int64_t>(children), worker);
  }
  void OnJoinFire(uint32_t worker, uint64_t continuation_id) override {
    ActiveScheduler()->Note(kUserJoinFire, static_cast<int64_t>(continuation_id), worker);
  }

  bool in_body(uint32_t worker) const { return in_body_[worker]; }

 private:
  // Kept items count as spawned like the pushed ones (no-lost-spawns).
  static void NoteSpawns(uint32_t worker, const WorkItem* items, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      ActiveScheduler()->Note(kUserTaskSpawn, static_cast<int64_t>(items[i].id), worker);
    }
  }

  task::TaskGraph& graph_;
  runtime::Executor* executor_ = nullptr;
  std::vector<bool> in_body_;
};

StealHarness::~StealHarness() = default;

std::vector<std::function<void()>> StealHarness::MakeBodies() {
  const uint32_t n = num_workers();
  task_graph_.reset();
  tasks_.reset();
  if (mode_->spawn_tree) {
    task_graph_ = std::make_unique<task::TaskGraph>(seams_.task);
    tasks_ = std::make_unique<Tasks>(*task_graph_, n);
  }
  mailboxes_ = mode_->mailboxes
                   ? std::make_unique<ingress::MailboxSet>(n, schedule_.mailbox_capacity)
                   : nullptr;

  // The executor the owner modes run: its loop, parking after one fruitless
  // round past the idle announcement, with no calibrated spin per item.
  runtime::ExecutorConfig exec;
  exec.num_workers = n;
  exec.spin_per_unit = 0;
  exec.backend = backend_;
  exec.chase_lev_capacity = schedule_.deque_capacity;
  exec.recheck_filter = schedule_.recheck;
  exec.max_steal_batch = schedule_.max_steal_batch;
  exec.ingress = mailboxes_ != nullptr ? this : nullptr;
  exec.task_runner = tasks_.get();
  exec.seed = schedule_.seed;
  executor_ = std::make_unique<runtime::Executor>(policy_, exec, &topology_, seams_.checker);
  stats_.assign(n, runtime::WorkerStats{});
  counters_.assign(n, StealCounters{});
  steal_rounds_.assign(n, 0);
  held_.assign(n, std::nullopt);
  initial_item_ids_.clear();
  executed_ = 0;
  admitted_ = 0;
  notify_in_flight_ = false;

  uint64_t next_id = 1;
  std::vector<WorkItem> seed;
  for (uint32_t q = 0; q < n; ++q) {
    seed.clear();
    for (int64_t k = 0; k < schedule_.initial_loads[q]; ++k) {
      seed.push_back(WorkItem{.id = next_id, .work_units = 1, .weight = 1024});
      initial_item_ids_.push_back(next_id);
      ++next_id;
    }
    if (seed.empty()) {
      continue;
    }
    if (!mode_->shipped_loop) {
      // Owner-side seeding: on chase_lev this lands items in the deque (the
      // stealable structure), not the external-submit inbox — Figure 1's
      // loop never runs PopForRun, so inbox items would be invisible to
      // thieves.
      machine().queue(q).PushBatchOwner(seed.data(), static_cast<uint32_t>(seed.size()));
    } else {
      executor_->Seed(q, seed);
    }
  }
  next_ingress_id_ = next_id;
  if (mode_->spawn_tree) {
    const WorkItem root = task_graph_->ItemFor(task_graph_->NewRoot(UniformTreeTask));
    task::TaskNode& node = *reinterpret_cast<task::TaskNode*>(root.task);
    node.env[0] = schedule_.tree_depth;
    node.env[1] = schedule_.fanout;
    executor_->Seed(0, {root});
    initial_item_ids_.push_back(root.id);
  }

  std::vector<std::function<void()>> bodies;
  bodies.reserve(n);
  if (!mode_->shipped_loop) {
    for (uint32_t w = 0; w < n; ++w) {
      bodies.push_back([this, w] { BalanceBody(w); });
    }
    return bodies;
  }
  executor_->BeginCheckedRun(/*deadline_mode=*/!mode_->closed_run);
  for (uint32_t w = 0; w < n; ++w) {
    if (mailboxes_ != nullptr && w == 0) {
      bodies.push_back([this] { ProducerBody(); });
    } else {
      bodies.push_back([this, w] { executor_->RunWorker(w, stats_[w]); });
    }
  }
  return bodies;
}

BodyFactory StealHarness::Factory() {
  return [this] { return MakeBodies(); };
}

namespace {

// The calling thread's published-load writes since its last kUserSnapshot:
// every publish of one steal, from its selection to its outcome.
int64_t LoadWritesSinceSnapshot(const Scheduler& scheduler) {
  const std::vector<McEvent>& events = scheduler.events();
  int64_t writes = 0;
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->thread != scheduler.current_thread()) {
      continue;
    }
    if (it->user_kind == kUserSnapshot) {
      break;
    }
    writes += it->user_kind == kUserNone && it->op.op == SyncOp::kLoadWrite ? 1 : 0;
  }
  return writes;
}

// The outcome notes of one steal attempt, from its counter deltas.
void NoteSteal(const StealCounters& before, const StealCounters& after, CpuId victim,
               const StealObservation& observation, bool ok) {
  Scheduler* scheduler = ActiveScheduler();
  if (ok) {
    // arg1 is the effective victim depth: on chase_lev the victim may have
    // executed (FinishCurrent) its own items between the thief's observation
    // reads — the one non-CAS-guarded tasks decrement — and the delta
    // credits that owner progress back so steal-safety judges the state the
    // migration gate actually acted on (always 0 on locked: the victim is
    // frozen under its lock).
    scheduler->Note(kUserStealOk, victim,
                    observation.victim_tasks_after + observation.victim_finished_delta,
                    static_cast<int64_t>(observation.item_id));
    scheduler->Note(kUserStealBatch, static_cast<int64_t>(observation.items_moved),
                    LoadWritesSinceSnapshot(*scheduler), victim);
  } else if (after.failed_recheck > before.failed_recheck) {
    scheduler->Note(kUserStealFailRecheck, victim);
  } else if (after.failed_no_task > before.failed_no_task) {
    scheduler->Note(kUserStealFailNoTask, victim);
  } else {
    scheduler->Note(kUserStealEmptyFilter);
  }
}

}  // namespace

bool StealHarness::StealOnce(uint32_t worker, Rng& rng, WorkItem* run_next) {
  Scheduler* scheduler = ActiveScheduler();
  OPTSCHED_CHECK(scheduler != nullptr);
  // The snapshot marker precedes the load reads: a steal interleaved into
  // the middle of Snapshot() is inside the causality window too.
  scheduler->Note(kUserSnapshot, static_cast<int64_t>(counters_[worker].attempts));
  const LoadSnapshot snapshot = machine().Snapshot();
  scheduler->Yield();  // the selection→stealing gap where staleness develops

  const StealCounters before = counters_[worker];
  CpuId victim = 0;
  StealObservation observation;
  const bool ok = machine().TrySteal(*policy_, worker, snapshot, rng, seams_.steal,
                                     counters_[worker], &topology_, &victim, &observation,
                                     /*scratch=*/nullptr, run_next);
  NoteSteal(before, counters_[worker], victim, observation, ok);
  return ok;
}

void StealHarness::BalanceBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(schedule_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  for (uint32_t attempt = 0; attempt < schedule_.attempts_per_worker; ++attempt) {
    // The executor's landing steal while this worker holds nothing; once it
    // holds a running item, later steals land plainly (a running worker
    // never steals in the executor, but balance mode keeps attempting).
    WorkItem landed;
    const bool holding = held_[worker].has_value();
    if (StealOnce(worker, rng, holding ? nullptr : &landed) && !holding) {
      held_[worker] = landed;
    }
    scheduler->Yield();  // attempt boundary: a free switch point
  }
}

void StealHarness::ProducerBody() {
  Scheduler* scheduler = ActiveScheduler();
  const uint32_t n = num_workers();
  // attempts_per_worker pushes, round-robin over the owners. Each push is
  // announced as admitted (kUserMailboxPush) or refused-full
  // (kUserMailboxShed): the dichotomy the accounting property relies on —
  // no third state, so every offered item is traceable.
  for (uint32_t i = 0; i < schedule_.attempts_per_worker; ++i) {
    const uint32_t target = 1 + (i % (n - 1));
    const uint64_t id = next_ingress_id_++;
    const WorkItem item{.id = id, .work_units = 1, .weight = 1024};
    if (mailboxes_->Push(target, item)) {
      ++admitted_;
      notify_in_flight_ = true;
      scheduler->Note(kUserMailboxPush, static_cast<int64_t>(id), target);
    } else {
      scheduler->Note(kUserMailboxShed, static_cast<int64_t>(id), target);
    }
    // NotifyIngress's ordering contract: the notify strictly follows the
    // item becoming mailbox-visible.
    executor_->NotifyIngress(target);
    notify_in_flight_ = false;
    scheduler->Yield();
  }
  // RunFor's deadline, played once every seeded and admitted item has run.
  // A deadline that never comes is a deadlock the checker reports: some
  // owner parked through an item it was never woken for.
  const uint64_t total = initial_item_ids_.size() + admitted_;
  scheduler->BlockUntil(SyncOp::kYield, nullptr, [this, total] { return executed_ >= total; });
  executor_->Stop();
}

void StealHarness::OnExecuted(uint32_t /*worker*/, uint64_t item_id, uint32_t kept) {
  ++executed_;
  ActiveScheduler()->Note(kUserExecuteItem, static_cast<int64_t>(item_id), kept);
}

void StealHarness::OnQuiescent(uint32_t /*worker*/,
                               const runtime::TerminationCounts::Sums& sums) {
  ActiveScheduler()->Note(kUserQuiescent, static_cast<int64_t>(sums.executed),
                          static_cast<int64_t>(sums.submitted));
}

void StealHarness::OnSteal(uint32_t /*worker*/, const StealCounters& before,
                           const StealCounters& after, CpuId victim,
                           const StealObservation& observation) {
  NoteSteal(before, after, victim, observation, after.successes > before.successes);
}

bool StealHarness::MaySteal(uint32_t worker) {
  if (steal_rounds_[worker] >= schedule_.attempts_per_worker) {
    return false;
  }
  // The round's selection starts here: publish-batching counts from it.
  ActiveScheduler()->Note(kUserSnapshot, steal_rounds_[worker]++);
  return true;
}

void StealHarness::OnPark(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  // Blocking while an item sits in the mailbox with no notify on its way is
  // a lost wakeup: nothing would ever release this owner for it. (The
  // mailbox's lifetime tallies are hook-free, so this adds no decision
  // point.)
  if (mailboxes_ != nullptr && !notify_in_flight_) {
    const ingress::BoundedMailbox& mailbox = mailboxes_->mailbox(worker);
    const uint64_t resident = mailbox.total_pushed() - mailbox.total_drained();
    if (resident > 0) {
      scheduler->Note(kUserLostWakeup, worker, static_cast<int64_t>(resident));
    }
  }
  scheduler->Note(kUserPark, tasks_ != nullptr && tasks_->in_body(worker) ? 1 : 0);
}

uint32_t StealHarness::Drain(uint32_t worker, std::vector<WorkItem>& out, uint32_t max_items) {
  const size_t first = out.size();
  const uint32_t moved = mailboxes_->Drain(worker, out, max_items);
  for (size_t i = first; i < out.size(); ++i) {
    ActiveScheduler()->Note(kUserMailboxDrain, static_cast<int64_t>(out[i].id), worker);
  }
  return moved;
}

int64_t StealHarness::PendingFor(uint32_t worker) const { return mailboxes_->PendingFor(worker); }

const PropertyReport* StealHarness::FirstViolation(const std::vector<PropertyReport>& reports) {
  for (const PropertyReport& report : reports) {
    if (!report.holds) {
      return &report;
    }
  }
  return nullptr;
}

Schedule StealHarness::MakeSchedule(const std::vector<uint32_t>& choices) const {
  Schedule schedule = schedule_;
  schedule.choices = choices;
  return schedule;
}

// What one Evaluate call shares between the property sets.
struct StealHarness::Evaluation {
  explicit Evaluation(const ExecutionResult& execution) : result(execution) {}

  const ExecutionResult& result;
  // False after a deadlock or the step cap: the machine state cannot be
  // trusted (a worker may have been unwound mid-protocol).
  bool terminated = !result.deadlock && !result.step_limit_hit;
  std::vector<PropertyReport> reports;

  void Add(std::string_view name, bool holds, std::string detail = "") {
    reports.push_back(PropertyReport{std::string(name), holds, std::move(detail)});
  }
  // `name` holds unless some event of `kind` satisfies `violates`; the
  // first such event is described by `describe`.
  template <typename Violates, typename Describe>
  void NoEvent(std::string_view name, uint32_t kind, Violates violates, Describe describe) {
    for (const McEvent& event : result.events) {
      if (event.user_kind == kind && violates(event)) {
        Add(name, false, describe(event));
        return;
      }
    }
    Add(name, true);
  }
  // Successful steal actions and the items they moved.
  std::pair<uint64_t, uint64_t> Steals() const {
    uint64_t actions = 0;
    uint64_t items = 0;
    for (const McEvent& event : result.events) {
      actions += event.user_kind == kUserStealOk;
      items += event.user_kind == kUserStealBatch ? static_cast<uint64_t>(event.arg0) : 0;
    }
    return {actions, items};
  }
};

std::vector<PropertyReport> StealHarness::Evaluate(const ExecutionResult& result) {
  OPTSCHED_CHECK_MSG(executor_ != nullptr, "Evaluate before MakeBodies");
  Evaluation eval(result);
  for (const PropertySet set : mode_->properties) {
    switch (set) {
      case PropertySet::kWakeup:
        WakeupProperties(eval);
        break;
      case PropertySet::kTermination:
        TerminationProperties(eval);
        break;
      case PropertySet::kSteal:
        StealProperties(eval);
        break;
      case PropertySet::kStealBounds:
        StealBoundProperties(eval);
        break;
      case PropertySet::kJoin:
        JoinProperties(eval);
        break;
      case PropertySet::kIdleness:
        IdlenessProperties(eval);
        break;
    }
    // Nothing past a failed termination is judged.
    if (set == PropertySet::kTermination && !eval.terminated) {
      break;
    }
  }
  return std::move(eval.reports);
}

void StealHarness::WakeupProperties(Evaluation& eval) {
  // --- no-lost-wakeup: judged from the park events alone, so it is reported
  // ahead of termination — a lost wakeup usually ends in a deadlock (the
  // owner parks and the producer's deadline never comes), and this names
  // the cause.
  eval.NoEvent(
      "no-lost-wakeup", kUserLostWakeup, [](const McEvent&) { return true; },
      [](const McEvent& event) {
        return StrFormat("owner %lld parked with %lld mailbox items and no notify on its way",
                         static_cast<long long>(event.arg0), static_cast<long long>(event.arg1));
      });
  if (!eval.terminated) {
    return;
  }
  // --- wakeup-no-stranded-items: no owner may exit over a mailbox-resident
  // item. Checked BEFORE the conservation drain empties the mailboxes.
  bool holds = true;
  std::string detail;
  for (uint32_t w = 0; w < num_workers() && holds; ++w) {
    const int64_t pending = mailboxes_->PendingFor(w);
    if (pending > 0) {
      holds = false;
      detail = StrFormat("owner %u exited with %lld items stranded in its mailbox", w,
                         static_cast<long long>(pending));
    }
  }
  eval.Add("wakeup-no-stranded-items", holds, std::move(detail));
}

void StealHarness::TerminationProperties(Evaluation& eval) {
  const ExecutionResult& result = eval.result;
  if (!eval.terminated) {
    eval.Add("termination", false,
             result.deadlock ? result.deadlock_note : "decision-step limit hit");
    return;
  }
  eval.Add("termination", true);

  // --- published-depth: the lock-free load publication agrees with the -------
  // structural queue state at quiescence. Evaluated BEFORE the conservation
  // drain below mutates the queues. A batched operation that forgot its
  // publish (locked backend: the two published words; chase_lev: a counter
  // update) shows up here as a stale depth no observation-based property
  // would notice.
  {
    bool holds = true;
    std::string detail;
    for (uint32_t q = 0; q < num_workers() && holds; ++q) {
      runtime::ConcurrentRunQueue& queue = machine().queue(q);
      const runtime::LoadPair published = queue.ReadLoad();
      const runtime::LoadPair exact = queue.ExactLoad();
      if (published.task_count != exact.task_count ||
          published.weighted_load != exact.weighted_load) {
        holds = false;
        detail = StrFormat("queue %u publishes %lld tasks / %lld weight but holds %lld / %lld",
                           q, static_cast<long long>(published.task_count),
                           static_cast<long long>(published.weighted_load),
                           static_cast<long long>(exact.task_count),
                           static_cast<long long>(exact.weighted_load));
      }
    }
    eval.Add("published-depth", holds, std::move(detail));
  }

  // --- conservation: initial multiset == remaining ∪ executed ---------------
  // The expected side also holds every item a mailbox ACCEPTED
  // (kUserMailboxPush; refused pushes never entered the system and are
  // accounted by their kUserMailboxShed event alone) and every dynamically
  // spawned task (kUserTaskSpawn; the root is seeded, so it is in
  // initial_item_ids_). The accounted side also holds mailbox-resident items
  // still undrained at the end: admitted or spawned work may be queued,
  // executed, or still in its mailbox, but never gone.
  std::vector<uint64_t> seen;
  std::vector<uint64_t> expected = initial_item_ids_;
  for (const McEvent& event : result.events) {
    if (event.user_kind == kUserExecuteItem) {
      seen.push_back(static_cast<uint64_t>(event.arg0));
    } else if (event.user_kind == kUserMailboxPush || event.user_kind == kUserTaskSpawn) {
      expected.push_back(static_cast<uint64_t>(event.arg0));
    }
  }
  for (uint32_t q = 0; q < num_workers(); ++q) {
    runtime::ConcurrentRunQueue& queue = machine().queue(q);
    if (held_[q].has_value()) {
      seen.push_back(held_[q]->id);
      queue.FinishCurrent();
    }
    while (std::optional<WorkItem> item = queue.PopForRun()) {
      seen.push_back(item->id);
      queue.FinishCurrent();
    }
  }
  if (mailboxes_ != nullptr) {
    std::vector<WorkItem> leftover;
    for (uint32_t w = 0; w < num_workers(); ++w) {
      mailboxes_->Drain(w, leftover, ~0u);
    }
    for (const WorkItem& item : leftover) {
      seen.push_back(item.id);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  eval.Add(mode_->conservation, seen == expected,
           seen == expected
               ? ""
               : StrFormat("item multiset changed: %zu seeded+admitted, %zu accounted",
                           expected.size(), seen.size()));

  // --- no-premature-exit: a worker whose quiescence sum read drained exits
  // only once every item of the final workload (seeds ∪ all spawns) has
  // executed. A sum that misses children spawned between its passes
  // (broken_termination_order), or an executed count bumped before its
  // body ran, lets a worker leave with work still to come; in the executor,
  // a worker or supervisor acting on such a sum treats the run as over while
  // it is not.
  if (mode_->closed_run) {
    bool holds = true;
    std::string detail;
    size_t finished = 0;
    for (const McEvent& event : result.events) {
      if (event.user_kind == kUserExecuteItem) {
        ++finished;
      } else if (event.user_kind == kUserQuiescent && finished != expected.size()) {
        holds = false;
        detail = StrFormat(
            "worker %u read drained (executed %lld == submitted %lld) with %zu of %zu "
            "items executed",
            event.thread, static_cast<long long>(event.arg0),
            static_cast<long long>(event.arg1), finished, expected.size());
        break;
      }
    }
    eval.Add("no-premature-exit", holds, std::move(detail));
  }
}

void StealHarness::StealProperties(Evaluation& eval) {
  // --- steal-safety: no successful steal idled its victim --------------------
  // Batched steals included: arg1 is the victim's task count after the WHOLE
  // batch left, read under both locks.
  eval.NoEvent(
      "steal-safety", kUserStealOk, [](const McEvent& event) { return event.arg1 < 1; },
      [](const McEvent& event) {
        return StrFormat("worker %u idled victim %lld at step %u", event.thread,
                         static_cast<long long>(event.arg0), event.step);
      });
  // --- publish-batching: ≤ 2 load publishes per steal ------------------------
  // One per queue, however many items the batch moved. arg1 counts the
  // thief's kLoadWrite events between its kUserSnapshot and kUserStealOk
  // notes: per-item publishing under both held locks would show up here as
  // items_moved + 1.
  eval.NoEvent(
      "publish-batching", kUserStealBatch, [](const McEvent& event) { return event.arg1 > 2; },
      [](const McEvent& event) {
        return StrFormat("worker %u published %lld times in one steal (%lld items)",
                         event.thread, static_cast<long long>(event.arg1),
                         static_cast<long long>(event.arg0));
      });
}

void StealHarness::StealBoundProperties(Evaluation& eval) {
  // --- bounded-steals: migrated items ≤ d(initial)/2 (§4.3) ------------------
  // Each permitted migration strictly decreases the potential by ≥ 2, so the
  // ITEM count is bounded by d0/2 — and since every successful action moves
  // ≥ 1 item, the action count inherits the same bound (successes ≤ items).
  const auto [successes, items_moved] = eval.Steals();
  const int64_t bound = InitialPotential() / 2;
  const bool bounded = successes <= items_moved && static_cast<int64_t>(items_moved) <= bound;
  eval.Add("bounded-steals", bounded,
           bounded ? ""
                   : StrFormat("%llu actions / %llu migrated items vs d0/2 = %lld",
                               static_cast<unsigned long long>(successes),
                               static_cast<unsigned long long>(items_moved),
                               static_cast<long long>(bound)));

  // --- failure-causality: every failed re-check has a concurrent successful
  // steal inside its snapshot→recheck window (§4.2) --------------------------
  // Locked backend only. On chase_lev the causality holds by construction —
  // TakeTop fails only because a competitor's CAS moved top — but that
  // competitor's kUserStealOk NOTE is emitted after its TrySteal returns and
  // may be scheduled past this thread's recheck event, so the event-window
  // scan below would flag spurious violations on a sound protocol.
  if (backend_ != runtime::QueueBackend::kLocked) {
    return;
  }
  const std::vector<McEvent>& events = eval.result.events;
  bool holds = true;
  std::string detail;
  std::vector<int64_t> last_snapshot(num_workers(), -1);
  for (size_t i = 0; i < events.size() && holds; ++i) {
    const McEvent& event = events[i];
    if (event.user_kind == kUserSnapshot) {
      last_snapshot[event.thread] = static_cast<int64_t>(i);
    } else if (event.user_kind == kUserStealFailRecheck) {
      bool caused = false;
      for (int64_t j = last_snapshot[event.thread] + 1; j < static_cast<int64_t>(i); ++j) {
        const McEvent& cause = events[j];
        if (cause.user_kind == kUserStealOk && cause.thread != event.thread) {
          caused = true;
          break;
        }
      }
      if (!caused) {
        holds = false;
        detail = StrFormat(
            "worker %u failed its re-check at step %u with no concurrent steal in the window",
            event.thread, event.step);
      }
    }
  }
  eval.Add("failure-causality", holds, std::move(detail));
}

void StealHarness::JoinProperties(Evaluation& eval) {
  // --- join-fires-exactly-once: every forked continuation's counter reaches
  // zero exactly once. Ids name node lifetimes (the item id carries the
  // arena slot's generation), so a reused node is a new continuation. A
  // lost decrement (broken_join_counter's plain load/store race) strands
  // the continuation — fork with no fire — and so does a node reused while
  // a child still owed it (broken_node_recycle); the acq_rel RMW chain
  // makes a double fire structurally impossible, but the property checks
  // both directions anyway.
  {
    bool holds = true;
    std::string detail;
    std::vector<uint64_t> forked;
    std::map<uint64_t, uint64_t> fires;
    for (const McEvent& event : eval.result.events) {
      if (event.user_kind == kUserTaskFork) {
        forked.push_back(static_cast<uint64_t>(event.arg0));
      } else if (event.user_kind == kUserJoinFire) {
        ++fires[static_cast<uint64_t>(event.arg0)];
      }
    }
    for (uint64_t id : forked) {
      const auto it = fires.find(id);
      const uint64_t count = it == fires.end() ? 0 : it->second;
      if (count != 1) {
        holds = false;
        detail = StrFormat("continuation %llu forked but its join fired %llu times",
                           static_cast<unsigned long long>(id),
                           static_cast<unsigned long long>(count));
        break;
      }
      fires.erase(it);
    }
    if (holds && !fires.empty()) {
      holds = false;
      detail = StrFormat("continuation %llu fired without a fork",
                         static_cast<unsigned long long>(fires.begin()->first));
    }
    eval.Add("join-fires-exactly-once", holds, std::move(detail));
  }

  // --- no-worker-blocks-on-join: the continuation-counting discipline never
  // waits — a finishing child decrements and moves on. Termination without
  // deadlock already held; a park noted inside a task body would mean a
  // worker suspended inside the protocol (idle parks between items are the
  // loop's, not the join's).
  eval.NoEvent(
      "no-worker-blocks-on-join", kUserPark, [](const McEvent& event) { return event.arg0 == 1; },
      [](const McEvent& event) {
        return StrFormat("worker %u parked inside the fork-join protocol", event.thread);
      });

  // --- bounded-steals-on-tree: migrations on a rooted spawn tree stay in
  // the O(W·depth) regime (Leiserson/Schardl/Suksompong), never the task
  // count. The constant here is deliberately generous — the property
  // guards the asymptotic shape, the E16 bench measures the constant.
  const uint64_t items_moved = eval.Steals().second;
  const uint64_t bound =
      static_cast<uint64_t>(num_workers()) * (schedule_.tree_depth + 2) * schedule_.fanout;
  eval.Add("bounded-steals-on-tree", items_moved <= bound,
           items_moved <= bound
               ? ""
               : StrFormat("%llu items migrated vs W*(depth+2)*fanout = %llu",
                           static_cast<unsigned long long>(items_moved),
                           static_cast<unsigned long long>(bound)));
}

void StealHarness::IdlenessProperties(Evaluation& eval) {
  // --- bounded-idleness: a busy worker's private spawns keep a parked
  // sibling waiting for at most one of its items. Worker A parks only after
  // announcing itself idle, so the item boundary that worker B passes after
  // its next full item peeks at a non-zero idle count: B publishes its spawn
  // segment there or has nothing left to keep. A boundary that raced A's
  // announcement gets that one item of grace, which is why A must have
  // parked before B's previous boundary (or before B started).
  const std::vector<McEvent>& events = eval.result.events;
  constexpr int64_t kNone = -1;
  // Per worker: the index of its park note while it stays parked, and of
  // its latest item boundary (its first event until it has one). The event
  // a worker records right after its park note announces the block itself
  // (events are announced before they run), so only a later one ends the
  // park.
  std::vector<int64_t> parked_at(num_workers(), kNone);
  std::vector<bool> blocking(num_workers(), false);
  std::vector<int64_t> boundary_at(num_workers(), kNone);
  for (size_t i = 0; i < events.size(); ++i) {
    const McEvent& event = events[i];
    const uint32_t b = event.thread;
    if (b >= num_workers()) {
      continue;
    }
    if (event.user_kind == kUserExecuteItem && event.arg1 > 0) {
      for (uint32_t a = 0; a < num_workers(); ++a) {
        if (a != b && parked_at[a] != kNone && parked_at[a] < boundary_at[b]) {
          eval.Add("bounded-idleness", false,
                   StrFormat("worker %u kept %lld spawns private through a whole item while "
                             "worker %u stayed parked",
                             b, static_cast<long long>(event.arg1), a));
          return;
        }
      }
    }
    if (event.user_kind == kUserPark) {
      parked_at[b] = static_cast<int64_t>(i);
      blocking[b] = true;
    } else if (blocking[b]) {
      blocking[b] = false;
    } else {
      parked_at[b] = kNone;
    }
    if (boundary_at[b] == kNone || event.user_kind == kUserExecuteItem) {
      boundary_at[b] = static_cast<int64_t>(i);
    }
  }
  eval.Add("bounded-idleness", true);
}

}  // namespace optsched::mc
