#include "src/mc/harness.h"

#include <algorithm>
#include <map>

#include "src/base/check.h"
#include "src/base/str.h"
#include "src/core/policies/registry.h"
#include "src/sched/deal_policy.h"
#include "src/sched/machine_state.h"

namespace optsched::mc {

using runtime::ConcurrentMachine;
using runtime::StealCounters;
using runtime::StealObservation;
using runtime::WorkItem;

namespace {

// "forkjoin" mode sink: the real src/task join protocol runs unmodified; only
// the spawn destination changes — batches land on the runner's own machine
// queue (the executor's PushBatchOwner path), counted first exactly like
// Executor::SubmitFromWorker, and every spawn/fork/fire is announced to the
// checker.
class McTaskSink final : public task::SpawnSink {
 public:
  explicit McTaskSink(ConcurrentMachine& machine) : machine_(machine) {}

  void SubmitBatch(uint32_t worker, const WorkItem* items, uint32_t count) override {
    runtime::ConcurrentRunQueue& own = machine_.queue(worker);
    runtime::TerminationCounts::AddSubmitted(own.counts(), count);
    own.PushBatchOwner(items, count);
    Scheduler* scheduler = ActiveScheduler();
    for (uint32_t i = 0; i < count; ++i) {
      scheduler->Note(kUserTaskSpawn, static_cast<int64_t>(items[i].id), worker);
    }
  }

  void OnFork(uint32_t worker, uint64_t continuation_id, uint32_t children) override {
    ActiveScheduler()->Note(kUserTaskFork, static_cast<int64_t>(continuation_id),
                            static_cast<int64_t>(children), worker);
  }

  void OnJoinFire(uint32_t worker, uint64_t continuation_id) override {
    ActiveScheduler()->Note(kUserJoinFire, static_cast<int64_t>(continuation_id), worker);
  }

 private:
  ConcurrentMachine& machine_;
};

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

StealHarness::Config StealHarness::Config::FromSchedule(const Schedule& schedule) {
  Config config;
  config.mode = schedule.harness;
  config.policy = schedule.policy;
  config.initial_loads = schedule.initial_loads;
  config.attempts_per_worker = schedule.attempts_per_worker;
  config.seed = schedule.seed;
  config.recheck = schedule.recheck;
  config.max_steal_batch = schedule.max_steal_batch;
  config.break_batch_bound = schedule.break_batch_bound;
  config.mailbox_capacity = schedule.mailbox_capacity;
  OPTSCHED_CHECK_MSG(runtime::ParseQueueBackend(schedule.backend, config.backend),
                     "unknown backend in schedule");
  config.deque_capacity = schedule.deque_capacity;
  config.broken_steal_order = schedule.broken_steal_order;
  config.tree_depth = schedule.tree_depth;
  config.fanout = schedule.fanout;
  config.broken_join_counter = schedule.broken_join_counter;
  config.broken_termination_order = schedule.broken_termination_order;
  config.broken_wakeup_gate = schedule.broken_wakeup_gate;
  config.deal_window = schedule.deal_window;
  config.broken_deal_window = schedule.broken_deal_window;
  return config;
}

StealHarness::StealHarness(Config config)
    : config_(std::move(config)),
      topology_(Topology::Smp(static_cast<uint32_t>(config_.initial_loads.size()))) {
  OPTSCHED_CHECK(!config_.initial_loads.empty());
  OPTSCHED_CHECK_MSG(config_.mode == "balance" || config_.mode == "drain" ||
                         config_.mode == "epoch" || config_.mode == "ingress" ||
                         config_.mode == "wakeup" || config_.mode == "forkjoin" ||
                         config_.mode == "deal",
                     "unknown harness mode");
  if (config_.mode == "forkjoin") {
    // The only seeded item is the root task: pre-seeded plain items would
    // blur the no-lost-spawns accounting (dynamic spawns are the point).
    for (int64_t load : config_.initial_loads) {
      OPTSCHED_CHECK_MSG(load == 0, "forkjoin mode seeds only the root task "
                                    "(initial_loads must be all zero)");
    }
    OPTSCHED_CHECK(config_.tree_depth >= 1 && config_.fanout >= 1);
  } else {
    OPTSCHED_CHECK_MSG(!config_.broken_join_counter,
                       "broken_join_counter is a forkjoin fault knob");
    OPTSCHED_CHECK_MSG(!config_.broken_termination_order,
                       "broken_termination_order is a forkjoin fault knob");
  }
  OPTSCHED_CHECK_MSG(config_.mode == "wakeup" || !config_.broken_wakeup_gate,
                     "broken_wakeup_gate is a wakeup fault knob");
  if (config_.mode == "deal") {
    // Worker 0 is the dealer; dealing needs at least one peer, a non-empty
    // take window, and a bounded mailbox to refuse into.
    OPTSCHED_CHECK_MSG(config_.initial_loads.size() >= 2,
                       "deal mode needs >= 2 workers (worker 0 is the dealer)");
    OPTSCHED_CHECK_MSG(config_.deal_window >= 1, "deal mode needs deal_window >= 1");
    OPTSCHED_CHECK_MSG(config_.mailbox_capacity >= 1,
                       "deal mode needs mailbox_capacity >= 1");
  } else {
    OPTSCHED_CHECK_MSG(!config_.broken_deal_window,
                       "broken_deal_window is a deal fault knob");
  }
  const bool producer_mode = config_.mode == "ingress" || config_.mode == "wakeup";
  // Producer modes need at least one owner besides the producer (worker 0).
  OPTSCHED_CHECK_MSG(!producer_mode || config_.initial_loads.size() >= 2,
                     "ingress/wakeup modes need >= 2 workers (worker 0 is the producer)");
  OPTSCHED_CHECK_MSG(!producer_mode || config_.mailbox_capacity >= 1,
                     "ingress/wakeup modes need mailbox_capacity >= 1");
  OPTSCHED_CHECK_MSG(config_.backend == runtime::QueueBackend::kChaseLev ||
                         !config_.broken_steal_order,
                     "broken_steal_order is a chase_lev fault knob");
  policy_ = policies::MakePolicyByName(config_.policy, topology_);
  OPTSCHED_CHECK_MSG(policy_ != nullptr, "unknown policy name");
}

int64_t StealHarness::InitialPotential() const {
  return PotentialOfLoads(config_.initial_loads);
}

std::vector<std::function<void()>> StealHarness::MakeBodies() {
  const uint32_t n = num_workers();
  machine_ = std::make_unique<ConcurrentMachine>(
      n, runtime::MachineOptions{.backend = config_.backend,
                                 .deque_capacity = config_.deque_capacity,
                                 .broken_steal_order = config_.broken_steal_order});
  counters_.assign(n, StealCounters{});
  held_.assign(n, std::nullopt);
  initial_item_ids_.clear();
  epoch_ = 0;
  producer_done_ = false;
  uint64_t next_id = 1;
  std::vector<WorkItem> seed;
  for (uint32_t q = 0; q < n; ++q) {
    seed.clear();
    for (int64_t k = 0; k < config_.initial_loads[q]; ++k) {
      seed.push_back(WorkItem{.id = next_id, .work_units = 1, .weight = 1024});
      initial_item_ids_.push_back(next_id);
      ++next_id;
    }
    if (!seed.empty()) {
      // Owner-side seeding: on chase_lev this lands items in the deque (the
      // stealable structure), not the external-submit inbox — balance mode
      // never runs PopForRun, so inbox items would be invisible to thieves.
      machine_->queue(q).PushBatchOwner(seed.data(), static_cast<uint32_t>(seed.size()));
    }
  }
  task_graph_.reset();
  termination_.reset();
  if (config_.mode == "forkjoin") {
    termination_ =
        std::make_unique<runtime::TerminationCounts>(config_.broken_termination_order);
    // Every internal node allocates one continuation plus `fanout` children;
    // chunked handout wastes up to one chunk per worker, covered by slack.
    const uint64_t internal = UniformTreeInternalNodes(config_.tree_depth, config_.fanout);
    const uint64_t capacity = 1 + internal * (config_.fanout + 1) + 16ull * n + 16;
    task_graph_ = std::make_unique<task::TaskGraph>(
        task::TaskGraphOptions{.max_workers = n,
                               .arena_capacity = static_cast<uint32_t>(capacity),
                               .broken_join_counter = config_.broken_join_counter});
    task::TaskNode& root = task_graph_->NewRoot(UniformTreeTask);
    root.env[0] = config_.tree_depth;
    root.env[1] = config_.fanout;
    const WorkItem root_item = task_graph_->ItemFor(root);
    // Seeded like Executor::Seed: external count first, then the push.
    termination_->AddExternal(1);
    machine_->queue(0).PushBatchOwner(&root_item, 1);
    initial_item_ids_.push_back(root_item.id);
  }
  mailboxes_.reset();
  gate_ = std::make_unique<runtime::WakeupGate>();
  notify_in_flight_ = false;
  next_ingress_id_ = next_id;
  if (config_.mode == "ingress" || config_.mode == "wakeup") {
    // Fresh mailboxes per execution; no notify callback — the owners poll
    // PendingFor at their loop top, and every mailbox op is already a
    // decision point through the kMailbox* hooks.
    mailboxes_ = std::make_unique<ingress::MailboxSet>(n, config_.mailbox_capacity);
  }
  deal_channel_.reset();
  if (config_.mode == "deal") {
    // The executor's real deal transport. Same no-notify reasoning as the
    // mailboxes above: peers poll DealtPendingFor at their loop top, and the
    // BoundedMailbox hooks already make every push/drain a decision point.
    deal_channel_ = std::make_unique<ingress::DealChannel>(n, config_.mailbox_capacity);
  }
  std::vector<std::function<void()>> bodies;
  bodies.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    if (config_.mode == "balance") {
      bodies.push_back([this, w] { BalanceBody(w); });
    } else if (config_.mode == "drain") {
      bodies.push_back([this, w] { DrainBody(w); });
    } else if (config_.mode == "ingress") {
      bodies.push_back(w == 0 ? std::function<void()>([this] { ProducerBody(); })
                              : std::function<void()>([this, w] { IngressBody(w); }));
    } else if (config_.mode == "wakeup") {
      bodies.push_back(w == 0 ? std::function<void()>([this] { WakeupProducerBody(); })
                              : std::function<void()>([this, w] { WakeupWorkerBody(w); }));
    } else if (config_.mode == "forkjoin") {
      bodies.push_back([this, w] { ForkJoinBody(w); });
    } else if (config_.mode == "deal") {
      bodies.push_back(w == 0 ? std::function<void()>([this] { DealerBody(); })
                              : std::function<void()>([this, w] { DealPeerBody(w); }));
    } else {
      bodies.push_back([this, w] { EpochBody(w); });
    }
  }
  return bodies;
}

BodyFactory StealHarness::Factory() {
  return [this] { return MakeBodies(); };
}

bool StealHarness::StealOnce(uint32_t worker, Rng& rng, WorkItem* run_next) {
  Scheduler* scheduler = ActiveScheduler();
  OPTSCHED_CHECK(scheduler != nullptr);
  // The snapshot marker precedes the seqlock reads: a steal interleaved into
  // the middle of Snapshot() is inside the causality window too.
  scheduler->Note(kUserSnapshot, static_cast<int64_t>(counters_[worker].attempts));
  const LoadSnapshot snapshot = machine_->Snapshot();
  scheduler->Yield();  // the selection→stealing gap where staleness develops

  const StealCounters before = counters_[worker];
  CpuId victim = 0;
  StealObservation observation;
  const runtime::StealOptions options{.recheck = config_.recheck,
                                      .max_batch = config_.max_steal_batch,
                                      .break_batch_bound = config_.break_batch_bound};
  const bool ok = machine_->TrySteal(*policy_, worker, snapshot, rng, options,
                                     counters_[worker], &topology_, &victim, &observation,
                                     /*scratch=*/nullptr, run_next);
  const StealCounters& after = counters_[worker];
  if (ok) {
    // arg1 is the effective victim depth: on chase_lev the victim may have
    // executed (FinishCurrent) or dealt away (TakeOwnerBatch) its own items
    // between the thief's observation reads — the two non-CAS-guarded tasks
    // decrements — and the deltas credit that owner progress back so
    // steal-safety judges the state the migration gate actually acted on
    // (both always 0 on locked: the victim is frozen under its lock).
    scheduler->Note(kUserStealOk, victim,
                    observation.victim_tasks_after + observation.victim_finished_delta +
                        observation.victim_dealt_delta,
                    static_cast<int64_t>(observation.item_id));
    scheduler->Note(kUserStealBatch, static_cast<int64_t>(observation.items_moved),
                    static_cast<int64_t>(observation.seqlock_writes), victim);
  } else if (after.failed_recheck > before.failed_recheck) {
    scheduler->Note(kUserStealFailRecheck, victim);
  } else if (after.failed_no_task > before.failed_no_task) {
    scheduler->Note(kUserStealFailNoTask, victim);
  } else {
    scheduler->Note(kUserStealEmptyFilter);
  }
  return ok;
}

void StealHarness::BalanceBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  for (uint32_t attempt = 0; attempt < config_.attempts_per_worker; ++attempt) {
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

void StealHarness::DrainBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  uint32_t steal_attempts = 0;
  // The executor's item path: one pop, then the fused finish+pop per item,
  // and a steal that lands its first item as the running one. Only this
  // worker pushes to its own queue (by landing), so an empty fused pop or a
  // failed steal leaves nothing to re-pop.
  std::optional<WorkItem> item = machine_->queue(worker).PopForRun();
  for (;;) {
    if (item.has_value()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the item "runs" here
      item = machine_->queue(worker).FinishCurrentAndPop();
      continue;
    }
    if (steal_attempts >= config_.attempts_per_worker) {
      return;
    }
    ++steal_attempts;
    WorkItem landed;
    if (StealOnce(worker, rng, &landed)) {
      item = landed;
    }
    scheduler->Yield();
  }
}

void StealHarness::ForkJoinBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  McTaskSink sink(*machine_);
  runtime::ConcurrentRunQueue& own = machine_->queue(worker);
  uint32_t fruitless = 0;
  for (;;) {
    // Own queue first: spawns always land on the spawner's own queue, so a
    // worker that drains itself before exiting never strands its own tasks.
    std::optional<WorkItem> item = own.PopForRun();
    if (item.has_value()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the body "runs" here
      // The real join protocol: fork/spawn/complete, with kTaskJoinDec a
      // decision point, so the checker drives every last-arriver race.
      task_graph_->RunItemOn(*item, worker, sink);
      own.FinishCurrent();
      // WorkerMain's order: the executed bump follows the body and every
      // flush it made.
      runtime::TerminationCounts::AddExecuted(own.counts(), 1);
      scheduler->Note(kUserItemDone, static_cast<int64_t>(item->id));
      fruitless = 0;
      continue;
    }
    // The executor's closed-run exit: an idle worker leaves once the
    // quiescence sum reads drained — every count load a decision point.
    const runtime::TerminationCounts::Sums sums = termination_->Read(*machine_);
    if (sums.executed == sums.submitted) {
      scheduler->Note(kUserQuiescent, static_cast<int64_t>(sums.executed),
                      static_cast<int64_t>(sums.submitted));
      return;
    }
    // Budget exhausted: a bound on the exploration, not a termination
    // claim (the checker cannot model an unbounded idle loop).
    if (fruitless >= config_.attempts_per_worker) {
      return;
    }
    ++fruitless;
    StealOnce(worker, rng);
    scheduler->Yield();
  }
}

void StealHarness::DealerBody() {
  constexpr uint32_t kWorker = 0;
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + 1);
  // The executor's decision layer, unmodified, at the always-on operating
  // point: the grace-window TIMING heuristic is out of model (see the header
  // — it decides when a deal fires, never what happens to items in transit),
  // so every conservation obligation checked here is window-independent.
  DealConfig deal_config;
  deal_config.enabled = true;
  deal_config.grace_rounds = 0;
  deal_config.max_batch = config_.deal_window;
  const DealPolicy deal_policy(deal_config);
  uint32_t steal_attempts = 0;
  std::vector<WorkItem> window;
  std::vector<int64_t> pending(num_workers(), 0);
  // Once the gate fails, the dealer's load can only fall (pops, deals) until
  // a steal lands, so the re-read — and its interleaving points — is skipped
  // until then. Pure state-space economy; no reachable behavior change.
  bool may_deal = true;
  for (;;) {
    // Deal check at the loop top, with no item held (the executor's
    // fail-stop discipline): surplus above the threshold moves before the
    // dealer sinks into executing it.
    // ReadLoad, not TasksRelaxed: the decomposed counters are chase_lev-only
    // (all zero on locked), so the gate reads the backend's published load.
    if (may_deal &&
        !deal_policy.ShouldDeal(machine_->queue(kWorker).ReadLoad().task_count)) {
      may_deal = false;
    }
    if (may_deal) {
      const LoadSnapshot snapshot = machine_->Snapshot();
      scheduler->Yield();  // the selection->dealing gap where staleness develops
      for (uint32_t i = 0; i < num_workers(); ++i) {
        pending[i] = i == kWorker ? 0 : deal_channel_->DealtPendingFor(i);
      }
      const CpuId peer = deal_policy.PickRecipient(kWorker, snapshot, pending.data());
      if (peer != DealPolicy::kNoPeer) {
        const uint32_t quota = deal_policy.DealQuota(
            machine_->queue(kWorker).ReadLoad().task_count, snapshot.task_count[peer]);
        if (quota > 0) {
          window.clear();
          const uint32_t taken = machine_->queue(kWorker).TakeOwnerBatch(quota, window);
          // Item-by-item push so each mailbox op is its own decision point —
          // the checker can interleave the peer's drain mid-window.
          uint32_t placed = 0;
          while (placed < taken) {
            if (deal_channel_->PushDealt(peer, &window[placed], 1) != 1) {
              break;
            }
            scheduler->Note(kUserDealPush, static_cast<int64_t>(window[placed].id), peer);
            ++placed;
            scheduler->Yield();
          }
          if (placed < taken) {
            // Refused tail. Every refused item is announced; the healthy
            // dealer returns the tail to its own queue (prefix acceptance:
            // the dealer owns what the mailbox would not take), the broken
            // one drops it on the floor — the in-transit loss
            // no-lost-dealt-items exists to catch.
            for (uint32_t i = placed; i < taken; ++i) {
              scheduler->Note(kUserDealShed, static_cast<int64_t>(window[i].id), peer);
            }
            if (!config_.broken_deal_window) {
              machine_->queue(kWorker).PushBatchOwner(window.data() + placed,
                                                      taken - placed);
            }
            scheduler->Yield();
          }
        }
      }
    }
    std::optional<WorkItem> item = machine_->queue(kWorker).PopForRun();
    if (item.has_value()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the item "runs" here
      machine_->queue(kWorker).FinishCurrent();
      continue;
    }
    if (steal_attempts >= config_.attempts_per_worker) {
      return;
    }
    // Reactive fallback, unconditional: a dealer below its threshold with an
    // empty queue behaves exactly like any drain-mode worker. A landed steal
    // is the one event that can raise the load back over the threshold, so
    // it re-arms the deal gate.
    ++steal_attempts;
    const uint64_t stolen_before = counters_[kWorker].items_stolen;
    StealOnce(kWorker, rng);
    may_deal |= counters_[kWorker].items_stolen > stolen_before;
    scheduler->Yield();
  }
}

void StealHarness::DealPeerBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  uint32_t steal_attempts = 0;
  std::vector<WorkItem> drained;
  for (;;) {
    // Dealt items first — they were pushed here precisely because this
    // worker looked idle, and the owner-push move is what keeps them on the
    // executor's accounting path (no admission, no re-count).
    if (deal_channel_->DealtPendingFor(worker) > 0) {
      drained.clear();
      deal_channel_->DrainDealt(worker, drained, config_.mailbox_capacity);
      if (!drained.empty()) {
        machine_->queue(worker).PushBatchOwner(drained.data(),
                                               static_cast<uint32_t>(drained.size()));
        for (const WorkItem& item : drained) {
          scheduler->Note(kUserDealDrain, static_cast<int64_t>(item.id), worker);
        }
      }
      scheduler->Yield();
    }
    std::optional<WorkItem> item = machine_->queue(worker).PopForRun();
    if (item.has_value()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the item "runs" here
      machine_->queue(worker).FinishCurrent();
      continue;
    }
    if (steal_attempts >= config_.attempts_per_worker) {
      return;
    }
    ++steal_attempts;
    StealOnce(worker, rng);
    scheduler->Yield();
  }
}

void StealHarness::ProducerBody() {
  Scheduler* scheduler = ActiveScheduler();
  const uint32_t n = num_workers();
  // attempts_per_worker pushes, round-robin over the owners. Each push is
  // announced as admitted (kUserMailboxPush) or refused-full
  // (kUserMailboxShed): the dichotomy the accounting property relies on —
  // no third state, so every offered item is traceable.
  for (uint32_t i = 0; i < config_.attempts_per_worker; ++i) {
    const uint32_t target = 1 + (i % (n - 1));
    const uint64_t id = next_ingress_id_++;
    const WorkItem item{.id = id, .work_units = 1, .weight = 1024};
    if (mailboxes_->Push(target, item)) {
      scheduler->Note(kUserMailboxPush, static_cast<int64_t>(id), target);
    } else {
      scheduler->Note(kUserMailboxShed, static_cast<int64_t>(id), target);
    }
    scheduler->Yield();
  }
}

void StealHarness::IngressBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + worker + 1);
  uint32_t steal_attempts = 0;
  std::vector<WorkItem> drained;
  for (;;) {
    // Round boundary: drain the mailbox into the own runqueue first —
    // exactly the executor's ordering (admitted items beat stolen items).
    if (mailboxes_->PendingFor(worker) > 0) {
      drained.clear();
      mailboxes_->Drain(worker, drained, config_.mailbox_capacity);
      if (!drained.empty()) {
        // Owner-side batch push, exactly the executor's DrainIngress: on
        // chase_lev this is the only way admitted items reach the stealable
        // deque rather than the external-submit inbox.
        machine_->queue(worker).PushBatchOwner(drained.data(),
                                               static_cast<uint32_t>(drained.size()));
        for (const WorkItem& item : drained) {
          scheduler->Note(kUserMailboxDrain, static_cast<int64_t>(item.id), worker);
        }
      }
      scheduler->Yield();
    }
    std::optional<WorkItem> item = machine_->queue(worker).PopForRun();
    if (item.has_value()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the item "runs" here
      machine_->queue(worker).FinishCurrent();
      continue;
    }
    if (steal_attempts >= config_.attempts_per_worker) {
      return;
    }
    ++steal_attempts;
    StealOnce(worker, rng);
    scheduler->Yield();
  }
}

void StealHarness::WakeupProducerBody() {
  Scheduler* scheduler = ActiveScheduler();
  const uint32_t n = num_workers();
  const auto notify = [&] {
    // NotifyIngress: the shipped gate — fence, idle-count load, and a bump
    // only when some owner announced itself idle.
    if (gate_->Notify()) {
      scheduler->Note(kUserEpochBump, static_cast<int64_t>(gate_->PeekEpoch()));
    }
    notify_in_flight_ = false;
  };
  for (uint32_t i = 0; i < config_.attempts_per_worker; ++i) {
    const uint32_t target = 1 + (i % (n - 1));
    const uint64_t id = next_ingress_id_++;
    const WorkItem item{.id = id, .work_units = 1, .weight = 1024};
    if (mailboxes_->Push(target, item)) {
      notify_in_flight_ = true;
      scheduler->Note(kUserMailboxPush, static_cast<int64_t>(id), target);
    } else {
      scheduler->Note(kUserMailboxShed, static_cast<int64_t>(id), target);
    }
    // NotifyIngress's ordering contract: the notify strictly follows the
    // item becoming mailbox-visible.
    notify();
    scheduler->Yield();
  }
  // The executor's quit-path ordering: done becomes observable strictly
  // after the last push, then one final notify releases any owner that
  // parked between that push's notify and this flag flipping.
  producer_done_ = true;
  notify();
}

void StealHarness::WakeupWorkerBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  std::vector<WorkItem> drained;
  bool announced = false;
  for (;;) {
    // WorkerMain's ordering contract in miniature: sample the wakeup word
    // FIRST, then look for work. A notify landing after the sample moves the
    // epoch past it (the owner is announced by the time it parks) and turns
    // the park below into a no-op; one landing before the drain is simply
    // seen by the drain.
    const uint64_t sample = gate_->Sample();
    bool progress = false;
    if (mailboxes_->PendingFor(worker) > 0) {
      drained.clear();
      mailboxes_->Drain(worker, drained, config_.mailbox_capacity);
      if (!drained.empty()) {
        machine_->queue(worker).PushBatchOwner(drained.data(),
                                               static_cast<uint32_t>(drained.size()));
        for (const WorkItem& item : drained) {
          scheduler->Note(kUserMailboxDrain, static_cast<int64_t>(item.id), worker);
        }
        progress = true;
      }
      scheduler->Yield();
    }
    while (std::optional<WorkItem> item = machine_->queue(worker).PopForRun()) {
      scheduler->Note(kUserExecuteItem, static_cast<int64_t>(item->id));
      scheduler->Yield();  // the item "runs" here
      machine_->queue(worker).FinishCurrent();
      progress = true;
    }
    if (progress) {
      if (announced) {
        gate_->Retract();
        announced = false;
      }
      continue;
    }
    if (producer_done_) {
      // done was set strictly after the producer's last push, so one more
      // pending check closes the race where that push landed after our
      // drain above — without it an owner could exit over a stranded item.
      if (mailboxes_->PendingFor(worker) > 0) {
        continue;
      }
      if (announced) {
        gate_->Retract();
      }
      return;
    }
    if (!announced) {
      gate_->Announce();
      announced = true;
      if (!config_.broken_wakeup_gate) {
        // The shipped order: go round once more, so the park rests on a
        // sample and a re-check taken after the announcement.
        continue;
      }
      // broken_wakeup_gate: park on this round's sample, taken before the
      // announcement — a notify between that sample and the announcement
      // reads no idle owner and skips the bump.
    }
    // Park on the loop-top sample. If any bump happened after it the
    // predicate is already true and this wake is immediate. Blocking while
    // an item sits in the mailbox with no notify on its way is a lost
    // wakeup: nothing would ever release this owner for it. (The mailbox's
    // lifetime tallies are hook-free, so this check adds no decision point.)
    const ingress::BoundedMailbox& mailbox = mailboxes_->mailbox(worker);
    const uint64_t resident = mailbox.total_pushed() - mailbox.total_drained();
    if (gate_->PeekEpoch() == sample && !notify_in_flight_ && resident > 0) {
      scheduler->Note(kUserLostWakeup, worker, static_cast<int64_t>(resident));
    }
    scheduler->Note(kUserPark);
    scheduler->BlockUntil(SyncOp::kEpochLoad, gate_->epoch_word(),
                          [this, sample] { return gate_->PeekEpoch() != sample; });
    scheduler->Note(kUserWake);
  }
}

void StealHarness::EpochBody(uint32_t worker) {
  Scheduler* scheduler = ActiveScheduler();
  if (worker == 0) {
    // Supervisor: one escalation, modeled after Executor's epoch bump. The
    // explicit sync point keeps the bump visible to the dependence relation
    // (sleep-set pruning must not commute it past the workers' loads).
    scheduler->Yield();
    scheduler->OnSync(SyncOp::kEpochBump, &epoch_);
    ++epoch_;
    scheduler->Note(kUserEpochBump, static_cast<int64_t>(epoch_));
    return;
  }
  // Worker: the executor's lost-wakeup-free park. Reading a post-bump epoch
  // skips the park entirely; otherwise block until the supervisor moves it.
  scheduler->OnSync(SyncOp::kEpochLoad, &epoch_);
  if (epoch_ == 0) {
    scheduler->Note(kUserPark);
    scheduler->BlockUntil(SyncOp::kEpochLoad, &epoch_, [this] { return epoch_ != 0; });
  }
  scheduler->Note(kUserWake);
}

const PropertyReport* StealHarness::FirstViolation(const std::vector<PropertyReport>& reports) {
  for (const PropertyReport& report : reports) {
    if (!report.holds) {
      return &report;
    }
  }
  return nullptr;
}

Schedule StealHarness::MakeSchedule(const std::vector<uint32_t>& choices) const {
  Schedule schedule;
  schedule.harness = config_.mode;
  schedule.policy = config_.policy;
  schedule.initial_loads = config_.initial_loads;
  schedule.attempts_per_worker = config_.attempts_per_worker;
  schedule.seed = config_.seed;
  schedule.recheck = config_.recheck;
  schedule.max_steal_batch = config_.max_steal_batch;
  schedule.break_batch_bound = config_.break_batch_bound;
  schedule.mailbox_capacity = config_.mailbox_capacity;
  schedule.backend = runtime::QueueBackendName(config_.backend);
  schedule.deque_capacity = config_.deque_capacity;
  schedule.broken_steal_order = config_.broken_steal_order;
  schedule.tree_depth = config_.tree_depth;
  schedule.fanout = config_.fanout;
  schedule.broken_join_counter = config_.broken_join_counter;
  schedule.broken_termination_order = config_.broken_termination_order;
  schedule.broken_wakeup_gate = config_.broken_wakeup_gate;
  schedule.deal_window = config_.deal_window;
  schedule.broken_deal_window = config_.broken_deal_window;
  schedule.choices = choices;
  return schedule;
}

std::vector<PropertyReport> StealHarness::Evaluate(const ExecutionResult& result) {
  OPTSCHED_CHECK_MSG(machine_ != nullptr, "Evaluate before MakeBodies");
  std::vector<PropertyReport> reports;
  auto add = [&](const char* name, bool holds, std::string detail = "") {
    reports.push_back(PropertyReport{name, holds, std::move(detail)});
  };

  // Termination first: a deadlock or step-cap means the machine state cannot
  // be trusted (a worker may have been unwound mid-protocol).
  if (config_.mode == "epoch") {
    bool holds = !result.deadlock && !result.step_limit_hit;
    std::string detail = result.deadlock ? result.deadlock_note : "";
    if (holds) {
      // Every park must be answered by a wake of the same thread, and only
      // after the epoch bump.
      int64_t bump_index = -1;
      std::vector<int64_t> park_index(num_workers(), -1);
      for (size_t i = 0; i < result.events.size(); ++i) {
        const McEvent& event = result.events[i];
        if (event.user_kind == kUserEpochBump) {
          bump_index = static_cast<int64_t>(i);
        } else if (event.user_kind == kUserPark) {
          park_index[event.thread] = static_cast<int64_t>(i);
        } else if (event.user_kind == kUserWake) {
          if (park_index[event.thread] >= 0 && bump_index < park_index[event.thread]) {
            holds = false;
            detail = StrFormat("worker %u woke without an epoch bump after its park",
                               event.thread);
          }
          park_index[event.thread] = -1;
        }
      }
      for (uint32_t w = 0; w < num_workers(); ++w) {
        if (park_index[w] >= 0) {
          holds = false;
          detail = StrFormat("worker %u parked and never woke", w);
        }
      }
    }
    add("epoch-wakeup", holds, std::move(detail));
    return reports;
  }

  // --- no-lost-wakeup: judged from the park events alone, so it is reported
  // ahead of termination — a lost wakeup usually ends in exactly the
  // deadlock below (the owner parks and nothing ever bumps again), and this
  // names the cause.
  if (config_.mode == "wakeup") {
    bool holds = true;
    std::string detail;
    for (const McEvent& event : result.events) {
      if (event.user_kind == kUserLostWakeup) {
        holds = false;
        detail = StrFormat("owner %lld parked with %lld mailbox items and no notify on its way",
                           static_cast<long long>(event.arg0),
                           static_cast<long long>(event.arg1));
        break;
      }
    }
    add("no-lost-wakeup", holds, std::move(detail));
  }

  if (result.deadlock || result.step_limit_hit) {
    add("termination", false,
        result.deadlock ? result.deadlock_note : "decision-step limit hit");
    return reports;
  }
  add("termination", true);

  // --- published-depth: the lock-free load publication agrees with the -------
  // structural queue state at quiescence. Evaluated BEFORE the conservation
  // drain below mutates the queues. A batched operation that forgot its
  // publish (locked backend: seqlock write; chase_lev: counter update) shows
  // up here as a stale depth no observation-based property would notice.
  {
    bool holds = true;
    std::string detail;
    for (uint32_t q = 0; q < num_workers() && holds; ++q) {
      runtime::ConcurrentRunQueue& queue = machine_->queue(q);
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
    add("published-depth", holds, std::move(detail));
  }

  // --- wakeup: no owner may exit over a mailbox-resident item ----------------
  // Checked BEFORE the conservation drain empties the mailboxes: in "wakeup"
  // mode (unlike "ingress") every admitted item must have been drained by
  // its owner — a leftover means a notify was lost between drain and park.
  const bool wakeup_mode = config_.mode == "wakeup";
  if (wakeup_mode) {
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
    add("wakeup-no-stranded-items", holds, std::move(detail));
  }

  // --- no-lost-items: initial multiset == remaining ∪ executed ---------------
  // Ingress mode widens both sides: every item the mailbox ACCEPTED joins
  // the expected multiset (kUserMailboxPush; refused pushes never entered
  // the system and are accounted by their kUserMailboxShed event alone),
  // and mailbox-resident items still undrained at the end join the
  // accounted side — admitted work may be in a queue, executed, or still in
  // its mailbox, but never gone.
  // Forkjoin mode widens the expected side the same way: every dynamically
  // spawned task (kUserTaskSpawn — the root is seeded, so it is in
  // initial_item_ids_) must be executed or still queued, never gone
  // (no-lost-spawns: conservation over work created mid-exploration).
  // Deal mode widens only the accounted side: dealt items may sit in a deal
  // mailbox at termination (the recipient exited before draining) — resident,
  // not lost. The resident ids double as the deal channel's closing balance
  // for deal-or-steal-conservation below.
  const bool ingress_mode = config_.mode == "ingress" || wakeup_mode;
  const bool forkjoin_mode = config_.mode == "forkjoin";
  const bool deal_mode = config_.mode == "deal";
  std::vector<uint64_t> deal_residents;
  std::vector<uint64_t> seen;
  std::vector<uint64_t> expected = initial_item_ids_;
  for (const McEvent& event : result.events) {
    if (event.user_kind == kUserExecuteItem) {
      seen.push_back(static_cast<uint64_t>(event.arg0));
    } else if (ingress_mode && event.user_kind == kUserMailboxPush) {
      expected.push_back(static_cast<uint64_t>(event.arg0));
    } else if (forkjoin_mode && event.user_kind == kUserTaskSpawn) {
      expected.push_back(static_cast<uint64_t>(event.arg0));
    }
  }
  for (uint32_t q = 0; q < num_workers(); ++q) {
    runtime::ConcurrentRunQueue& queue = machine_->queue(q);
    if (held_[q].has_value()) {
      seen.push_back(held_[q]->id);
      queue.FinishCurrent();
    }
    while (std::optional<WorkItem> item = queue.PopForRun()) {
      seen.push_back(item->id);
      queue.FinishCurrent();
    }
  }
  if (ingress_mode) {
    std::vector<WorkItem> leftover;
    for (uint32_t w = 0; w < num_workers(); ++w) {
      mailboxes_->Drain(w, leftover, ~0u);
    }
    for (const WorkItem& item : leftover) {
      seen.push_back(item.id);
    }
  }
  if (deal_mode) {
    std::vector<WorkItem> leftover;
    for (uint32_t w = 0; w < num_workers(); ++w) {
      deal_channel_->DrainDealt(w, leftover, ~0u);
    }
    for (const WorkItem& item : leftover) {
      seen.push_back(item.id);
      deal_residents.push_back(item.id);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  const char* conservation_name = forkjoin_mode  ? "no-lost-spawns"
                                  : deal_mode    ? "no-lost-dealt-items"
                                  : ingress_mode ? "no-lost-admitted-items"
                                                 : "no-lost-items";
  add(conservation_name, seen == expected,
      seen == expected ? ""
                       : StrFormat("item multiset changed: %zu seeded+admitted, %zu accounted",
                                   expected.size(), seen.size()));

  // --- steal-safety: no successful steal idled its victim --------------------
  // Batched steals included: arg1 is the victim's task count after the WHOLE
  // batch left, read under both locks.
  uint64_t successes = 0;
  uint64_t items_moved = 0;
  for (const McEvent& event : result.events) {
    if (event.user_kind == kUserStealBatch) {
      items_moved += static_cast<uint64_t>(event.arg0);
      continue;
    }
    if (event.user_kind != kUserStealOk) {
      continue;
    }
    ++successes;
    if (event.arg1 < 1) {
      add("steal-safety", false,
          StrFormat("worker %u idled victim %lld at step %u", event.thread,
                    static_cast<long long>(event.arg0), event.step));
    }
  }
  if (reports.back().name != "steal-safety") {
    add("steal-safety", true);
  }

  // --- publish-batching: ≤ 2 seqlock publishes per steal critical section ----
  // One per queue, however many items the batch moved. This is the seqlock
  // write-count assertion: per-item publishing under both held locks would
  // show up here as seqlock_writes == items_moved + 1.
  {
    bool holds = true;
    std::string detail;
    for (const McEvent& event : result.events) {
      if (event.user_kind == kUserStealBatch && event.arg1 > 2) {
        holds = false;
        detail = StrFormat(
            "worker %u published %lld times in one steal critical section (%lld items)",
            event.thread, static_cast<long long>(event.arg1),
            static_cast<long long>(event.arg0));
        break;
      }
    }
    add("publish-batching", holds, std::move(detail));
  }

  if (deal_mode) {
    // --- deal-or-steal-conservation: the deal channel itself conserves ------
    // Every drained item was pushed (the mailbox fabricates nothing) and
    // every pushed item was drained or is still resident at termination (the
    // mailbox loses nothing). Together with no-lost-dealt-items above, this
    // pins migration to exactly two sanctioned channels: the deal mailbox or
    // the steal protocol — there is no third path work can take, and neither
    // path can drop an item in transit.
    {
      std::vector<uint64_t> pushed;
      std::vector<uint64_t> accounted = deal_residents;
      for (const McEvent& event : result.events) {
        if (event.user_kind == kUserDealPush) {
          pushed.push_back(static_cast<uint64_t>(event.arg0));
        } else if (event.user_kind == kUserDealDrain) {
          accounted.push_back(static_cast<uint64_t>(event.arg0));
        }
      }
      std::sort(pushed.begin(), pushed.end());
      std::sort(accounted.begin(), accounted.end());
      add("deal-or-steal-conservation", pushed == accounted,
          pushed == accounted
              ? ""
              : StrFormat("deal channel imbalance: %zu pushed, %zu drained+resident",
                          pushed.size(), accounted.size()));
    }
    return reports;
  }

  if (forkjoin_mode) {
    // --- no-premature-exit: a worker whose quiescence sum read drained exits
    // only once every item of the final tree (root ∪ all spawns) has
    // finished. A sum that misses children spawned between its passes
    // (broken_termination_order) lets a worker leave with work still queued;
    // in the executor, a worker or supervisor acting on such a sum treats the
    // run as over while it is not.
    {
      bool holds = true;
      std::string detail;
      size_t finished = 0;
      for (const McEvent& event : result.events) {
        if (event.user_kind == kUserItemDone) {
          ++finished;
        } else if (event.user_kind == kUserQuiescent && finished != expected.size()) {
          holds = false;
          detail = StrFormat(
              "worker %u read drained (executed %lld == submitted %lld) with %zu of %zu "
              "items finished",
              event.thread, static_cast<long long>(event.arg0),
              static_cast<long long>(event.arg1), finished, expected.size());
          break;
        }
      }
      add("no-premature-exit", holds, std::move(detail));
    }

    // --- join-fires-exactly-once: every forked continuation's counter reaches
    // zero exactly once. A lost decrement (broken_join_counter's plain
    // load/store race) strands the continuation — fork with no fire; the
    // acq_rel RMW chain makes a double fire structurally impossible, but the
    // property checks both directions anyway.
    {
      bool holds = true;
      std::string detail;
      std::vector<uint64_t> forked;
      std::map<uint64_t, uint64_t> fires;
      for (const McEvent& event : result.events) {
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
      add("join-fires-exactly-once", holds, std::move(detail));
    }

    // --- no-worker-blocks-on-join: the continuation-counting discipline never
    // waits — a finishing child decrements and moves on. Termination without
    // deadlock already held above; any park event would mean a worker
    // suspended inside the protocol.
    {
      bool holds = true;
      std::string detail;
      for (const McEvent& event : result.events) {
        if (event.user_kind == kUserPark) {
          holds = false;
          detail = StrFormat("worker %u parked inside the fork-join protocol", event.thread);
          break;
        }
      }
      add("no-worker-blocks-on-join", holds, std::move(detail));
    }

    // --- bounded-steals-on-tree: migrations on a rooted spawn tree stay in
    // the O(W·depth) regime (Leiserson/Schardl/Suksompong), never the task
    // count. The constant here is deliberately generous — the property
    // guards the asymptotic shape, the E16 bench measures the constant.
    {
      const uint64_t bound = static_cast<uint64_t>(num_workers()) *
                             (config_.tree_depth + 2) * config_.fanout;
      add("bounded-steals-on-tree", items_moved <= bound,
          items_moved <= bound
              ? ""
              : StrFormat("%llu items migrated vs W*(depth+2)*fanout = %llu",
                          static_cast<unsigned long long>(items_moved),
                          static_cast<unsigned long long>(bound)));
    }
    return reports;
  }

  if (config_.mode != "balance") {
    return reports;
  }

  // --- bounded-steals: migrated items ≤ d(initial)/2 (§4.3) ------------------
  // Each permitted migration strictly decreases the potential by ≥ 2, so the
  // ITEM count is bounded by d0/2 — and since every successful action moves
  // ≥ 1 item, the action count inherits the same bound (successes ≤ items).
  const int64_t bound = InitialPotential() / 2;
  const bool actions_bounded = successes <= items_moved;
  const bool items_bounded = static_cast<int64_t>(items_moved) <= bound;
  add("bounded-steals", actions_bounded && items_bounded,
      actions_bounded && items_bounded
          ? ""
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
  if (config_.backend == runtime::QueueBackend::kLocked) {
    bool holds = true;
    std::string detail;
    std::vector<int64_t> last_snapshot(num_workers(), -1);
    for (size_t i = 0; i < result.events.size() && holds; ++i) {
      const McEvent& event = result.events[i];
      if (event.user_kind == kUserSnapshot) {
        last_snapshot[event.thread] = static_cast<int64_t>(i);
      } else if (event.user_kind == kUserStealFailRecheck) {
        bool caused = false;
        for (int64_t j = last_snapshot[event.thread] + 1; j < static_cast<int64_t>(i); ++j) {
          const McEvent& cause = result.events[j];
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
    add("failure-causality", holds, std::move(detail));
  }

  return reports;
}

}  // namespace optsched::mc
