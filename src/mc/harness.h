// Model-checking harness: the real steal protocol (ConcurrentMachine +
// BalancePolicy, the same code the executor runs) driven by N virtual
// workers, with the paper's properties evaluated over each execution.
//
// Three worker-loop modes:
//   * "balance" — Figure 1's loop in isolation: snapshot, (yield), steal,
//     repeat for a fixed attempt budget. Queues only change through steals,
//     which is what makes failure causality and the d0/2 steal bound exact.
//   * "drain"   — owners pop/execute their own queues and steal when empty,
//     so conservation is checked against the executed-item record too.
//   * "epoch"   — the executor's escalation-epoch protocol in miniature: a
//     parked worker blocks on an epoch change, a supervisor bumps it; the
//     property is that the bump wakes the worker (a miss is a deadlock).
//   * "ingress" — the serving front end's admission path: worker 0 is a
//     PRODUCER pushing items into the owners' bounded mailboxes
//     (src/ingress) mid-exploration; owners drain mailbox->runqueue, then
//     pop/execute/steal like "drain". Discharges no-lost-admitted-items:
//     every item the mailbox accepted is executed, still queued, or still
//     mailbox-resident — full mailboxes refuse loudly (kUserMailboxShed),
//     they never lose.
//   * "wakeup"  — the executor's notify/park handshake end to end, through
//     the shipped runtime::WakeupGate: worker 0 produces into mailboxes and
//     notifies the gate AFTER each push (NotifyIngress's ordering contract),
//     which bumps the epoch only while some owner has announced itself idle;
//     owners announce on their first fruitless round, go round once more
//     (sample the epoch at the loop top, re-check their mailbox), and park
//     on an epoch change only then, retracting when they get work.
//     Discharges that a notify landing between an owner's last drain and its
//     park can neither deadlock the owner nor strand the pushed item
//     (wakeup-no-stranded-items), and that no owner ever blocks while work
//     is visible to it with no bump on its way (no-lost-wakeup). The seeded
//     broken_wakeup_gate fault announces after the last re-check instead.
//   * "deal"    — proactive work-dealing end to end: worker 0 is the DEALER,
//     seeded heavy; it pops/executes its own queue and, while its task count
//     exceeds the deal threshold and an idle peer exists, takes up to
//     deal_window items off its own queue (TakeOwnerBatch) and pushes them
//     item-by-item into that peer's bounded deal mailbox (ingress's
//     DealChannel — the executor's transport, unmodified). A refused item
//     aborts the round and the rest of the window goes BACK on the dealer's
//     queue — unless broken_deal_window drops it, the seeded in-transit-loss
//     fault. Peers drain their deal mailbox into their own queue, execute,
//     and keep the reactive steal fallback. Discharges
//     no-lost-dealt-items (global conservation including deal-mailbox
//     residents) and deal-or-steal-conservation (the deal channel itself
//     neither loses nor fabricates: pushed == drained ∪ still-resident).
//     The grace-window TIMING heuristic is deliberately out of model — it
//     only decides when a deal fires, never what happens to items in
//     transit, so the conservation obligations are window-independent.
//   * "forkjoin" — the continuation-counted task layer (src/task) over the
//     real queues: worker 0 seeds the root of a uniform spawn tree
//     (tree_depth levels, `fanout` children per internal node); workers
//     pop/run task bodies — which fork continuations and spawn children onto
//     the runner's OWN queue mid-exploration — and steal when empty. The
//     join decrement is a decision point (kTaskJoinDec), so the checker
//     drives all last-arriver races. Spawns and executions are counted
//     through the shipped runtime::TerminationCounts, and a worker exits
//     when its quiescence sum reads drained (or its steal budget runs out).
//     Discharges no-lost-spawns (every spawned item is executed — dynamic
//     work obeys conservation), no-premature-exit (a worker that read
//     "drained" exits only once every item ever spawned has finished),
//     join-fires-exactly-once, no-worker-blocks-on-join (no parks, no
//     deadlock: joins cost one RMW, never a wait), and
//     bounded-steals-on-tree (migrations stay within the rooted-tree
//     O(W·depth) regime, never the item count). The seeded
//     broken_termination_order fault sums submitted before executed.
//
// Properties (per mode):
//   no-lost-items     — multiset{initial items} == queued ∪ executed after.
//   steal-safety      — no successful steal left its victim idle (observed
//                       under both locks, §4.1) — batches included: the whole
//                       batch must keep the victim non-idle.
//   bounded-steals    — migrated ITEMS ≤ d(initial)/2 (§4.3): every permitted
//                       migration strictly decreases the potential, so the
//                       item bound also bounds steal ACTIONS (each action
//                       moves ≥ 1 item).
//   publish-batching  — a successful steal performs ≤ 2 seqlock publishes
//                       inside its critical section (one per queue), however
//                       many items the batch moved.
//   failure-causality — every failed re-check has a concurrent successful
//                       steal inside its snapshot→recheck window (§4.2: all
//                       failures are caused by the optimism, not spurious).
//                       Locked backend only: on chase_lev the causality holds
//                       by construction (TakeTop fails only because a
//                       competitor's CAS moved top) but the competitor's
//                       kUserStealOk note may be emitted after this thread's
//                       recheck event, so the event-window scan would flag
//                       spurious violations.
//   published-depth   — at quiescence, the lock-free published load of every
//                       queue (seqlock snapshot or relaxed counters) equals
//                       the structural count held under the lock: no batched
//                       operation may leave the published depth stale.
//   epoch-wakeup      — no deadlock, and every park is followed by a wake
//                       after an epoch bump.
//   wakeup-no-stranded-items — "wakeup" mode: at termination every mailbox is
//                       empty; an owner may exit only after observing the
//                       producer done AND re-checking its mailbox.
//   no-lost-wakeup    — "wakeup" mode: an owner never blocks in its park while
//                       an item sits in its mailbox and no notify is still
//                       on its way (the eventcount gate's obligation).
//   no-lost-spawns    — "forkjoin" mode: multiset{root ∪ spawned} == executed
//                       at termination with every queue empty.
//   no-premature-exit — "forkjoin" mode: when a worker's quiescence sum reads
//                       drained, every item of the final spawn tree has
//                       already finished (its executed count was bumped).
//   no-lost-dealt-items — "deal" mode: multiset{seeded} == executed ∪ queued
//                       ∪ deal-mailbox-resident; a dealt item may be anywhere
//                       along the owner-push pipeline, but never gone.
//   deal-or-steal-conservation — "deal" mode: the deal channel conserves —
//                       every drained item was pushed (no fabrication) and
//                       every pushed item is drained or still resident at
//                       termination (no loss inside the mailbox); migration
//                       happens only through deals or the steal protocol.
//   join-fires-exactly-once — every forked continuation's counter reaches
//                       zero exactly once (a lost decrement strands it; the
//                       protocol cannot double-fire an acq_rel RMW chain).
//   no-worker-blocks-on-join — no kUserPark events and no deadlock: the
//                       continuation-counting discipline never waits.
//   bounded-steals-on-tree — migrated items stay within the rooted-tree
//                       steal regime (≤ W·(depth+2)·fanout), far below the
//                       total task count.

#ifndef OPTSCHED_SRC_MC_HARNESS_H_
#define OPTSCHED_SRC_MC_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/ingress/deal_channel.h"
#include "src/ingress/mailbox.h"
#include "src/mc/explorer.h"
#include "src/mc/schedule.h"
#include "src/mc/scheduler.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/termination.h"
#include "src/runtime/wakeup_gate.h"
#include "src/task/task.h"
#include "src/topology/topology.h"

namespace optsched::mc {

struct PropertyReport {
  std::string name;
  bool holds = true;
  std::string detail;  // why it failed (empty when it holds)
};

class StealHarness {
 public:
  struct Config {
    std::string mode = "balance";  // balance|drain|epoch|ingress|wakeup|forkjoin|deal
    std::string policy = "thread-count";
    // Items seeded per queue; size() is the worker count.
    std::vector<int64_t> initial_loads;
    uint32_t attempts_per_worker = 2;
    uint64_t seed = 1;
    bool recheck = true;
    // Batched steal-half: cap on items per successful steal action (see
    // StealOptions::max_batch). 1 = the original steal-one protocol.
    uint32_t max_steal_batch = 1;
    // Fault mode: ignore the migration rule and the batch cap, stripping the
    // victim bare — the checker must find the steal-safety violation and
    // minimize it (see StealOptions::break_batch_bound).
    bool break_batch_bound = false;
    // "ingress"/"wakeup" modes: BoundedMailbox capacity per owner. Small
    // bounds (2) make the full/refuse path reachable in tiny explorations.
    uint32_t mailbox_capacity = 2;
    // Run-queue backend under test (see runtime::QueueBackend). Both backends
    // discharge the same properties; failure-causality is locked-only.
    runtime::QueueBackend backend = runtime::QueueBackend::kLocked;
    // Chase-Lev ring capacity; small default keeps mc state bounded while
    // still holding every seeded load without spilling to the inbox.
    uint32_t deque_capacity = 64;
    // Fault knob (chase_lev only): thieves read bottom before top with no
    // fence, so a stale size window can claim an already-executed slot. The
    // checker must find the no-lost-items violation.
    bool broken_steal_order = false;
    // "forkjoin" mode: uniform spawn tree of this many levels below the root
    // (tree_depth = 1 is a root forking `fanout` leaves). initial_loads must
    // be all-zero in this mode — the only seeded item is the root task.
    uint32_t tree_depth = 2;
    uint32_t fanout = 2;
    // Fault knob ("forkjoin"): TaskGraphOptions::broken_join_counter — a
    // plain load/store join decrement that can lose a concurrent arrival and
    // strand the continuation (join-fires-exactly-once).
    bool broken_join_counter = false;
    // Fault knob ("forkjoin"): TerminationCounts' broken_read_order — sum
    // the submitted counts before the executed ones (no-premature-exit).
    bool broken_termination_order = false;
    // Fault knob ("wakeup"): owners announce idle AFTER their last re-check
    // and park on that round's sample (no-lost-wakeup).
    bool broken_wakeup_gate = false;
    // "deal" mode: cap on items the dealer (worker 0) takes off its own
    // queue per deal round — the take->place window. mailbox_capacity bounds
    // the per-peer deal mailbox, so deal_window > mailbox_capacity makes the
    // refused-tail path reachable in tiny explorations.
    uint32_t deal_window = 2;
    // Fault knob ("deal"): drop the mailbox-refused tail of the window
    // instead of returning it to the dealer's queue — items lost in transit
    // (no-lost-dealt-items).
    bool broken_deal_window = false;

    static Config FromSchedule(const Schedule& schedule);
  };

  explicit StealHarness(Config config);

  // Fresh machine + per-worker state; bodies for one controlled execution.
  // Bodies reach the driving Scheduler through ActiveScheduler().
  std::vector<std::function<void()>> MakeBodies();

  // A BodyFactory bound to this harness (convenience for the explorer).
  BodyFactory Factory();

  // Evaluates the mode's properties over the machine left by the execution
  // that MakeBodies() most recently fed.
  std::vector<PropertyReport> Evaluate(const ExecutionResult& result);

  static const PropertyReport* FirstViolation(const std::vector<PropertyReport>& reports);

  // Serializable identity of `choices` under this harness configuration.
  Schedule MakeSchedule(const std::vector<uint32_t>& choices) const;

  const Config& config() const { return config_; }
  uint32_t num_workers() const { return static_cast<uint32_t>(config_.initial_loads.size()); }
  // d over the seeded task counts; /2 bounds successful steals (§4.3).
  int64_t InitialPotential() const;

 private:
  void BalanceBody(uint32_t worker);
  void DrainBody(uint32_t worker);
  void EpochBody(uint32_t worker);
  // "ingress" mode: worker 0 produces into mailboxes, owners drain+execute.
  void ProducerBody();
  void IngressBody(uint32_t worker);
  // "wakeup" mode: the producer pairs every mailbox push with an epoch bump
  // (NotifyIngress); owners park on the epoch exactly like WorkerMain.
  void WakeupProducerBody();
  void WakeupWorkerBody(uint32_t worker);
  // "forkjoin" mode: pop/run task bodies (spawning onto the own queue),
  // steal when empty, exit when the graph is done or the budget is spent.
  void ForkJoinBody(uint32_t worker);
  // "deal" mode: worker 0 executes and deals surplus into idle peers'
  // mailboxes; peers drain dealt batches, execute, and steal when empty.
  void DealerBody();
  void DealPeerBody(uint32_t worker);
  // One full steal attempt with its outcome notes. `run_next` is forwarded
  // to TrySteal (the executor's landing steal); returns TrySteal's result.
  bool StealOnce(uint32_t worker, Rng& rng, runtime::WorkItem* run_next = nullptr);

  Config config_;
  Topology topology_;
  std::shared_ptr<const BalancePolicy> policy_;
  std::unique_ptr<runtime::ConcurrentMachine> machine_;
  std::vector<runtime::StealCounters> counters_;
  std::vector<uint64_t> initial_item_ids_;
  // "balance" mode: the item a worker's first steal landed as its running
  // item. Balance workers never execute, so it stays running until
  // Evaluate's conservation drain finishes it.
  std::vector<std::optional<runtime::WorkItem>> held_;
  // The escalation epoch word for "epoch" mode.
  std::uint64_t epoch_ = 0;
  // "wakeup" mode state, rebuilt per execution by MakeBodies: the executor's
  // real wakeup gate and the producer's push->notify window (set after a
  // push, cleared once its notify returned).
  std::unique_ptr<runtime::WakeupGate> gate_;
  bool notify_in_flight_ = false;
  // "wakeup" mode: set by the producer strictly after its last push, then
  // followed by one final notify (the executor's quit-path ordering).
  bool producer_done_ = false;
  // "ingress" mode state, rebuilt per execution by MakeBodies.
  std::unique_ptr<ingress::MailboxSet> mailboxes_;
  uint64_t next_ingress_id_ = 0;
  // "deal" mode state, rebuilt per execution by MakeBodies: the executor's
  // real deal transport (bounded per-worker mailboxes, prefix acceptance).
  std::unique_ptr<ingress::DealChannel> deal_channel_;
  // "forkjoin" mode state, rebuilt per execution by MakeBodies. The graph
  // runs the REAL src/task join protocol; only the spawn sink is replaced
  // (machine queues + Note hooks instead of Executor::SubmitFromWorker).
  std::unique_ptr<task::TaskGraph> task_graph_;
  // "forkjoin" mode: the executor's real termination counts (external
  // counter here, per-worker slots in the machine's queues).
  std::unique_ptr<runtime::TerminationCounts> termination_;
};

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_HARNESS_H_
