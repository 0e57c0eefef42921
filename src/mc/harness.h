// Model-checking harness: the real steal protocol (ConcurrentMachine +
// BalancePolicy, the same code the executor runs) driven by N virtual
// workers, with the paper's properties evaluated over each execution.
//
// src/mc/modes.h declares the modes and the seeded faults. Every mode except
// "balance" runs the SHIPPED worker loop (Executor::WorkerMain, through
// Executor::RunWorker) on the checker's fibers, so a mode is only a workload
// plus its property sets. The loop reports through its WorkerProbe seams,
// and its park blocks under the checker on the condition its spin polls: a
// park nothing can end is a deadlock.
//   * "balance"  — Figure 1's loop in isolation: snapshot, (yield), steal,
//     repeat for a fixed attempt budget. Queues only change through steals,
//     which is what makes failure causality and the d0/2 steal bound exact.
//   * "drain"    — initial_loads seeded through Executor::Seed, a closed run
//     (it ends on the loop's quiescence sum).
//   * "ingress"  — worker 0 is a PRODUCER pushing attempts_per_worker items
//     round-robin into the owners' bounded mailboxes, each push followed by
//     Executor::NotifyIngress; owners run the loop in deadline mode, and the
//     producer plays the deadline once every admitted item has run.
//   * "forkjoin" — the root of a uniform spawn tree (tree_depth levels,
//     `fanout` children per internal node) seeded on queue 0 and run through
//     the real src/task graph, a closed run. The join decrement is a
//     decision point (kTaskJoinDec), so the checker drives every
//     last-arriver race.
// In the owner modes attempts_per_worker bounds each worker's steal rounds
// (later rounds are fruitless, as a straggler's are).
//
// Properties come in sets, one per protocol (wakeup, termination, steal,
// steal bounds, join): PropertySet in src/mc/modes.h lists each set, and
// docs/model_checking.md has the table per mode.

#ifndef OPTSCHED_SRC_MC_HARNESS_H_
#define OPTSCHED_SRC_MC_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/ingress/mailbox.h"
#include "src/mc/explorer.h"
#include "src/mc/modes.h"
#include "src/mc/schedule.h"
#include "src/mc/scheduler.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"
#include "src/topology/topology.h"

namespace optsched::mc {

struct PropertyReport {
  std::string name;
  bool holds = true;
  std::string detail;  // why it failed (empty when it holds)
};

class StealHarness final : public runtime::WorkerProbe, public runtime::IngressSource {
 public:
  // `schedule` is the configuration; its choices are ignored.
  explicit StealHarness(Schedule schedule);
  ~StealHarness() override;

  // Fresh machine + per-worker state; bodies for one controlled execution.
  // Bodies reach the driving Scheduler through ActiveScheduler().
  std::vector<std::function<void()>> MakeBodies();

  // A BodyFactory bound to this harness (convenience for the explorer).
  BodyFactory Factory();

  // Evaluates the mode's properties over the machine left by the execution
  // that MakeBodies() most recently fed.
  std::vector<PropertyReport> Evaluate(const ExecutionResult& result);

  static const PropertyReport* FirstViolation(const std::vector<PropertyReport>& reports);

  // The harness configuration with `choices` set.
  Schedule MakeSchedule(const std::vector<uint32_t>& choices) const;

  uint32_t num_workers() const { return static_cast<uint32_t>(schedule_.initial_loads.size()); }
  // d over the seeded task counts; /2 bounds successful steals (§4.3).
  int64_t InitialPotential() const;

  // runtime::WorkerProbe: the shipped loop's checker seams.
  void OnExecuted(uint32_t worker, uint64_t item_id) override;
  void OnQuiescent(uint32_t worker, const runtime::TerminationCounts::Sums& sums) override;
  void OnSteal(uint32_t worker, const runtime::StealCounters& before,
               const runtime::StealCounters& after, CpuId victim,
               const runtime::StealObservation& observation) override;
  bool MaySteal(uint32_t worker) override;
  void OnPark(uint32_t worker) override;

  // runtime::IngressSource ("ingress" mode): the mailboxes, with a note per
  // drained item.
  uint32_t Drain(uint32_t worker, std::vector<runtime::WorkItem>& out,
                 uint32_t max_items) override;
  int64_t PendingFor(uint32_t worker) const override;

 private:
  class Tasks;
  struct Evaluation;

  // The property sets (PropertySet), each appending its reports.
  void WakeupProperties(Evaluation& eval);
  void TerminationProperties(Evaluation& eval);
  void StealProperties(Evaluation& eval);
  void StealBoundProperties(Evaluation& eval);
  void JoinProperties(Evaluation& eval);

  void BalanceBody(uint32_t worker);
  // "ingress" mode's worker 0.
  void ProducerBody();
  // One full steal attempt with its outcome notes. `run_next` is forwarded
  // to TrySteal (the executor's landing steal); returns TrySteal's result.
  bool StealOnce(uint32_t worker, Rng& rng, runtime::WorkItem* run_next = nullptr);
  runtime::ConcurrentMachine& machine() { return executor_->machine(); }

  Schedule schedule_;
  const HarnessMode* mode_;  // parsed schedule_.harness
  runtime::QueueBackend backend_ = runtime::QueueBackend::kLocked;  // parsed schedule_.backend
  // The runtime options the bodies pass, with the schedule's fault set.
  FaultSeams seams_;
  Topology topology_;
  std::shared_ptr<const BalancePolicy> policy_;
  // Per-execution state, rebuilt by MakeBodies.
  std::unique_ptr<runtime::Executor> executor_;
  std::vector<runtime::WorkerStats> stats_;
  std::vector<runtime::StealCounters> counters_;  // "balance"
  std::vector<uint32_t> steal_rounds_;
  std::vector<uint64_t> initial_item_ids_;
  // "balance" mode: the item a worker's first steal landed as its running
  // item. Balance workers never execute, so it stays running until
  // Evaluate's conservation drain finishes it.
  std::vector<std::optional<runtime::WorkItem>> held_;
  uint64_t executed_ = 0;
  // "ingress" mode: the mailboxes, items they admitted, and the producer's
  // push->notify window (set after a push, cleared once its notify returned).
  std::unique_ptr<ingress::MailboxSet> mailboxes_;
  uint64_t next_ingress_id_ = 0;
  uint64_t admitted_ = 0;
  bool notify_in_flight_ = false;
  // "forkjoin" mode: the graph (the REAL src/task join protocol) and its
  // task runner.
  std::unique_ptr<task::TaskGraph> task_graph_;
  std::unique_ptr<Tasks> tasks_;
};

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_HARNESS_H_
