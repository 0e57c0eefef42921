// The checker's two tables: each harness mode and each seeded fault is
// declared once, here. A Schedule names one row of each (`harness`,
// `fault`); the harness, the schedule parser and simctl read the rows and
// compare names only to find them. src/mc/harness.h says what each mode
// runs.

#ifndef OPTSCHED_SRC_MC_MODES_H_
#define OPTSCHED_SRC_MC_MODES_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"

namespace optsched::mc {

// One protocol's properties; StealHarness::Evaluate runs a mode's sets in
// its order (docs/model_checking.md has the table).
enum class PropertySet {
  kWakeup,       // no-lost-wakeup, wakeup-no-stranded-items
  kTermination,  // termination, published-depth, conservation, no-premature-exit
  kSteal,        // steal-safety, publish-batching
  kStealBounds,  // bounded-steals (§4.3), failure-causality (§4.2, locked)
  kJoin,         // join-fires-exactly-once, no-worker-blocks-on-join,
                 // bounded-steals-on-tree
  kIdleness,     // bounded-idleness
};

struct HarnessMode {
  std::string_view name;
  // Workers run Executor::RunWorker; false runs Figure 1's loop alone.
  bool shipped_loop = false;
  // Ends on the loop's quiescence sum (no-premature-exit applies).
  bool closed_run = false;
  // Reads Schedule::mailbox_capacity: worker 0 pushes into the owners'
  // bounded mailboxes and plays the deadline.
  bool mailboxes = false;
  // Reads Schedule::tree_depth and fanout: seeds only the root of a spawn
  // tree (initial_loads all zero).
  bool spawn_tree = false;
  // The conservation property's name in this mode.
  std::string_view conservation;
  // Evaluated in this order. kTermination's conservation check drains the
  // queues and mailboxes, so a set that reads them comes first; nothing
  // after a failed termination is judged.
  std::vector<PropertySet> properties;
};

// The runtime seams a fault can set.
struct FaultSeams {
  runtime::StealOptions steal;    // "balance" mode's TrySteal
  runtime::CheckerSeams checker;  // the shipped loop and its queues
  task::TaskGraphOptions task;    // the spawn tree's graph
};

struct SeededFault {
  std::string_view name;
  // The mode or backend the fault applies to (nullptr / nullopt: any).
  const HarnessMode* mode;
  std::optional<runtime::QueueBackend> backend;
  // The property its counterexample violates, and what it breaks.
  std::string_view property;
  std::string_view summary;
  void (*set)(FaultSeams& seams);

  bool AppliesTo(const HarnessMode& run_mode, runtime::QueueBackend run_backend) const {
    return (mode == nullptr || mode == &run_mode) && (!backend || *backend == run_backend);
  }
  // "the forkjoin harness", "the chase_lev backend".
  std::string Scope() const;
};

std::span<const HarnessMode* const> Modes();
std::span<const SeededFault> Faults();
// nullptr for a name no row carries ("" names no fault).
const HarnessMode* FindMode(std::string_view name);
const SeededFault* FindFault(std::string_view name);

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_MODES_H_
