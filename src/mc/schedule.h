// Serializable schedules: the checker's counterexample currency.
//
// A Schedule is the choice sequence of one controlled execution plus the
// harness configuration that makes it reproducible (mode, policy, initial
// loads, attempt budget, seed). Serialized as a small flat JSON object so a
// violation found in CI can be committed as a golden file, replayed
// deterministically with `simctl --mc --replay=FILE`, minimized, and
// exported as a Chrome trace for a human to read as a timeline.

#ifndef OPTSCHED_SRC_MC_SCHEDULE_H_
#define OPTSCHED_SRC_MC_SCHEDULE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace optsched::mc {

struct Schedule {
  // Harness identity (see src/mc/harness.h): "balance", "drain", "epoch",
  // "ingress", "wakeup" or "forkjoin".
  std::string harness = "balance";
  // Policy registry name (src/core/policies/registry.h).
  std::string policy = "thread-count";
  // Items seeded per queue; its size is the worker count.
  std::vector<int64_t> initial_loads;
  uint32_t attempts_per_worker = 0;
  uint64_t seed = 1;
  bool recheck = true;
  // Batched steal-half cap (1 = steal-one; matches StealOptions::max_batch).
  // Absent in pre-batching golden files; FromJson defaults to 1.
  uint32_t max_steal_batch = 1;
  // Fault mode: unbounded batch ignoring the migration rule (idles victims).
  bool break_batch_bound = false;
  // Per-mailbox bound for the "ingress" harness (BoundedMailbox capacity).
  // Absent in pre-ingress golden files; FromJson defaults to 2.
  uint32_t mailbox_capacity = 2;
  // Run-queue backend under test: "locked" or "chase_lev"
  // (runtime::QueueBackendName). Absent in pre-backend golden files;
  // FromJson defaults to "locked".
  std::string backend = "locked";
  // Chase–Lev ring capacity (rounded up to a power of two by the deque).
  // Small by default so the mc state space stays bounded.
  uint32_t deque_capacity = 64;
  // Fault mode: thieves read bottom before top with no fence between, so a
  // stale window can claim an already-executed slot (no-lost-items).
  bool broken_steal_order = false;
  // "forkjoin" harness: uniform spawn-tree depth and fanout (see
  // StealHarness::Config). Absent in pre-task golden files; FromJson
  // defaults to 2 / 2.
  uint32_t tree_depth = 2;
  uint32_t fanout = 2;
  // Fault mode ("forkjoin"): plain load/store join decrement loses
  // concurrent arrivals, stranding the continuation (join-fires-exactly-once).
  bool broken_join_counter = false;
  // Fault mode ("forkjoin"): the quiescence sum reads the submitted counts
  // before the executed ones, so a worker can exit while spawned items are
  // still queued (no-premature-exit).
  bool broken_termination_order = false;
  // Fault mode ("wakeup"): an owner announces itself idle only AFTER its
  // last re-check and parks on that round's stale sample, so a gated notify
  // can skip the bump it needed (no-lost-wakeup).
  bool broken_wakeup_gate = false;
  // The violated property ("" when the schedule is not a counterexample).
  std::string property;
  std::string note;
  // Thread chosen at each decision point. Replay follows these, then falls
  // back to the deterministic default rule once they are exhausted.
  std::vector<uint32_t> choices;

  std::string ToJson() const;
  // Strict enough for our own output, tolerant of whitespace. nullopt on
  // malformed input or missing required fields.
  static std::optional<Schedule> FromJson(const std::string& json);

  bool operator==(const Schedule& other) const = default;
};

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_SCHEDULE_H_
