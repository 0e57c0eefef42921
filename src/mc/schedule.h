// Serializable schedules: the checker's counterexample currency.
//
// A Schedule is the choice sequence of one controlled execution plus the
// harness configuration that makes it reproducible (mode, fault, policy,
// initial loads, attempt budget, seed). Serialized as a small flat JSON object so a
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
  // Harness mode: a row of src/mc/modes.h ("balance", "drain", "ingress",
  // "forkjoin").
  std::string harness = "balance";
  // Policy registry name (src/core/policies/registry.h).
  std::string policy = "thread-count";
  // Items seeded per queue; its size is the worker count.
  std::vector<int64_t> initial_loads;
  // "balance": steal attempts per worker. Owner modes: the steal-round
  // budget per worker ("ingress": also the producer's push count).
  uint32_t attempts_per_worker = 2;
  uint64_t seed = 1;
  bool recheck = true;
  // Batched steal-half cap (1 = steal-one; matches StealOptions::max_batch).
  uint32_t max_steal_batch = 1;
  // Per-mailbox bound (BoundedMailbox capacity), read by the modes with
  // mailboxes.
  uint32_t mailbox_capacity = 2;
  // Run-queue backend under test: "locked" or "chase_lev"
  // (runtime::QueueBackendName).
  std::string backend = "locked";
  // Chase–Lev ring capacity (rounded up to a power of two by the deque).
  // Small by default so the mc state space stays bounded.
  uint32_t deque_capacity = 64;
  // Uniform spawn tree of tree_depth levels below the root, `fanout`
  // children per internal node (tree_depth = 1 is a root forking `fanout`
  // leaves), read by the spawn-tree modes.
  uint32_t tree_depth = 2;
  uint32_t fanout = 2;
  // Seeded fault: a row of src/mc/modes.h, or "" for the shipped code.
  std::string fault;
  // The violated property ("" when the schedule is not a counterexample).
  std::string property;
  std::string note;
  // Thread chosen at each decision point. Replay follows these, then falls
  // back to the deterministic default rule once they are exhausted.
  std::vector<uint32_t> choices;

  std::string ToJson() const;
  // Strict enough for our own output, tolerant of whitespace. nullopt on
  // malformed input, a missing required field, a key it does not know, or
  // a harness or fault no row of src/mc/modes.h carries.
  static std::optional<Schedule> FromJson(const std::string& json);

  bool operator==(const Schedule& other) const = default;
};

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_SCHEDULE_H_
