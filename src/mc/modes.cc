#include "src/mc/modes.h"

namespace optsched::mc {

namespace {

using enum PropertySet;

const HarnessMode kBalance{.name = "balance",
                           .conservation = "no-lost-items",
                           .properties = {kTermination, kSteal, kStealBounds}};
const HarnessMode kDrain{.name = "drain",
                         .shipped_loop = true,
                         .closed_run = true,
                         .conservation = "no-lost-items",
                         .properties = {kTermination, kSteal}};
const HarnessMode kIngress{.name = "ingress",
                           .shipped_loop = true,
                           .mailboxes = true,
                           .conservation = "no-lost-admitted-items",
                           .properties = {kWakeup, kTermination, kSteal}};
const HarnessMode kForkJoin{.name = "forkjoin",
                            .shipped_loop = true,
                            .closed_run = true,
                            .spawn_tree = true,
                            .conservation = "no-lost-spawns",
                            .properties = {kTermination, kSteal, kJoin}};

const HarnessMode* const kModes[] = {&kBalance, &kDrain, &kIngress, &kForkJoin};

const SeededFault kFaults[] = {
    {"break_batch_bound", &kBalance, std::nullopt, "steal-safety",
     "an unbounded batch ignores the migration rule and strips its victim bare",
     [](FaultSeams& s) { s.steal.break_batch_bound = true; }},
    {"broken_steal_order", nullptr, runtime::QueueBackend::kChaseLev, "termination",
     "thieves read bottom before top with no fence and take an executed slot",
     [](FaultSeams& s) { s.checker.broken_steal_order = true; }},
    {"broken_join_counter", &kForkJoin, std::nullopt, "join-fires-exactly-once",
     "a plain load/store join decrement loses a concurrent arrival",
     [](FaultSeams& s) { s.task.broken_join_counter = true; }},
    {"broken_node_recycle", &kForkJoin, std::nullopt, "join-fires-exactly-once",
     "a non-last child frees the continuation, whose reuse strands its join",
     [](FaultSeams& s) { s.task.broken_node_recycle = true; }},
    {"broken_termination_order", &kForkJoin, std::nullopt, "no-premature-exit",
     "the quiescence sum reads the submitted counts before the executed ones",
     [](FaultSeams& s) { s.checker.broken_termination_order = true; }},
    {"broken_wakeup_gate", &kIngress, std::nullopt, "no-lost-wakeup",
     "owners park on the sample of the round they announced idle in",
     [](FaultSeams& s) { s.checker.broken_wakeup_gate = true; }},
};

}  // namespace

std::string SeededFault::Scope() const {
  return mode != nullptr ? "the " + std::string(mode->name) + " harness"
                         : "the " + std::string(runtime::QueueBackendName(*backend)) + " backend";
}

std::span<const HarnessMode* const> Modes() { return kModes; }
std::span<const SeededFault> Faults() { return kFaults; }

const HarnessMode* FindMode(std::string_view name) {
  for (const HarnessMode* mode : kModes) {
    if (mode->name == name) {
      return mode;
    }
  }
  return nullptr;
}

const SeededFault* FindFault(std::string_view name) {
  for (const SeededFault& fault : kFaults) {
    if (fault.name == name) {
      return &fault;
    }
  }
  return nullptr;
}

}  // namespace optsched::mc
