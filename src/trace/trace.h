// Event tracing for simulator and runtime runs.
//
// Every scheduling-relevant transition is recorded with a timestamp so that
// idle-while-overloaded episodes — the paper's motivating pathology ("cores
// idle while threads are waiting in runqueues", Lozi et al.) — can be
// detected, quantified and rendered after the fact.

#ifndef OPTSCHED_SRC_TRACE_TRACE_H_
#define OPTSCHED_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sched/task.h"
#include "src/topology/topology.h"

namespace optsched::trace {

using SimTime = uint64_t;  // microseconds

enum class EventType {
  kSpawn,        // task submitted to the machine
  kScheduleIn,   // task became a core's current
  kScheduleOut,  // task preempted back to the runqueue
  kBlock,        // task blocked (I/O etc.)
  kWake,         // task woke and was placed on a runqueue
  kExit,         // task completed its service
  kSteal,        // task migrated by a successful steal
  kStealFailed,  // a steal attempt failed (re-check or no eligible task)
  kRound,        // a load-balancing round / tick executed
  kViolation,    // watchdog: a core's idle-while-overloaded streak turned persistent
  kEscalation,   // watchdog: forced global balancing round in response
  kRecovery,     // watchdog: a persistent violation cleared
  // Real-thread executor events (recorded into per-worker SPSC rings):
  kBackoffPark,  // bounded backoff park; detail = measured duration (ns)
  kWakeup,       // a park cut short by the wakeup gate (new work or an escalation)
  kCrash,        // injected worker crash (the worker leaves its loop)
  kRestart,      // the crashed worker's own thread re-enters its loop
  // Serving-ingress events (docs/serving.md). Executor side:
  kMailboxDrain,    // owner moved a batch mailbox->runqueue; detail = items
  // Router side (per-shard buffers; cpu = home worker, task = item id):
  kAdmissionShed,   // item dropped by the shed policy; detail = mailbox depth
  kAdmissionSpill,  // item admitted to a sibling; other_cpu = actual worker
  kAdmissionBlock,  // block-with-deadline timed out -> shed; detail = waited us
  kEnqueueFault,    // injected TryPush failure (fault plan, not real overload)
  kProducerStall,   // injected producer stall; detail = stall duration us
};

const char* EventTypeName(EventType type);

struct TraceEvent {
  SimTime time = 0;
  EventType type = EventType::kSpawn;
  CpuId cpu = 0;       // acting core (thief for steals)
  TaskId task = 0;     // 0 when not applicable
  CpuId other_cpu = 0; // victim for steals, previous cpu for wakes
  int64_t detail = 0;  // free-form (e.g. failures in a round)
};

class TraceBuffer {
 public:
  // capacity 0 disables recording (Record becomes a no-op).
  explicit TraceBuffer(size_t capacity = 1 << 20);

  void Record(TraceEvent event);
  bool enabled() const { return capacity_ > 0; }

  const std::vector<TraceEvent>& events() const { return events_; }
  uint64_t dropped() const { return dropped_; }
  void Clear();

  // Events of one type, in time order.
  std::vector<TraceEvent> Filter(EventType type) const;

  // CSV with a header row; loadable into any analysis tool.
  std::string ToCsv() const;

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

}  // namespace optsched::trace

#endif  // OPTSCHED_SRC_TRACE_TRACE_H_
