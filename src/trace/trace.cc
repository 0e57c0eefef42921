#include "src/trace/trace.h"

#include "src/base/str.h"

namespace optsched::trace {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSpawn: return "spawn";
    case EventType::kScheduleIn: return "schedule-in";
    case EventType::kScheduleOut: return "schedule-out";
    case EventType::kBlock: return "block";
    case EventType::kWake: return "wake";
    case EventType::kExit: return "exit";
    case EventType::kSteal: return "steal";
    case EventType::kStealFailed: return "steal-failed";
    case EventType::kRound: return "round";
    case EventType::kViolation: return "violation";
    case EventType::kEscalation: return "escalation";
    case EventType::kRecovery: return "recovery";
    case EventType::kBackoffPark: return "backoff-park";
    case EventType::kWakeup: return "wakeup";
    case EventType::kCrash: return "crash";
    case EventType::kRestart: return "restart";
    case EventType::kMailboxDrain: return "mailbox-drain";
    case EventType::kAdmissionShed: return "admission-shed";
    case EventType::kAdmissionSpill: return "admission-spill";
    case EventType::kAdmissionBlock: return "admission-block";
    case EventType::kEnqueueFault: return "enqueue-fault";
    case EventType::kProducerStall: return "producer-stall";
  }
  return "?";
}

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity) {
  events_.reserve(std::min<size_t>(capacity, 4096));
}

void TraceBuffer::Record(TraceEvent event) {
  if (capacity_ == 0) {
    return;
  }
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void TraceBuffer::Clear() {
  events_.clear();
  dropped_ = 0;
}

std::vector<TraceEvent> TraceBuffer::Filter(EventType type) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.type == type) {
      out.push_back(e);
    }
  }
  return out;
}

std::string TraceBuffer::ToCsv() const {
  std::string out = "time_us,type,cpu,task,other_cpu,detail\n";
  for (const TraceEvent& e : events_) {
    out += StrFormat("%llu,%s,%u,%llu,%u,%lld\n", static_cast<unsigned long long>(e.time),
                     EventTypeName(e.type), e.cpu, static_cast<unsigned long long>(e.task),
                     e.other_cpu, static_cast<long long>(e.detail));
  }
  return out;
}

}  // namespace optsched::trace
