#include "src/trace/chrome_trace.h"

#include <cstdio>
#include <set>

#include "src/base/str.h"

namespace optsched::trace {

namespace {

// Track grouping in the viewer: scheduling events vs watchdog verdicts.
const char* EventCategory(EventType type) {
  switch (type) {
    case EventType::kViolation:
    case EventType::kEscalation:
    case EventType::kRecovery:
      return "watchdog";
    case EventType::kBackoffPark:
    case EventType::kWakeup:
      return "backoff";
    case EventType::kCrash:
    case EventType::kRestart:
    case EventType::kEnqueueFault:
    case EventType::kProducerStall:
      return "fault";
    case EventType::kMailboxDrain:
    case EventType::kAdmissionShed:
    case EventType::kAdmissionSpill:
    case EventType::kAdmissionBlock:
      return "ingress";
    default:
      return "sched";
  }
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events, uint64_t dropped,
                              const std::vector<std::string>& lane_names) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const std::string& row) {
    out += first ? "" : ",";
    out += row;
    first = false;
  };

  std::set<CpuId> lanes;
  for (const TraceEvent& e : events) {
    lanes.insert(e.cpu);
    const char* name = EventTypeName(e.type);
    const char* cat = EventCategory(e.type);
    const std::string args =
        StrFormat("{\"task\":%llu,\"other_cpu\":%u,\"detail\":%lld}",
                  static_cast<unsigned long long>(e.task), e.other_cpu,
                  static_cast<long long>(e.detail));
    if (e.type == EventType::kBackoffPark) {
      // detail = measured park duration in nanoseconds -> dur in microseconds.
      append(StrFormat("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                       "\"dur\":%.3f,\"pid\":0,\"tid\":%u,\"args\":%s}",
                       name, cat, static_cast<unsigned long long>(e.time),
                       static_cast<double>(e.detail) / 1000.0, e.cpu, args.c_str()));
    } else {
      append(StrFormat("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                       "\"ts\":%llu,\"pid\":0,\"tid\":%u,\"args\":%s}",
                       name, cat, static_cast<unsigned long long>(e.time), e.cpu, args.c_str()));
    }
  }
  append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"optsched\"}}");
  for (CpuId lane : lanes) {
    const std::string label = lane < lane_names.size()
                                  ? lane_names[lane]
                                  : StrFormat("lane %u", lane);
    append(StrFormat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                     "\"args\":{\"name\":\"%s\"}}",
                     lane, JsonEscape(label).c_str()));
  }
  out += StrFormat("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":%llu}}",
                   static_cast<unsigned long long>(dropped));
  return out;
}

bool WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) {
    std::fclose(f);
  }
  return ok;
}

}  // namespace optsched::trace
