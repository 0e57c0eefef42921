#include "src/mc/trace_export.h"

#include "src/base/str.h"
#include "src/trace/chrome_trace.h"

namespace optsched::mc {

using trace::EventType;
using trace::TraceEvent;

std::vector<TraceEvent> ToTraceEvents(const std::vector<McEvent>& events, bool include_sync) {
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (const McEvent& event : events) {
    TraceEvent te;
    te.time = event.step;
    te.cpu = event.thread;
    switch (event.user_kind) {
      case kUserStealOk:
        te.type = EventType::kSteal;
        te.other_cpu = static_cast<CpuId>(event.arg0);
        te.task = static_cast<TaskId>(event.arg2);
        te.detail = event.arg1;  // victim tasks after (steal-safety witness)
        break;
      case kUserStealFailRecheck:
      case kUserStealFailNoTask:
        te.type = EventType::kStealFailed;
        te.other_cpu = static_cast<CpuId>(event.arg0);
        te.detail = event.user_kind == kUserStealFailRecheck ? 1 : 2;
        break;
      case kUserStealEmptyFilter:
        te.type = EventType::kStealFailed;
        te.detail = 3;
        break;
      case kUserSnapshot:
        te.type = EventType::kRound;
        te.detail = event.arg0;  // attempt index
        break;
      case kUserExecuteItem:
        te.type = EventType::kScheduleIn;
        te.task = static_cast<TaskId>(event.arg0);
        break;
      case kUserPark:
        te.type = EventType::kBackoffPark;
        break;
      case kUserStealBatch:
        // Batch metadata for the preceding steal-ok; the steal row already
        // carries the pair, so this only adds noise to a human timeline.
        continue;
      case kUserNone:
      default:
        if (!include_sync) {
          continue;
        }
        te.type = EventType::kRound;
        te.task = 0;
        te.detail = -static_cast<int64_t>(static_cast<uint32_t>(event.op.op));
        break;
    }
    out.push_back(te);
  }
  return out;
}

std::string ExecutionToChromeTraceJson(const ExecutionResult& result, uint32_t num_workers,
                                       bool include_sync) {
  std::vector<std::string> lanes;
  lanes.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    lanes.push_back(StrFormat("worker %u", w));
  }
  return trace::ToChromeTraceJson(ToTraceEvents(result.events, include_sync),
                                  /*dropped=*/0, lanes);
}

}  // namespace optsched::mc
