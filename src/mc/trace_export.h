// Bridges model-checker event streams into the src/trace pipeline, so a
// counterexample schedule renders in chrome://tracing exactly like a real
// executor run: one lane per virtual worker, decision steps as timestamps.

#ifndef OPTSCHED_SRC_MC_TRACE_EXPORT_H_
#define OPTSCHED_SRC_MC_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/mc/scheduler.h"
#include "src/trace/trace.h"

namespace optsched::mc {

// Maps the harness-level events of one execution (steal outcomes, item
// executions, parks/wakes/bumps) to TraceEvents. Pure sync events (lock and
// load hooks) are omitted unless `include_sync` — they are numerous and
// usually noise at trace scale. Time is the decision step (microseconds in
// the rendered trace, one step apart).
std::vector<trace::TraceEvent> ToTraceEvents(const std::vector<McEvent>& events,
                                             bool include_sync = false);

// Chrome trace JSON for one execution; lanes are named "worker <i>".
std::string ExecutionToChromeTraceJson(const ExecutionResult& result,
                                       uint32_t num_workers, bool include_sync = false);

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_TRACE_EXPORT_H_
