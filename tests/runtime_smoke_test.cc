// Smoke test: the real-thread executor drains seeded work with no lost or
// duplicated items, steals spread an imbalance, and failures (if any) are of
// the expected kinds.

#include <gtest/gtest.h>

#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

TEST(RuntimeSmoke, DrainsAllItemsWithStealing) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 200;
  runtime::Executor executor(policies::MakeThreadCount(), config);

  // All 400 items start on worker 0 — the other three must steal to help.
  // Items are chunky (~100us each) so the run comfortably outlasts thread
  // startup; otherwise worker 0 can drain the queue alone before the helpers
  // are even scheduled.
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 400; ++i) {
    items.push_back(runtime::WorkItem{.id = i, .work_units = 2000, .weight = 1024});
  }
  executor.Seed(0, items);

  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 400u);           // nothing lost, nothing duplicated
  EXPECT_GT(report.Totals().steals.successes, 0u);  // stealing happened
  // At least one non-seed worker did real work.
  uint64_t helper_items = 0;
  for (size_t i = 1; i < report.workers.size(); ++i) {
    helper_items += report.workers[i].items_executed;
  }
  EXPECT_GT(helper_items, 0u);
}

TEST(RuntimeSmoke, LockedSelectionAlsoDrains) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.locked_selection = true;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 100; ++i) {
    items.push_back(runtime::WorkItem{.id = i, .work_units = 20, .weight = 1024});
  }
  executor.Seed(0, items);
  const runtime::ExecutorReport report = executor.Run();
  uint64_t executed = 0;
  for (const runtime::WorkerStats& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 100u);
}

}  // namespace
}  // namespace optsched
