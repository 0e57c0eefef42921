// Open-system executor mode: dynamic submission from a producer thread with
// a wall-clock deadline — no item lost, no item double-executed.

#include <gtest/gtest.h>

#include <atomic>

#include "src/core/policies/thread_count.h"
#include "src/runtime/executor.h"

namespace optsched {
namespace {

TEST(ExecutorDynamic, ProducerDrivenRunAccountsForEveryItem) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 50;
  runtime::Executor executor(policies::MakeThreadCount(), config);

  std::atomic<uint64_t> produced{0};
  const auto producer = [&](runtime::Executor& e) {
    uint64_t id = 0;
    while (!e.stopped()) {
      // Always feed queue 0: the other workers must steal to share.
      e.Submit(0, {.id = id++, .work_units = 40, .weight = 1024});
      produced.fetch_add(1, std::memory_order_relaxed);
      // Small batch pacing so the queue neither starves nor explodes.
      for (volatile int spin = 0; spin < 2000; ++spin) {
      }
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(/*duration_ms=*/100, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_GT(executed, 0u);
  EXPECT_EQ(report.total_items, produced.load());
  // Conservation: executed + still-queued == submitted.
  EXPECT_EQ(executed + report.items_left_unexecuted, report.total_items);
}

TEST(ExecutorDynamic, StealingSpreadsDynamicWork) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 200;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const auto producer = [](runtime::Executor& e) {
    uint64_t id = 0;
    while (!e.stopped()) {
      e.Submit(0, {.id = id++, .work_units = 200, .weight = 1024});
      for (volatile int spin = 0; spin < 500; ++spin) {
      }
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(150, producer);
  uint64_t helper_items = 0;
  for (size_t i = 1; i < report.workers.size(); ++i) {
    helper_items += report.workers[i].items_executed;
  }
  EXPECT_GT(helper_items, 0u) << report.ToString();
  EXPECT_GT(report.Totals().steals.successes, 0u);
}

TEST(ExecutorDynamic, DeadlineWithoutProducerJustIdles) {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const runtime::ExecutorReport report = executor.RunFor(20);
  EXPECT_EQ(report.total_items, 0u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_GE(report.wall_time_ns, 20'000'000u);
}

TEST(ExecutorDynamic, SeededItemsCountedInDeadlineMode) {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  config.spin_per_unit = 20;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, {{.id = 1, .work_units = 5, .weight = 1024},
                    {.id = 2, .work_units = 5, .weight = 1024}});
  const runtime::ExecutorReport report = executor.RunFor(50);
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(report.total_items, 2u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
}

}  // namespace
}  // namespace optsched
