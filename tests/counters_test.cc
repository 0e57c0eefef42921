// Counter tables (src/stats/counters.h): every row of every stats struct is
// summed, exported and printed under its name; the exporters carry the
// counters their hand-written lists used to miss; and the full set of names
// the exporters produce is pinned by tests/golden/metric_names.txt.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/balancer.h"
#include "src/core/policies/thread_count.h"
#include "src/fault/fault.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/executor.h"
#include "src/sim/simulator.h"
#include "src/stats/counters.h"
#include "src/trace/accounting.h"
#include "src/trace/metrics.h"
#include "src/workload/workloads.h"

#ifndef GOLDEN_DIR
#define GOLDEN_DIR "tests/golden"
#endif

namespace optsched {
namespace {

// Every row of S's table (nested tables included) as (name, field).
template <typename S>
std::vector<std::pair<std::string, uint64_t*>> Rows(S& s, const std::string& prefix = "") {
  std::vector<std::pair<std::string, uint64_t*>> rows;
  for (const stats::Counter<S>& row : S::kCounters) {
    rows.emplace_back(prefix + row.name, &(s.*row.field));
  }
  if constexpr (requires { S::kNested; }) {
    for (auto& nested : Rows(s.*S::kNested.field, prefix + S::kNested.name + ".")) {
      rows.push_back(nested);
    }
  }
  return rows;
}

template <typename S>
class CounterTable : public ::testing::Test {};

using CounterStructs =
    ::testing::Types<runtime::StealCounters, runtime::WorkerStats, fault::FaultStats,
                     trace::WatchdogStats, BalanceStats, sim::SimMetrics, ingress::ShardStats>;
TYPED_TEST_SUITE(CounterTable, CounterStructs);

TYPED_TEST(CounterTable, AddExportAndPrintCoverEveryRowUnderItsName) {
  TypeParam s;
  std::vector<std::pair<std::string, uint64_t*>> rows = Rows(s);
  ASSERT_FALSE(rows.empty());
  std::set<std::string> names;
  uint64_t value = 1001;
  for (auto& [name, field] : rows) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate row name " << name;
    *field = value;
    value += 7;
  }

  TypeParam sum = s;
  stats::AddCounters(sum, s);
  const std::vector<std::pair<std::string, uint64_t*>> sum_rows = Rows(sum);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(*sum_rows[i].second, 2 * *rows[i].second) << rows[i].first;
  }

  trace::MetricsRegistry registry;
  stats::ExportCounters(s, registry, "p");
  EXPECT_EQ(registry.size(), rows.size());
  for (const auto& [name, field] : rows) {
    EXPECT_EQ(registry.Get("p." + name), static_cast<double>(*field)) << name;
  }

  std::string expected = "x{";
  for (size_t i = 0; i < rows.size(); ++i) {
    expected += (i == 0 ? "" : " ") + rows[i].first + "=" + std::to_string(*rows[i].second);
  }
  EXPECT_EQ(stats::FormatCounters(s, "x"), expected + "}");
}

fault::FaultPlan ChaosPlan(uint64_t seed) {
  fault::FaultPlan plan;
  plan.straggler_rate = 0.25;
  plan.steal_abort_rate = 0.25;
  plan.stale_snapshot_rate = 0.25;
  plan.drop_round_rate = 0.15;
  plan.seed = seed;
  return plan;
}

// A faulted, watched simulator run with newidle balancing on.
void RunSim(trace::MetricsRegistry& registry, sim::SimMetrics* metrics_out = nullptr,
            fault::FaultStats* faults_out = nullptr) {
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config;
  config.newidle_balance = true;
  config.fault_plan = ChaosPlan(31);
  config.watchdog = true;
  sim::Simulator simulator(topo, policies::MakeThreadCount(), config, /*seed=*/31);
  workload::SubmitStaticImbalance(
      simulator,
      workload::StaticImbalanceConfig{.num_tasks = 32, .service_us = 10'000, .initial_cpus = 1});
  simulator.Run();
  simulator.ExportMetrics(registry);
  if (metrics_out != nullptr) {
    *metrics_out = simulator.metrics();
  }
  if (faults_out != nullptr) {
    *faults_out = simulator.fault_stats();
  }
}

TEST(SimExport, CarriesNewidleMigrationAndEveryFaultCounter) {
  trace::MetricsRegistry registry;
  sim::SimMetrics metrics;
  fault::FaultStats faults;
  RunSim(registry, &metrics, &faults);
  EXPECT_GT(metrics.newidle_steals, 0u);
  EXPECT_GT(metrics.cold_migrations, 0u);
  ASSERT_TRUE(registry.Has("sim.newidle_steals"));
  ASSERT_TRUE(registry.Has("sim.cold_migrations"));
  EXPECT_EQ(registry.Get("sim.newidle_steals"), static_cast<double>(metrics.newidle_steals));
  EXPECT_EQ(registry.Get("sim.cold_migrations"), static_cast<double>(metrics.cold_migrations));
  const std::pair<const char*, uint64_t> kFaults[] = {
      {"sim.faults.stalled_attempts", faults.stalled_attempts},
      {"sim.faults.injected_aborts", faults.injected_aborts},
      {"sim.faults.stale_snapshots", faults.stale_snapshots},
      {"sim.faults.dropped_rounds", faults.dropped_rounds},
      {"sim.faults.crashes", faults.crashes},
      {"sim.faults.enqueue_failures", faults.mailbox_enqueue_failures},
      {"sim.faults.producer_stalls", faults.producer_stalls},
      {"sim.faults.delayed_drains", faults.delayed_drains},
  };
  for (const auto& [name, value] : kFaults) {
    ASSERT_TRUE(registry.Has(name)) << name;
    EXPECT_EQ(registry.Get(name), static_cast<double>(value)) << name;
  }
  EXPECT_GT(faults.injected_aborts, 0u);
}

// Every name the exporters produce: one executor run with a fault plan and
// the watchdog on, one simulator run, one router with an ingress fault plan,
// and one BalanceStats.
std::vector<std::string> ExportedNames() {
  trace::MetricsRegistry registry;

  runtime::ExecutorConfig config;
  config.num_workers = 2;
  config.spin_per_unit = 10;
  config.fault_plan.steal_abort_rate = 0.2;
  config.fault_plan.crash_rate = 0.01;
  config.fault_plan.crash_restart_us = 50;
  config.watchdog = true;
  config.trace_ring_capacity = 256;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  const uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 200; ++i) {
    items.push_back({.id = i, .work_units = 100, .weight = 1024, .arrival_ns = now_ns});
  }
  executor.Seed(0, items);
  executor.Run().ExportMetrics(registry);

  RunSim(registry);

  ingress::MailboxSet mailboxes(2, 4);
  ingress::RouterConfig router_config;
  router_config.num_shards = 2;
  router_config.fault_plan.mailbox_enqueue_fail_rate = 0.5;
  ingress::IngressRouter router(mailboxes, router_config);
  for (uint64_t i = 0; i < 8; ++i) {
    router.Offer(static_cast<uint32_t>(i % 2), i, {.id = i, .work_units = 1, .weight = 1024});
  }
  router.ExportMetrics(registry);

  stats::ExportCounters(BalanceStats{}, registry, "balancer");

  std::vector<std::string> names;
  for (const auto& [name, value] : registry.values()) {
    names.push_back(name);
  }
  return names;  // std::map order: sorted
}

TEST(MetricNames, MatchTheCommittedGolden) {
  const std::string path = std::string(GOLDEN_DIR) + "/metric_names.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    golden.push_back(line);
  }
  const std::vector<std::string> names = ExportedNames();
  std::ostringstream actual;
  for (const std::string& name : names) {
    actual << name << "\n";
  }
  EXPECT_EQ(names, golden) << "exported names now:\n" << actual.str();
}

}  // namespace
}  // namespace optsched
