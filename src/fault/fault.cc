#include "src/fault/fault.h"

#include "src/base/check.h"
#include "src/base/str.h"

namespace optsched::fault {

std::string FaultPlan::ToString() const {
  return StrFormat(
      "plan{straggler=%.2f abort=%.2f stale=%.2f drop=%.2f crash=%.2f restart=%lluus "
      "enqfail=%.2f pstall=%.2f/%lluus ddelay=%.2f seed=%llu}",
      straggler_rate, steal_abort_rate, stale_snapshot_rate, drop_round_rate, crash_rate,
      static_cast<unsigned long long>(crash_restart_us), mailbox_enqueue_fail_rate,
      producer_stall_rate, static_cast<unsigned long long>(producer_stall_us), drain_delay_rate,
      static_cast<unsigned long long>(seed));
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint32_t num_lanes) : plan_(plan) {
  OPTSCHED_CHECK(num_lanes > 0);
  OPTSCHED_CHECK(plan.straggler_rate >= 0 && plan.straggler_rate <= 1);
  OPTSCHED_CHECK(plan.steal_abort_rate >= 0 && plan.steal_abort_rate <= 1);
  OPTSCHED_CHECK(plan.stale_snapshot_rate >= 0 && plan.stale_snapshot_rate <= 1);
  OPTSCHED_CHECK(plan.drop_round_rate >= 0 && plan.drop_round_rate <= 1);
  OPTSCHED_CHECK(plan.crash_rate >= 0 && plan.crash_rate <= 1);
  OPTSCHED_CHECK(plan.mailbox_enqueue_fail_rate >= 0 && plan.mailbox_enqueue_fail_rate <= 1);
  OPTSCHED_CHECK(plan.producer_stall_rate >= 0 && plan.producer_stall_rate <= 1);
  OPTSCHED_CHECK(plan.drain_delay_rate >= 0 && plan.drain_delay_rate <= 1);
  lanes_.resize(num_lanes);
  Reset();
}

void FaultInjector::Reset() {
  for (uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    lanes_[lane].rng = Rng(plan_.seed * 0x9e3779b97f4a7c15ull + lane + 1);
    lanes_[lane].stats = FaultStats{};
  }
  round_lane_.rng = Rng(plan_.seed * 0x9e3779b97f4a7c15ull);
  round_lane_.stats = FaultStats{};
}

bool FaultInjector::Draw(uint32_t lane, double rate, uint64_t FaultStats::* counter) {
  OPTSCHED_CHECK(lane < lanes_.size());
  if (rate <= 0.0) {
    return false;
  }
  Lane& l = lanes_[lane];
  if (!l.rng.NextBool(rate)) {
    return false;
  }
  ++(l.stats.*counter);
  return true;
}

bool FaultInjector::StallCore(uint32_t lane) {
  return Draw(lane, plan_.straggler_rate, &FaultStats::stalled_attempts);
}

bool FaultInjector::AbortSteal(uint32_t lane) {
  return Draw(lane, plan_.steal_abort_rate, &FaultStats::injected_aborts);
}

bool FaultInjector::StaleSnapshot(uint32_t lane) {
  return Draw(lane, plan_.stale_snapshot_rate, &FaultStats::stale_snapshots);
}

bool FaultInjector::CrashWorker(uint32_t lane) {
  return Draw(lane, plan_.crash_rate, &FaultStats::crashes);
}

bool FaultInjector::FailMailboxEnqueue(uint32_t lane) {
  return Draw(lane, plan_.mailbox_enqueue_fail_rate, &FaultStats::mailbox_enqueue_failures);
}

bool FaultInjector::StallProducer(uint32_t lane) {
  return Draw(lane, plan_.producer_stall_rate, &FaultStats::producer_stalls);
}

bool FaultInjector::DelayDrain(uint32_t lane) {
  return Draw(lane, plan_.drain_delay_rate, &FaultStats::delayed_drains);
}

bool FaultInjector::DropRound() {
  if (plan_.drop_round_rate <= 0.0) {
    return false;
  }
  if (!round_lane_.rng.NextBool(plan_.drop_round_rate)) {
    return false;
  }
  ++round_lane_.stats.dropped_rounds;
  return true;
}

FaultStats FaultInjector::stats() const {
  FaultStats total = round_lane_.stats;
  for (const Lane& lane : lanes_) {
    stats::AddCounters(total, lane.stats);
  }
  return total;
}

const FaultStats& FaultInjector::lane_stats(uint32_t lane) const {
  OPTSCHED_CHECK(lane < lanes_.size());
  return lanes_[lane].stats;
}

}  // namespace optsched::fault
