// Experiment E15 — overload-resilient serving ingress (docs/serving.md).
//
// An open-loop Poisson arrival process over >= 1M keyed sessions drives the
// serving front end: N connection shards Offer() keyed items through the
// IngressRouter into per-worker bounded mailboxes, which the executor's
// workers drain into their runqueues and execute. Open loop means arrivals
// do NOT slow down when the system falls behind — the defining property of
// serving overload, and the reason admission control exists.
//
//   E15a (saturation probe): the shed policy offered effectively unbounded
//       load; whatever the workers execute per second IS the saturation
//       throughput. All load factors below are multiples of this measured
//       capacity, so the experiment is calibrated to the machine it runs on.
//   E15b (policy x load sweep): each admission policy (shed / spill /
//       block) runs at sub-saturation (0.8x) and overload (2.0x). Reported
//       per run: admitted/shed/spilled counts, executed throughput, the
//       end-to-end sojourn percentiles (p50/p99/p999, arrival stamp ->
//       execution finish) of the ADMITTED population, and the admission
//       decision latency.
//
// Graceful-degradation criterion (the E15 acceptance gate, re-checked in
// CI): under shed at 2x overload, the admitted population's p99 sojourn must
// stay within 5x of its 0.8x value — the whole point of bounded mailboxes is
// that overload turns into counted drops at the edge, not into unbounded
// latency for everyone. Exit code 1 when the criterion fails.
//
// Writes BENCH_e15_serving.json (override with --out=PATH).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/core/policies/thread_count.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/executor.h"
#include "src/trace/chrome_trace.h"

namespace optsched {
namespace {

using bench::F;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct ServingParams {
  uint32_t workers = 8;
  uint32_t shards = 4;
  uint64_t sessions = 1ull << 20;  // >= 1M distinct keyed sessions
  uint32_t mailbox_capacity = 256;
  uint64_t spin_per_unit = 40;
  uint32_t work_units = 1;
  uint64_t duration_ms = 400;
  uint64_t seed = 1;
};

struct ServingResult {
  std::string policy;
  double load_factor = 0.0;  // 0 = saturation probe (unpaced)
  uint64_t offered = 0;
  uint64_t admitted_home = 0;
  uint64_t admitted_spill = 0;
  uint64_t shed = 0;
  uint64_t executed = 0;
  uint64_t queue_residue = 0;    // runqueued at the deadline
  int64_t mailbox_residue = 0;   // still mailbox-resident at the deadline
  uint64_t distinct_sessions = 0;
  double executed_per_s = 0.0;
  double offered_per_s = 0.0;
  double drop_rate = 0.0;   // shed / offered
  double spill_rate = 0.0;  // admitted_spill / offered
  double sojourn_p50_us = 0.0;
  double sojourn_p99_us = 0.0;
  double sojourn_p999_us = 0.0;
  double admission_p50_us = 0.0;
  double admission_p99_us = 0.0;
  uint64_t submit_wakeups = 0;
  uint64_t persistent_watchdog_violations = 0;
  bool conserved = true;  // admitted == executed + queue residue + mailbox residue
};

// One serving run: `rate_per_s` == 0 means unpaced (each shard offers as
// fast as the router lets it — the saturation probe); otherwise each shard
// runs an independent Poisson arrival process at rate_per_s / shards, and
// open-loop semantics stamp arrival_ns with the SCHEDULED arrival time, so
// queueing delay inside the ingress counts against sojourn.
ServingResult RunServing(const ServingParams& params, ingress::AdmissionPolicy policy,
                         double rate_per_s, double load_factor) {
  ServingResult result;
  result.policy = ingress::AdmissionPolicyName(policy);
  result.load_factor = load_factor;

  ingress::MailboxSet mailboxes(params.workers, params.mailbox_capacity);
  ingress::RouterConfig router_config;
  router_config.num_shards = params.shards;
  router_config.admission.policy = policy;
  router_config.admission.max_spill_hops = 2;
  // Short block deadline: a serving shard can afford to wait out a drain
  // cadence, not a whole scheduling epoch.
  router_config.admission.block_deadline_us = 500;
  router_config.admission.block_poll_us = 20;
  ingress::IngressRouter router(mailboxes, router_config);

  runtime::ExecutorConfig config;
  config.num_workers = params.workers;
  config.spin_per_unit = params.spin_per_unit;
  config.watchdog = true;
  config.seed = params.seed;
  config.ingress = &mailboxes;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  // Per-shard distinct-session tracking by bitmap would cost sessions bits
  // per shard; a shared bitmap of one byte per session is enough (racy
  // writes of `1` are idempotent).
  std::vector<uint8_t> session_touched(params.sessions, 0);

  const auto producer = [&](runtime::Executor& e) {
    std::vector<std::thread> shard_threads;
    for (uint32_t s = 0; s < params.shards; ++s) {
      shard_threads.emplace_back([&, s] {
        Rng rng(params.seed * 7919 + s + 1);
        const double shard_rate = rate_per_s / params.shards;
        uint64_t next_arrival_ns = NowNs();
        uint64_t id = static_cast<uint64_t>(s) << 40;
        while (!e.stopped()) {
          if (rate_per_s > 0) {
            next_arrival_ns += static_cast<uint64_t>(rng.NextExponential(shard_rate) * 1e9);
            // Open loop: never reschedule a late arrival — if the shard fell
            // behind (e.g. it was blocking on a full mailbox), the backlog
            // of due arrivals is offered immediately and their sojourn
            // clocks are already running.
            while (!e.stopped() && NowNs() < next_arrival_ns) {
              std::this_thread::yield();
            }
            if (e.stopped()) {
              break;
            }
          }
          const uint64_t session = rng.NextBelow(params.sessions);
          session_touched[session] = 1;
          router.Offer(s, session,
                       {.id = id++,
                        .work_units = params.work_units,
                        .weight = 1024,
                        .arrival_ns = rate_per_s > 0 ? next_arrival_ns : NowNs()});
        }
      });
    }
    for (auto& t : shard_threads) {
      t.join();
    }
  };

  const runtime::ExecutorReport report = executor.RunFor(params.duration_ms, producer);

  const ingress::ShardStats totals = router.TotalStats();
  result.offered = totals.offered;
  result.admitted_home = totals.admitted_home;
  result.admitted_spill = totals.admitted_spill;
  result.shed = totals.shed;
  for (const auto& w : report.workers) {
    result.executed += w.items_executed;
    result.submit_wakeups += w.submit_wakeups;
  }
  result.queue_residue = report.items_left_unexecuted;
  result.mailbox_residue = mailboxes.TotalPending();
  for (uint8_t touched : session_touched) {
    result.distinct_sessions += touched;
  }
  const double seconds = static_cast<double>(report.wall_time_ns) / 1e9;
  result.executed_per_s = static_cast<double>(result.executed) / seconds;
  result.offered_per_s = static_cast<double>(result.offered) / seconds;
  if (result.offered > 0) {
    result.drop_rate = static_cast<double>(result.shed) / static_cast<double>(result.offered);
    result.spill_rate =
        static_cast<double>(result.admitted_spill) / static_cast<double>(result.offered);
  }
  const stats::LogHistogram sojourn = report.MergedSojournNs();
  result.sojourn_p50_us = sojourn.Percentile(0.50) / 1000.0;
  result.sojourn_p99_us = sojourn.Percentile(0.99) / 1000.0;
  result.sojourn_p999_us = sojourn.Percentile(0.999) / 1000.0;
  result.admission_p50_us = totals.admission_ns.Percentile(0.50) / 1000.0;
  result.admission_p99_us = totals.admission_ns.Percentile(0.99) / 1000.0;
  result.persistent_watchdog_violations = report.watchdog.persistent_violations;

  const uint64_t admitted = result.admitted_home + result.admitted_spill;
  result.conserved = admitted == result.executed + result.queue_residue +
                                     static_cast<uint64_t>(result.mailbox_residue);
  return result;
}

std::string FlagValue(int argc, char** argv, const char* name, const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::vector<std::string> ResultRow(const ServingResult& r) {
  return {r.policy,
          r.load_factor > 0 ? F("%.1fx", r.load_factor) : "max",
          F("%llu", (unsigned long long)r.offered),
          F("%.0f%%", 100.0 * (1.0 - r.drop_rate)),
          F("%.1f%%", 100.0 * r.spill_rate),
          F("%.0fk/s", r.executed_per_s / 1000.0),
          F("%.0f", r.sojourn_p50_us),
          F("%.0f", r.sojourn_p99_us),
          F("%.0f", r.sojourn_p999_us),
          F("%.1f", r.admission_p99_us),
          r.conserved ? "yes" : "NO"};
}

std::string ResultJson(const ServingResult& r) {
  return F(
      "{\"policy\":\"%s\",\"load_factor\":%.2f,\"offered\":%llu,"
      "\"admitted_home\":%llu,\"admitted_spill\":%llu,\"shed\":%llu,"
      "\"executed\":%llu,\"queue_residue\":%llu,\"mailbox_residue\":%lld,"
      "\"distinct_sessions\":%llu,\"offered_per_s\":%.0f,\"executed_per_s\":%.0f,"
      "\"drop_rate\":%.4f,\"spill_rate\":%.4f,"
      "\"sojourn_us\":{\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f},"
      "\"admission_us\":{\"p50\":%.2f,\"p99\":%.2f},"
      "\"submit_wakeups\":%llu,\"persistent_watchdog_violations\":%llu,"
      "\"conserved\":%s}",
      r.policy.c_str(), r.load_factor, (unsigned long long)r.offered,
      (unsigned long long)r.admitted_home, (unsigned long long)r.admitted_spill,
      (unsigned long long)r.shed, (unsigned long long)r.executed,
      (unsigned long long)r.queue_residue, (long long)r.mailbox_residue,
      (unsigned long long)r.distinct_sessions, r.offered_per_s, r.executed_per_s, r.drop_rate,
      r.spill_rate, r.sojourn_p50_us, r.sojourn_p99_us, r.sojourn_p999_us, r.admission_p50_us,
      r.admission_p99_us, (unsigned long long)r.submit_wakeups,
      (unsigned long long)r.persistent_watchdog_violations, r.conserved ? "true" : "false");
}

int Main(int argc, char** argv) {
  ServingParams params;
  params.workers =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "workers", "8").c_str()));
  params.shards =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "shards", "4").c_str()));
  params.sessions = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "sessions", "1048576").c_str()));
  params.mailbox_capacity =
      static_cast<uint32_t>(std::atoi(FlagValue(argc, argv, "mailbox", "256").c_str()));
  params.spin_per_unit =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "spin", "40").c_str()));
  params.duration_ms =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "duration-ms", "400").c_str()));
  params.seed = static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "seed", "1").c_str()));
  const std::string out = FlagValue(argc, argv, "out", "BENCH_e15_serving.json");

  bench::Section(F("E15a — saturation probe: %u workers, %u shards, unpaced shed load",
                   params.workers, params.shards));
  const ServingResult probe =
      RunServing(params, ingress::AdmissionPolicy::kShed, /*rate_per_s=*/0.0,
                 /*load_factor=*/0.0);
  const double saturation_per_s = probe.executed_per_s;
  bench::Note(F("saturation throughput: %.0f items/s (offered %.0f/s, drop rate %.1f%%)",
                saturation_per_s, probe.offered_per_s, 100.0 * probe.drop_rate));

  bench::Section(F("E15b — policy x load sweep over %llu keyed sessions",
                   (unsigned long long)params.sessions));
  const std::vector<double> load_factors = {0.8, 2.0};
  const std::vector<ingress::AdmissionPolicy> policies = {
      ingress::AdmissionPolicy::kShed, ingress::AdmissionPolicy::kSpillToSibling,
      ingress::AdmissionPolicy::kBlockWithDeadline};
  std::vector<ServingResult> results;
  for (const ingress::AdmissionPolicy policy : policies) {
    for (const double load : load_factors) {
      results.push_back(RunServing(params, policy, saturation_per_s * load, load));
    }
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back(ResultRow(probe));
  for (const ServingResult& r : results) {
    rows.push_back(ResultRow(r));
  }
  bench::PrintTable({"policy", "load", "offered", "admit%", "spill%", "executed", "p50us",
                     "p99us", "p999us", "adm p99us", "conserved"},
                    rows);

  // Graceful degradation: shed keeps the admitted population's tail bounded
  // through 2.5x more offered load than the sub-saturation baseline.
  const auto find = [&](const char* policy, double load) -> const ServingResult* {
    for (const ServingResult& r : results) {
      if (r.policy == policy && r.load_factor == load) {
        return &r;
      }
    }
    return nullptr;
  };
  const ServingResult* shed_low = find("shed", 0.8);
  const ServingResult* shed_high = find("shed", 2.0);
  bool ok = true;
  const double degradation_cap = 5.0;
  // Sub-us p99 floors the ratio denominator at 1us so an idle machine's
  // near-zero baseline cannot fail a perfectly healthy run.
  const double low_p99 = std::max(shed_low->sojourn_p99_us, 1.0);
  const double degradation = shed_high->sojourn_p99_us / low_p99;
  bench::Section("E15 graceful-degradation criterion");
  bench::Note(F("shed p99 sojourn: %.1fus @0.8x -> %.1fus @2.0x (%.2fx, cap %.1fx)",
                shed_low->sojourn_p99_us, shed_high->sojourn_p99_us, degradation,
                degradation_cap));
  if (degradation > degradation_cap) {
    bench::Note("FAIL: overload leaked into the admitted population's tail latency");
    ok = false;
  }
  // The unpaced probe saturates by construction, so its admission path MUST
  // have engaged; this is the robust "shedding works" check. The paced 2.0x
  // run may or may not shed on an oversubscribed machine (the probe
  // under-measures capacity when producers contend with workers for cores),
  // so a dry 2.0x run is only a calibration note, never a failure.
  if (probe.drop_rate <= 0.0) {
    bench::Note("FAIL: the saturation probe shed nothing — admission never engaged");
    ok = false;
  }
  if (shed_high->drop_rate <= 0.0) {
    bench::Note("note: shed@2.0x dropped nothing — saturation was under-measured "
                "(oversubscribed machine); latency gate still applies");
  }
  for (const ServingResult& r : results) {
    if (!r.conserved) {
      bench::Note(F("FAIL: %s@%.1fx lost admitted items", r.policy.c_str(), r.load_factor));
      ok = false;
    }
    if (r.persistent_watchdog_violations > 0) {
      bench::Note(F("FAIL: %s@%.1fx tripped the watchdog persistently", r.policy.c_str(),
                    r.load_factor));
      ok = false;
    }
  }
  if (ok) {
    bench::Note("OK: overload degrades into counted drops/spills, not unbounded latency");
  }

  std::string json =
      F("{\"experiment\":\"e15_serving\",\"workers\":%u,\"shards\":%u,\"sessions\":%llu,"
        "\"mailbox_capacity\":%u,\"spin\":%llu,\"duration_ms\":%llu,"
        "\"saturation_items_per_s\":%.0f,\"degradation_p99_ratio\":%.3f,"
        "\"degradation_cap\":%.1f,\"graceful\":%s,\"probe\":",
        params.workers, params.shards, (unsigned long long)params.sessions,
        params.mailbox_capacity, (unsigned long long)params.spin_per_unit,
        (unsigned long long)params.duration_ms, saturation_per_s, degradation, degradation_cap,
        ok ? "true" : "false");
  json += ResultJson(probe);
  json += ",\"runs\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    json += F("%s", i ? "," : "") + ResultJson(results[i]);
  }
  json += "]}\n";
  if (trace::WriteStringToFile(out, json)) {
    std::printf("\nsummary -> %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "failed to write '%s'\n", out.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace optsched

int main(int argc, char** argv) { return optsched::Main(argc, argv); }
