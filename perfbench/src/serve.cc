// serve_zipf: open-loop keyed arrivals through the serving ingress.
//
// One generator thread (the executor's producer) offers Poisson arrivals
// through an IngressRouter (1 shard, shed policy) into a bounded MailboxSet
// drained by W = nproc - 2 chase_lev workers. Session keys are Zipf-skewed
// over ~1M sessions; service times are bimodal. The run walks a fixed ladder
// of ABSOLUTE offered rates (kLadder), never rates calibrated per run. Each
// rung is split into windows of kWindowMs, each its own executor run:
// arrivals are due during the window, then the executor keeps running for
// kTailMs so in-flight items finish. Percentiles are computed per window and
// the rung reports their median, so a multi-ms stall of a virtual CPU spoils
// the windows it lands in rather than the whole rung.
//
// Sojourn is timed from the SCHEDULED arrival. Shed items and items left
// unexecuted at a window's deadline count as missing every latency limit
// (+infinity in the percentiles, reported as kMissUs).

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "shims.h"
#include "src/base/rng.h"
#include "src/core/policies/thread_count.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/executor.h"
#include "src/runtime/spinlock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using optsched::runtime::Executor;
using optsched::runtime::ExecutorConfig;
using optsched::runtime::ExecutorReport;
using optsched::runtime::QueueBackend;
using optsched::runtime::WorkItem;
using optsched::stats::LogHistogram;

struct Rung {
  const char* name;
  double rate_per_s;  // absolute offered rate
  double time_share;  // share of the run's seconds spent on this rung
};
// Fixed ladder (also recorded in perfbench/README.md): `light` and `heavy`
// sit near 25% and 70% of the rate W = 2 workers sustain with p99 <= 1 ms on
// a 4-vCPU virtual machine.
constexpr std::array<Rung, 3> kLadder = {{
    {"light", 20000, 0.30},
    {"mid", 40000, 0.20},
    {"heavy", 55000, 0.50},
}};
constexpr uint64_t kWindowMs = 200;
constexpr uint64_t kTailMs = 40;
constexpr uint64_t kSessions = 1ull << 20;
constexpr double kZipfSkew = 1.2;
constexpr uint64_t kShortUnits = 150;
constexpr uint64_t kLongUnits = 20 * kShortUnits;
constexpr double kLongShare = 0.03;
constexpr uint32_t kMailboxCapacity = 4096;
constexpr int kSetupRepeats = 3;
// Sustainable-rate limits (max_rate_kps).
constexpr double kP99LimitUs = 1000.0;
constexpr double kFailedShareLimit = 0.001;
// Generator validity: a rung is invalid when its median window ran later
// than this at p99, or left arrivals unoffered.
constexpr double kLateP99LimitUs = 100.0;
// Reported in place of +infinity for a percentile that lands on a miss.
constexpr double kMissUs = 1e6;
// serve.stage_residual_us tolerance: |residual| <= max(2 us, 25% of p50).
constexpr double kResidualFloorUs = 2.0;
constexpr double kResidualShare = 0.25;

struct Window {
  const Rung* rung = nullptr;
  size_t begin = 0;  // arrival index range [begin, end)
  size_t end = 0;
  uint64_t span_ns = 0;
};

// The generated inputs: every arrival of every window, in order.
struct Schedule {
  std::vector<uint64_t> offset_ns;  // from the window start
  std::vector<uint32_t> session;
  std::vector<uint8_t> is_long;
  std::vector<Window> windows;
  size_t max_window = 0;
};

// The rungs' windows are interleaved in proportion to their counts (light,
// mid, heavy, heavy, light, ...), so a slowdown of the platform lasting
// seconds lands on a minority of every rung's windows rather than on most
// windows of one rung.
Schedule MakeSchedule(uint64_t seed, double seconds) {
  struct Slot {
    double key;
    const Rung* rung;
  };
  std::vector<Slot> slots;
  for (const Rung& rung : kLadder) {
    const uint64_t windows =
        std::max<uint64_t>(1, std::llround(seconds * rung.time_share * 1e3 / kWindowMs));
    for (uint64_t w = 0; w < windows; ++w) {
      slots.push_back({(static_cast<double>(w) + 0.5) / static_cast<double>(windows), &rung});
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.key < b.key; });

  Schedule s;
  optsched::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const uint64_t span_ns = kWindowMs * 1'000'000;
  for (const Slot& slot : slots) {
    Window window{.rung = slot.rung, .begin = s.offset_ns.size(), .end = 0, .span_ns = span_ns};
    double t = 0;
    for (;;) {
      t += rng.NextExponential(slot.rung->rate_per_s) * 1e9;
      if (t >= static_cast<double>(span_ns)) {
        break;
      }
      s.offset_ns.push_back(static_cast<uint64_t>(t));
      s.session.push_back(static_cast<uint32_t>(rng.NextZipf(kSessions, kZipfSkew)));
      s.is_long.push_back(rng.NextBool(kLongShare) ? 1 : 0);
    }
    window.end = s.offset_ns.size();
    s.max_window = std::max(s.max_window, window.end - window.begin);
    s.windows.push_back(window);
  }
  return s;
}

// p-quantile of a sample where `misses` further samples are +infinity.
double PercentileWithMisses(const LogHistogram& hist, uint64_t misses, double q) {
  const double total = static_cast<double>(hist.total() + misses);
  if (total == 0 || q * total > static_cast<double>(hist.total())) {
    return kMissUs;
  }
  return hist.Percentile(q * total / static_cast<double>(hist.total())) / 1e3;
}

// What one window run produced.
struct WindowResult {
  uint64_t scheduled = 0;
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t spilled = 0;
  uint64_t executed = 0;
  uint64_t residue = 0;  // runqueue + mailbox at the deadline
  uint64_t wall_ns = 0;
  double offered_kps = 0;
  double late_p99_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::vector<uint64_t> home_counts;
  ExecutorReport report;

  uint64_t failed() const { return scheduled - executed; }
};

// Per-item traced stage samples, pooled over windows.
struct ItemTrace {
  std::vector<double> late_us;
  std::vector<double> admit_ns;
  std::vector<double> mailbox_wait_us;
  std::vector<double> runqueue_wait_us;
  std::vector<double> exec_us;
  LogHistogram stage_sum_ns;  // mailbox + runqueue + exec, per item
  LogHistogram executor_sojourn_ns;
  uint64_t drain_calls = 0;
  uint64_t drain_items = 0;
};

struct Tracing {
  std::shared_ptr<CountingPolicy> policy;
  TracingRunner* runner;
  ItemTrace* items;
};

class ServeWorkload {
 public:
  ServeWorkload(uint32_t workers, uint64_t seed, double seconds)
      : workers_(workers), seed_(seed), schedule_(MakeSchedule(seed, seconds)) {}

  const Schedule& schedule() const { return schedule_; }

  WindowResult RunWindow(const Window& window, const Tracing* tracing, Outcome& out) const {
    WindowResult r;
    r.scheduled = window.end - window.begin;
    r.home_counts.assign(workers_, 0);
    optsched::ingress::MailboxSet mailboxes(workers_, kMailboxCapacity);
    optsched::ingress::RouterConfig router_config;
    router_config.num_shards = 1;
    router_config.admission.policy = optsched::ingress::AdmissionPolicy::kShed;
    optsched::ingress::IngressRouter router(mailboxes, router_config);

    std::vector<uint64_t> drained_at;
    std::vector<uint64_t> arrival_at;
    std::unique_ptr<TracingIngress> tracing_ingress;
    std::vector<double> late_ns(r.scheduled, 0.0);
    std::vector<double> admit_ns;
    ExecutorConfig config;
    config.num_workers = workers_;
    config.backend = QueueBackend::kChaseLev;
    config.seed = seed_ + window.begin;
    config.ingress = &mailboxes;
    // Only the deadline needs the supervisor here (the watchdog is off); at
    // the default 50 us its wake-ups measurably delay the workers.
    config.supervisor_poll_us = 1000;
    std::shared_ptr<const optsched::BalancePolicy> policy = optsched::policies::MakeThreadCount();
    if (tracing != nullptr) {
      drained_at.assign(r.scheduled + 1, 0);
      arrival_at.assign(r.scheduled + 1, 0);
      admit_ns.assign(r.scheduled, 0.0);
      tracing_ingress = std::make_unique<TracingIngress>(mailboxes, drained_at);
      config.ingress = tracing_ingress.get();
      config.task_runner = tracing->runner;
      tracing->runner->ClearItems();
      policy = tracing->policy;
    }
    Executor executor(policy, config);
    mailboxes.set_notify([&executor](uint32_t worker) { executor.NotifyIngress(worker); });

    uint64_t last_offer_ns = 0;
    uint64_t start_ns = 0;
    const auto producer = [&](Executor& e) {
      start_ns = NowNs();
      if (tracing != nullptr) {
        tracing->runner->BeginRun(start_ns);
      }
      for (size_t i = window.begin; i < window.end; ++i) {
        const uint64_t due = start_ns + schedule_.offset_ns[i];
        while (NowNs() < due && !e.stopped()) {
          optsched::runtime::CpuRelax();
        }
        if (e.stopped()) {
          break;
        }
        const uint64_t id = i - window.begin + 1;
        const bool is_long = schedule_.is_long[i] != 0;
        const WorkItem item{.id = id,
                            .work_units = is_long ? kLongUnits : kShortUnits,
                            .weight = 1024,
                            .arrival_ns = due,
                            .task = tracing != nullptr ? kFlatItem : 0};
        const uint64_t offer_ns = NowNs();
        late_ns[id - 1] = static_cast<double>(offer_ns - due);
        router.Offer(0, schedule_.session[i], item);
        last_offer_ns = NowNs();
        if (tracing != nullptr) {
          arrival_at[id] = due;
          admit_ns[id - 1] = static_cast<double>(last_offer_ns - offer_ns);
        }
        ++r.home_counts[router.HomeWorker(schedule_.session[i])];
      }
    };
    r.report = executor.RunFor(window.span_ns / 1'000'000 + kTailMs, producer);

    const optsched::ingress::ShardStats totals = router.TotalStats();
    r.offered = totals.offered;
    r.admitted = totals.admitted_home + totals.admitted_spill;
    r.shed = totals.shed;
    r.spilled = totals.admitted_spill;
    for (const auto& w : r.report.workers) {
      r.executed += w.items_executed;
    }
    const uint64_t mailbox_residue = static_cast<uint64_t>(mailboxes.TotalPending());
    r.residue = r.report.items_left_unexecuted + mailbox_residue;
    r.wall_ns = r.report.wall_time_ns;
    if (r.admitted != r.executed + r.report.items_left_unexecuted + mailbox_residue) {
      out.Fail(Format("%s window: admitted %llu != executed %llu + runqueue %llu + mailbox %llu",
                      window.rung->name, static_cast<unsigned long long>(r.admitted),
                      static_cast<unsigned long long>(r.executed),
                      static_cast<unsigned long long>(r.report.items_left_unexecuted),
                      static_cast<unsigned long long>(mailbox_residue)));
    }
    if (r.admitted + r.shed != r.offered) {
      out.Fail(Format("%s window: offered %llu != admitted + shed", window.rung->name,
                      static_cast<unsigned long long>(r.offered)));
    }
    late_ns.resize(r.offered);
    r.late_p99_us = Quantile(late_ns, 0.99) / 1e3;
    r.offered_kps = last_offer_ns > start_ns
                        ? static_cast<double>(r.offered) / (last_offer_ns - start_ns) * 1e6
                        : 0.0;
    const LogHistogram sojourn = r.report.MergedSojournNs();
    r.p50_us = PercentileWithMisses(sojourn, r.failed(), 0.50);
    r.p99_us = PercentileWithMisses(sojourn, r.failed(), 0.99);

    if (tracing != nullptr) {
      ItemTrace& t = *tracing->items;
      for (double late : late_ns) {
        t.late_us.push_back(late / 1e3);
      }
      const TracingRunner& runner = *tracing->runner;
      for (uint64_t id = 1; id <= r.scheduled; ++id) {
        const uint32_t runs = runner.executions(id);
        if (runs == 0) {
          continue;
        }
        t.admit_ns.push_back(admit_ns[id - 1]);
        const uint64_t arrival = arrival_at[id];
        const uint64_t drained = drained_at[id];
        const uint64_t start = runner.start_ns()[id];
        const uint64_t end = runner.end_ns()[id];
        if (runs != 1 || drained == 0 || drained < arrival || start < drained) {
          out.Fail(Format("%s window: item %llu ran %u times, stamps out of order",
                          window.rung->name, static_cast<unsigned long long>(id), runs));
          break;
        }
        t.mailbox_wait_us.push_back(static_cast<double>(drained - arrival) / 1e3);
        t.runqueue_wait_us.push_back(static_cast<double>(start - drained) / 1e3);
        t.exec_us.push_back(static_cast<double>(end - start) / 1e3);
        t.stage_sum_ns.Add(end - arrival);
      }
      t.executor_sojourn_ns.Merge(sojourn);
      t.drain_calls += tracing_ingress->calls();
      t.drain_items += tracing_ingress->items();
    }
    return r;
  }

 private:
  uint32_t workers_;
  uint64_t seed_;
  Schedule schedule_;
};

// One rung's windows. The sustained-rate criteria read the median window,
// like the percentiles, so a slowdown episode of the platform that spoils a
// minority of the windows does not decide them.
struct RungSummary {
  const Rung* rung = nullptr;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> failed_share;
  std::vector<double> backlog;      // runqueue + mailbox residue at the deadline
  std::vector<double> late_p99_us;  // generator lateness
  std::vector<double> unoffered;    // arrivals the generator never offered
  uint64_t scheduled = 0;
  uint64_t failed = 0;
  double offered = 0;
  double offered_span_ns = 0;

  double offered_kps() const { return offered_span_ns > 0 ? offered / offered_span_ns * 1e6 : 0; }
  bool generator_valid() const {
    return Median(unoffered) == 0 && Median(late_p99_us) <= kLateP99LimitUs;
  }
};

// Window results summed over a walk of the whole ladder.
struct LadderResult {
  std::vector<RungSummary> rungs;
  uint64_t scheduled = 0;
  uint64_t executed = 0;
  uint64_t offered = 0;
  uint64_t shed = 0;
  uint64_t spilled = 0;
  double wall_ns = 0;
  std::vector<double> window_wall_ns;
  std::vector<uint64_t> home_counts;
  ExecTotals totals;

  LadderResult() {
    for (const Rung& rung : kLadder) {
      rungs.emplace_back().rung = &rung;
    }
  }

  const RungSummary& rung(const char* name) const {
    for (const RungSummary& r : rungs) {
      if (std::string(r.rung->name) == name) {
        return r;
      }
    }
    return rungs.front();
  }

  void Add(const Window& window, const WindowResult& w) {
    RungSummary& summary = rungs[window.rung - kLadder.data()];
    summary.p50_us.push_back(w.p50_us);
    summary.p99_us.push_back(w.p99_us);
    summary.failed_share.push_back(
        w.scheduled > 0 ? static_cast<double>(w.failed()) / static_cast<double>(w.scheduled) : 0);
    summary.backlog.push_back(static_cast<double>(w.residue));
    summary.late_p99_us.push_back(w.late_p99_us);
    summary.unoffered.push_back(static_cast<double>(w.scheduled - w.offered));
    summary.scheduled += w.scheduled;
    summary.failed += w.failed();
    summary.offered += static_cast<double>(w.offered);
    summary.offered_span_ns +=
        w.offered_kps > 0 ? static_cast<double>(w.offered) / w.offered_kps * 1e6 : 0;
    scheduled += w.scheduled;
    executed += w.executed;
    offered += w.offered;
    shed += w.shed;
    spilled += w.spilled;
    wall_ns += static_cast<double>(w.wall_ns);
    window_wall_ns.push_back(static_cast<double>(w.wall_ns));
    home_counts.resize(w.home_counts.size(), 0);
    for (size_t i = 0; i < w.home_counts.size(); ++i) {
      home_counts[i] += w.home_counts[i];
    }
    totals.Add(w.report);
  }
};

// Walks the ladder window by window. With `tracing`, every window runs
// twice, untraced into `plain` and then traced into `traced`, so platform
// drift during the run falls on both alike.
void RunLadder(const ServeWorkload& serve, const Tracing* tracing, LadderResult& plain,
               LadderResult* traced, Outcome& out) {
  for (const Window& window : serve.schedule().windows) {
    if (!out.correct) {
      break;
    }
    plain.Add(window, serve.RunWindow(window, nullptr, out));
    if (tracing != nullptr) {
      traced->Add(window, serve.RunWindow(window, tracing, out));
    }
  }
}

// Highest rung (in ladder order) whose median window meets the p99 limit,
// stays under kFailedShareLimit, ends with no more backlog than the previous
// rung's median window, and whose generator kept its schedule: that rung's
// achieved offered rate.
double MaxRateKps(const LadderResult& ladder, Outcome& out) {
  double best = 0;
  double previous_backlog = 0;
  for (const RungSummary& r : ladder.rungs) {
    const double p99 = Median(r.p99_us);
    const double failed_share = Median(r.failed_share);
    const double backlog = Median(r.backlog);
    const bool ok = p99 <= kP99LimitUs && failed_share <= kFailedShareLimit &&
                    backlog <= previous_backlog && r.generator_valid();
    out.notes.push_back(Format(
        "rung %-5s %6.0f/s: offered %.1f k/s, p50 %.1f us, p99 %.1f us, failed %llu of %llu, "
        "median backlog %.0f, generator late p99 %.1f us%s -> %s",
        r.rung->name, r.rung->rate_per_s, r.offered_kps(), Median(r.p50_us), p99,
        static_cast<unsigned long long>(r.failed), static_cast<unsigned long long>(r.scheduled),
        backlog, Median(r.late_p99_us),
        r.generator_valid() ? "" : " (INVALID: generator fell behind)",
        ok ? "sustained" : "not sustained"));
    if (ok) {
      best = r.offered_kps();
    }
    previous_backlog = backlog;
  }
  return best;
}

}  // namespace

Outcome RunServeZipf(const RunArgs& args) {
  Outcome out;
  const uint32_t workers = std::max(AvailableCpus(), 3u) - 2;
  // Traced runs run every window twice (untraced, then traced) over the same
  // arrivals, so the ladder gets half the seconds.
  const double ladder_seconds = args.trace ? args.seconds / 2 : args.seconds;

  // Set-up: generate the arrival schedule and run one warm-up window; the
  // median of kSetupRepeats.
  std::unique_ptr<ServeWorkload> serve;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats && out.correct; ++r) {
    serve.reset();
    const uint64_t t0 = NowNs();
    serve = std::make_unique<ServeWorkload>(workers, args.seed, ladder_seconds);
    Window warmup = serve->schedule().windows.front();
    warmup.end = warmup.begin + (warmup.end - warmup.begin) / 8;
    warmup.span_ns /= 8;
    serve->RunWindow(warmup, nullptr, out);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  out.config.push_back(Format("workers=%u", workers));
  out.config.push_back("backend=chase_lev");
  out.config.push_back("max_steal_batch=1");
  out.config.push_back("dealing=off");
  out.config.push_back("watchdog=off");
  out.config.push_back("admission=shed shards=1");
  out.config.push_back("supervisor_poll_us=1000");
  std::string ladder_desc;
  for (const Rung& rung : kLadder) {
    ladder_desc += Format("%s%s:%.0f/s", ladder_desc.empty() ? "" : ",", rung.name,
                          rung.rate_per_s);
  }
  out.config.push_back("ladder=" + ladder_desc);

  // Traced runs also pass every window through the tracing seams.
  auto counting = std::make_shared<CountingPolicy>(optsched::policies::MakeThreadCount());
  std::unique_ptr<TracingRunner> runner;
  ItemTrace items;
  std::unique_ptr<Tracing> tracing;
  if (args.trace) {
    runner = std::make_unique<TracingRunner>(workers, nullptr, ExecutorConfig{}.spin_per_unit,
                                             size_t{1} << 21, serve->schedule().max_window + 1);
    tracing = std::make_unique<Tracing>(Tracing{counting, runner.get(), &items});
  }
  LadderResult untraced;
  LadderResult traced;
  RunLadder(*serve, tracing.get(), untraced, &traced, out);
  out.attempted = untraced.scheduled + traced.scheduled;
  out.failed = out.attempted - untraced.executed - traced.executed;
  const double max_rate_kps = MaxRateKps(untraced, out);
  const double items_per_s = static_cast<double>(untraced.executed) / (untraced.wall_ns / 1e9);
  const double light_p50 = Median(untraced.rung("light").p50_us);
  if (!args.trace) {
    const RungSummary& light = untraced.rung("light");
    const RungSummary& heavy = untraced.rung("heavy");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("items_per_s", items_per_s, "1/s");
    out.Add("makespan_ms.p50", Median(untraced.window_wall_ns) / 1e6, "ms");
    out.Add("completed_share",
            static_cast<double>(untraced.executed) / static_cast<double>(untraced.scheduled),
            "ratio");
    out.Add("sojourn_us.p50.light", light_p50, "us");
    out.Add("sojourn_us.p99.light", Median(light.p99_us), "us");
    out.Add("sojourn_us.p50.heavy", Median(heavy.p50_us), "us");
    out.Add("sojourn_us.p99.heavy", Median(heavy.p99_us), "us");
    out.Add("max_rate_kps", max_rate_kps, "1000/s");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  const SpanSummary spans = SummarizeSpans(*runner);
  const double capacity_ns = workers * traced.wall_ns;
  out.Add("executor.gap_ns.p50", spans.gap_p50_ns, "ns");
  out.Add("executor.gap_ns.p99", spans.gap_p99_ns, "ns");
  out.Add("executor.busy_share", spans.body_sum_ns / capacity_ns, "ratio");
  out.Add("task.body_ns.p50", spans.body_p50_ns, "ns");
  out.Add("task.body_ns.p99", spans.body_p99_ns, "ns");
  EmitExecutorCounters(untraced.totals, out);
  EmitPolicyCounts(*counting, traced.totals, out);

  out.Add("ingress.admit_ns.p50", Quantile(items.admit_ns, 0.50), "ns");
  out.Add("ingress.admit_ns.p99", Quantile(items.admit_ns, 0.99), "ns");
  out.Add("ingress.mailbox_wait_us.p50", Quantile(items.mailbox_wait_us, 0.50), "us");
  out.Add("ingress.mailbox_wait_us.p99", Quantile(items.mailbox_wait_us, 0.99), "us");
  out.Add("ingress.drain_items_per_call",
          items.drain_calls > 0 ? static_cast<double>(items.drain_items) / items.drain_calls : 0,
          "items");
  out.Add("ingress.shed_share", static_cast<double>(traced.shed) / traced.offered, "ratio");
  out.Add("ingress.spill_share", static_cast<double>(traced.spilled) / traced.offered, "ratio");
  out.Add("serve.runqueue_wait_us.p50", Quantile(items.runqueue_wait_us, 0.50), "us");
  out.Add("serve.runqueue_wait_us.p99", Quantile(items.runqueue_wait_us, 0.99), "us");
  out.Add("serve.exec_us.p50", Quantile(items.exec_us, 0.50), "us");
  out.Add("serve.exec_us.p99", Quantile(items.exec_us, 0.99), "us");
  // Stage self-check: the executor's own sojourn (stamped after the item
  // finished) against mailbox + runqueue + exec joined per item id.
  const double executor_p50_us = items.executor_sojourn_ns.Percentile(0.5) / 1e3;
  const double stages_p50_us = items.stage_sum_ns.Percentile(0.5) / 1e3;
  const double residual_us = executor_p50_us - stages_p50_us;
  const double tolerance_us = std::max(kResidualFloorUs, kResidualShare * executor_p50_us);
  out.Add("serve.stage_residual_us", residual_us, "us");
  out.Add("trace.stage_sum_error", executor_p50_us > 0 ? std::abs(residual_us) / executor_p50_us : 0,
          "ratio");
  if (std::abs(residual_us) > tolerance_us) {
    out.Fail(Format("stage sums: executor sojourn p50 %.2f us vs stage sum p50 %.2f us "
                    "(tolerance %.2f us)",
                    executor_p50_us, stages_p50_us, tolerance_us));
  }

  out.Add("gen.late_us.p50", Quantile(items.late_us, 0.50), "us");
  out.Add("gen.late_us.p99", Quantile(items.late_us, 0.99), "us");
  out.Add("gen.late_us.max", Quantile(items.late_us, 1.0), "us");
  uint32_t invalid = 0;
  for (const RungSummary& r : untraced.rungs) {
    out.Add(Format("gen.offered_kps.%s", r.rung->name), r.offered_kps(), "1000/s");
    invalid += r.generator_valid() ? 0 : 1;
  }
  out.Add("gen.invalid_rungs", invalid, "count");
  uint64_t hottest = 0;
  for (uint64_t n : untraced.home_counts) {
    hottest = std::max(hottest, n);
  }
  out.Add("gen.hot_home_share", static_cast<double>(hottest) / untraced.offered, "ratio");

  WarmUpCpus(kProbeWarmUpSeconds);
  const double short_ns = SpinNs(kShortUnits, ExecutorConfig{}.spin_per_unit);
  const double long_ns = SpinNs(kLongUnits, ExecutorConfig{}.spin_per_unit);
  out.Add("workload.item_ns.short", short_ns, "ns");
  out.Add("workload.item_ns.long", long_ns, "ns");
  const double ideal_ns =
      static_cast<double>(untraced.executed) * ((1 - kLongShare) * short_ns + kLongShare * long_ns);
  out.Add("workload.efficiency", ideal_ns / (workers * untraced.wall_ns), "ratio");

  const double traced_items_per_s = static_cast<double>(traced.executed) / (traced.wall_ns / 1e9);
  out.Add("trace.overhead.items_per_s", 1.0 - traced_items_per_s / items_per_s, "ratio");
  out.Add("trace.overhead.sojourn_p50_light",
          Median(traced.rung("light").p50_us) / light_p50 - 1.0, "ratio");
  out.notes.push_back(Format("tracing overhead: light sojourn p50 %.2f us untraced vs %.2f traced",
                             light_p50, Median(traced.rung("light").p50_us)));
  RunLayerProbes(workers, out);
  return out;
}

}  // namespace perfbench
