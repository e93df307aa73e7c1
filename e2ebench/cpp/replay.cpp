// The replay workloads: continuous FIFO + EASY-backfill replays of a
// synthetic Theta log through commsched::run_continuous.
//
//   replay-adaptive    ~18k jobs, 90% comm-intensive RHVD, adaptive, static
//   replay-sa-dynamic  the same log, sa, dynamic interference at alpha = 1
//
// Untraced runs time whole replays; the only instrumentation is the
// simulator's own trace callback, which records the event order (the traced
// run replays it) and a clock reading per event (per-start latency).
#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "topology/builders.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace e2ebench {

using namespace commsched;

namespace {

struct ReplayWorkload {
  const char* name;
  AllocatorKind allocator;
  bool dynamic;
};

constexpr ReplayWorkload kWorkloads[] = {
    {"replay-adaptive", AllocatorKind::kAdaptive, false},
    {"replay-sa-dynamic", AllocatorKind::kSa, true},
};

/// Everything a replay needs, built from the seed.
struct Setup {
  Tree tree;
  JobLog log;
  SchedOptions options;
  std::vector<std::uint32_t> idx_of_id;  ///< job id -> log index
};

Setup make_setup(const ReplayWorkload& w, const RunOptions& run) {
  Setup s{make_machine("theta"), {}, {}, {}};
  // Jobs generated before the power-of-two filter.
  const int generated = run.scale == Scale::kTiny ? 600 : 20000;
  s.log = filter_power_of_two(
      generate_log(theta_profile(), generated, mix_seed(run.seed, 1)));
  apply_mix(s.log,
            uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.5),
            mix_seed(run.seed, 2));
  SchedOptions& o = s.options;
  o.allocator = w.allocator;
  o.cost_options = CostOptions{.hop_bytes = true};
  o.runtime_options = RuntimeModelOptions{.min_ratio = 0.05, .max_ratio = 20.0};
  o.degradation = DegradationOptions{.enabled = w.dynamic, .alpha = 1.0};
  o.easy_backfill = true;
  o.backfill_depth = 200;
  o.queue_policy = QueuePolicy::kFifo;
  o.engine = SimEngine::kFast;
  o.enforce_walltime = false;
  o.audit = AuditLevel::kOff;
  WorkloadJobId max_id = 0;
  for (const JobRecord& j : s.log) max_id = std::max(max_id, j.id);
  s.idx_of_id.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (std::size_t i = 0; i < s.log.size(); ++i)
    s.idx_of_id[static_cast<std::size_t>(s.log[i].id)] =
        static_cast<std::uint32_t>(i);
  return s;
}

/// One untraced replay: the result, its wall time, every event, and a
/// clock reading at the start, at each event the simulator emitted and at
/// the end.
struct Untraced {
  SimResult result;
  double wall_s = 0.0;
  std::vector<SimEvent> events;  ///< starts and ends, in emission order
  std::size_t event_count = 0;   ///< submits, starts and ends
  std::vector<std::int64_t> marks_ns;
  std::vector<double> start_latency_us;
};

void run_untraced(const Setup& s, Untraced& out) {
  std::vector<TraceEvent::Kind> kinds;
  kinds.reserve(3 * s.log.size());
  out.marks_ns.clear();
  out.marks_ns.reserve(3 * s.log.size() + 2);
  out.events.clear();
  out.events.reserve(2 * s.log.size());
  SchedOptions options = s.options;
  options.trace = [&](const TraceEvent& e) {
    out.marks_ns.push_back(now_ns());
    kinds.push_back(e.kind);
    if (e.kind != TraceEvent::Kind::kSubmit)
      out.events.push_back({s.idx_of_id[static_cast<std::size_t>(e.job)],
                            e.kind == TraceEvent::Kind::kStart, e.time});
  };
  const auto t0 = Clock::now();
  out.marks_ns.push_back(now_ns());
  out.result = run_continuous(s.tree, s.log, options);
  out.marks_ns.push_back(now_ns());
  out.wall_s = seconds_since(t0);
  out.event_count = kinds.size();
  // A start's latency is the wall time since the previous event: the
  // scheduling pass that selected, priced and committed the job. Event i
  // is mark i + 1.
  out.start_latency_us.clear();
  for (std::size_t i = 1; i < kinds.size(); ++i)
    if (kinds[i] == TraceEvent::Kind::kStart)
      out.start_latency_us.push_back(
          static_cast<double>(out.marks_ns[i + 1] - out.marks_ns[i]) * 1e-3);
}

/// Jobs whose start, end or cost differs between two runs of one log.
std::uint64_t digest_mismatches(const SimResult& a, const SimResult& b) {
  if (a.jobs.size() != b.jobs.size())
    return std::max(a.jobs.size(), b.jobs.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobResult& x = a.jobs[i];
    const JobResult& y = b.jobs[i];
    if (!same_bits(x.start_time, y.start_time) ||
        !same_bits(x.end_time, y.end_time) || !same_bits(x.cost, y.cost))
      ++bad;
  }
  return bad;
}

/// FNV-1a over each job's (start, end, cost) bits, recorded with results.
std::uint64_t digest(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= bits & 0xff;
      h *= 1099511628211ull;
      bits >>= 8;
    }
  };
  for (const JobResult& j : r.jobs) {
    mix(j.start_time);
    mix(j.end_time);
    mix(j.cost);
  }
  return h;
}

/// Index of the first priced job (the one the cost fault perturbs).
std::size_t first_priced(const SimResult& r) {
  for (std::size_t i = 0; i < r.jobs.size(); ++i)
    if (r.jobs[i].cost != 0.0) return i;
  return 0;
}

void perturb_cost(SimResult& r) {
  JobResult& j = r.jobs[first_priced(r)];
  j.cost = std::nextafter(j.cost, INFINITY);
}

void emit_quality(Report& report, const SimResult& r) {
  double exec = 0.0, turnaround = 0.0, cost = 0.0;
  std::size_t priced = 0;
  for (const JobResult& j : r.jobs) {
    exec += j.actual_runtime;
    turnaround += j.turnaround_time();
    if (j.comm_intensive && j.num_nodes >= 2) {
      cost += j.cost;
      ++priced;
    }
  }
  const auto jobs = static_cast<double>(r.jobs.size());
  report.metric("exec_mean_h", exec / jobs / 3600.0, "h");
  report.metric("eq6_cost_mean", cost / static_cast<double>(priced), "hops");
  // Recorded, not gated: on the backlogged Theta log the mean turnaround
  // spreads too far across seeds to bound (README.md).
  report.note("turnaround_mean_h", std::to_string(turnaround / jobs / 3600.0));
}

void untraced_mode(const RunOptions& run, const Setup& s, Report& report) {
  Untraced reference;
  run_untraced(s, reference);  // warm-up; its results are the reference
  Check& check = report.check("replay digest identical across repetitions");
  Repetitions reps;
  Untraced rep;
  const auto t0 = Clock::now();
  // Start no repetition that would end past --seconds (three always run).
  while (reps.count() < 3 || seconds_since(t0) + rep.wall_s <= run.seconds) {
    run_untraced(s, rep);
    if (reps.count() == 0 && run.inject == Inject::kCost)
      perturb_cost(rep.result);
    check.attempted += rep.result.jobs.size();
    check.failed += digest_mismatches(reference.result, rep.result);
    if (rep.event_count != reference.event_count) {
      ++check.failed;
      check.detail = "the event count differs between repetitions";
      break;
    }
    reps.add(rep.marks_ns, rep.start_latency_us);
  }
  reps.emit(report, static_cast<double>(s.log.size()),
            static_cast<double>(reference.event_count));
  emit_quality(report, reference.result);
  report.note("digest", std::to_string(digest(reference.result)));
}

void traced_mode(const RunOptions& run, const Setup& s, Report& report) {
  Untraced reference;
  run_untraced(s, reference);  // warm-up and reference event order
  Untraced rep;
  std::vector<double> walls;
  for (int i = 0; i < 2; ++i) {
    run_untraced(s, rep);
    walls.push_back(rep.wall_s);
  }
  const double untraced_s = median(walls);
  if (run.inject == Inject::kCost) perturb_cost(reference.result);

  Check& check = report.check("traced replay reproduces costs and end times");
  auto cache = std::make_shared<CommCache>(s.log.front().msize);
  ReplayCheck cold_check, warm_check;
  const LayerTrace cold =
      traced_sim_replay(s.tree, s.log, s.options, reference.events,
                        reference.result, cache, cold_check);
  const LayerTrace warm =
      traced_sim_replay(s.tree, s.log, s.options, reference.events,
                        reference.result, cache, warm_check);
  check.attempted = cold_check.ops + warm_check.ops;
  check.failed = cold_check.mismatch + warm_check.mismatch;

  Check& stats = report.check("traced replay cache counters equal the run's");
  const CacheStats& want = reference.result.cache_stats;
  stats.attempted = 1;
  stats.failed = (cold.cache.profile_hits != want.profile_hits ||
                  cold.cache.profile_misses != want.profile_misses ||
                  cold.cache.schedule_hits != want.schedule_hits ||
                  cold.cache.schedule_misses != want.schedule_misses)
                     ? 1
                     : 0;
  stats.detail = "profile hits/misses " + std::to_string(want.profile_hits) +
                 "/" + std::to_string(want.profile_misses);

  emit_layer_metrics(report, cold, warm);
  report.metric("sched.events", static_cast<double>(reference.event_count),
                "count");
  // Computed, not measured: the untraced wall time no layer span covers.
  report.metric("sched.self_s", untraced_s - cold.span_s(), "s");
  for (const char* name :
       {"serve.handle_us_mean", "serve.wait_us_mean", "serve.frames_in",
        "serve.rejected", "serve.timeouts", "serve.connections_dropped",
        "serve.idempotent_hits"})
    report.metric(name, 0.0,
                  std::string(name).ends_with("_us_mean") ? "us" : "count");
  report.metric("trace.overhead_frac",
                span_cost_s() * static_cast<double>(cold.span_count()) /
                    cold.wall_s,
                "ratio");
  report.note("untraced_s", std::to_string(untraced_s));
  report.note("traced_cold_s", std::to_string(cold.wall_s));
  report.note("traced_warm_s", std::to_string(warm.wall_s));
  report.note("spans_cold_s", std::to_string(cold.span_s()));
}

}  // namespace

Report run_replay_workload(const RunOptions& run) {
  const ReplayWorkload* w = nullptr;
  for (const ReplayWorkload& candidate : kWorkloads)
    if (run.workload == candidate.name) w = &candidate;
  if (w == nullptr)
    throw std::invalid_argument("unknown workload " + run.workload);

  Report report;
  std::vector<double> setup_s;
  Setup s = make_setup(*w, run);
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    s = make_setup(*w, run);
    setup_s.push_back(seconds_since(t0));
  }
  report.note("jobs", std::to_string(s.log.size()));
  if (run.trace) {
    traced_mode(run, s, report);
  } else {
    untraced_mode(run, s, report);
    report.metric("setup_s", median(setup_s), "s");
  }
  return report;
}

}  // namespace e2ebench
