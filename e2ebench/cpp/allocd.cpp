// The allocd-closed workload: an in-process serve::Server (one strand
// worker) on a unix socket, and one client with one request in flight, as
// a serial slurmctld would call it. The stream is serve::build_stream's
// alloc/release mix of patterns and message sizes, jobs up to 128 nodes on
// Theta. Threads: the client (main), the server's accept and connection
// reader threads, and its one strand worker. All of them share the CPU the
// run starts on: on a virtual machine a wakeup across CPUs costs tens of
// microseconds and stalls for milliseconds whenever the host deschedules
// the target CPU, which would swamp the service's own time (README.md).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "serve/server.hpp"
#include "topology/builders.hpp"

namespace e2ebench {

using namespace commsched;

namespace {

struct Setup {
  Tree tree;
  serve::LoadStream stream;
  serve::ServiceOptions service;
  serve::ServerOptions server;
};

Setup make_setup(const RunOptions& run) {
  Setup s{make_machine("theta"), {}, {}, {}};
  serve::LoadSpec spec;
  spec.seed = mix_seed(run.seed, 3);
  spec.requests = run.scale == Scale::kTiny ? 2000 : 50000;
  spec.min_exp = 0;
  spec.max_exp = 7;  // up to 128 nodes
  spec.comm_percent = 0.9;
  spec.comm_fraction = 0.5;
  spec.io_percent = 0.1;
  spec.hold_mean = 64.0;
  spec.deadline_ms = 0;
  spec.allocator = serve::kServerAllocator;
  spec.arrival_rate = 0.0;
  s.stream = serve::build_stream(spec, s.tree.node_count());
  s.service.default_allocator = AllocatorKind::kAdaptive;
  s.service.cost_options = CostOptions{.hop_bytes = true};
  s.service.audit = AuditLevel::kOff;
  s.server.socket_path =
      run.socket_dir + "/allocd-" + std::to_string(::getpid()) + ".sock";
  s.server.threads = 1;
  s.server.queue_depth = 1024;
  s.server.batch = 16;
  s.server.default_deadline_ms = 0;
  s.server.idle_timeout_ms = 30000;
  s.server.write_timeout_ms = 5000;
  return s;
}

/// One pass of the stream against a fresh server.
struct Pass {
  double wall_s = 0.0;
  std::vector<std::int64_t> marks_ns;  ///< start and end
  std::vector<double> latency_us;
  std::vector<serve::Reply> replies;  ///< by stream position
  std::vector<std::string> log;       ///< canonical lines ("" = missing)
  std::uint64_t ok_allocs = 0;
  std::uint64_t no_fit = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  serve::ServerStats stats;
  std::uint64_t idempotent_hits = 0;
  std::string error;
};

Pass run_pass(const Setup& s) {
  Pass p;
  const std::size_t n = s.stream.requests.size();
  p.latency_us.reserve(n);
  p.replies.resize(n);
  p.log.assign(n, "");
  serve::Server server(s.tree, s.service, s.server);
  if (!server.start()) {
    p.error = "server start: " + server.error();
    return p;
  }
  serve::Client client;
  if (!client.connect(s.server.socket_path)) {
    p.error = "connect: " + client.error();
    server.drain();
    return p;
  }
  const auto t0 = Clock::now();
  p.marks_ns.push_back(now_ns());
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t sent = now_ns();
    if (!client.call(s.stream.requests[i], p.replies[i], 10000)) {
      p.error = "request " + std::to_string(i) + ": " + client.error();
      break;
    }
    p.latency_us.push_back(static_cast<double>(now_ns() - sent) * 1e-3);
    const serve::Reply& r = p.replies[i];
    p.log[i] = serve::canonical_reply_line(r);
    if (r.type == serve::MsgType::kAllocReply) {
      if (r.status == serve::ServeStatus::kOk) ++p.ok_allocs;
      if (r.status == serve::ServeStatus::kNoFit) ++p.no_fit;
    }
    if (r.status == serve::ServeStatus::kRejected) ++p.rejected;
    if (r.status == serve::ServeStatus::kTimeout) ++p.timeouts;
  }
  p.marks_ns.push_back(now_ns());
  p.wall_s = seconds_since(t0);
  client.close();
  server.drain();
  p.stats = server.stats();
  p.idempotent_hits = server.service().counters().idempotent_hits;
  return p;
}

/// Replies that are missing or differ from the reference log, plus every
/// rejection, timeout and no-fit (none is expected on this stream).
std::uint64_t pass_failures(const Pass& p,
                            const std::vector<std::string>& reference) {
  std::uint64_t bad = p.rejected + p.timeouts + p.no_fit;
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (p.log[i].empty() || p.log[i] != reference[i]) ++bad;
  return bad;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double eq6_cost_mean(const Setup& s, const std::vector<serve::Reply>& replies) {
  double cost = 0.0;
  std::size_t priced = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const serve::Request& q = s.stream.requests[i];
    if (q.type == serve::MsgType::kAlloc && q.comm_intensive &&
        q.num_nodes >= 2 && replies[i].status == serve::ServeStatus::kOk) {
      cost += replies[i].cost;
      ++priced;
    }
  }
  return priced == 0 ? kNotApplicable : cost / static_cast<double>(priced);
}

void untraced_mode(const RunOptions& run, const Setup& s,
                   const std::vector<std::string>& reference, Report& report) {
  Check& check = report.check("allocd reply log equals serve::reference_log");
  const Pass warm = run_pass(s);  // warm-up pass, checked like the others
  check.attempted += reference.size();
  check.failed += pass_failures(warm, reference);
  if (!warm.error.empty()) check.detail = warm.error;
  Repetitions reps{.reduce = Reduce::kFastest};
  const auto t0 = Clock::now();
  double last_s = warm.wall_s;
  // Start no pass that would end past --seconds (three always run).
  while (reps.count() < 3 || seconds_since(t0) + last_s <= run.seconds) {
    Pass p = run_pass(s);
    last_s = p.wall_s;
    if (reps.count() == 0 && run.inject == Inject::kDropReply &&
        !p.log.empty())
      p.log[p.log.size() / 2].clear();
    check.attempted += reference.size();
    check.failed += pass_failures(p, reference);
    if (!p.error.empty()) check.detail = p.error;
    if (p.marks_ns.size() < 2) break;  // the server did not start
    reps.add(p.marks_ns, p.latency_us);
  }
  reps.emit(report, static_cast<double>(warm.ok_allocs),
            static_cast<double>(reference.size()));
  report.metric("exec_mean_h", kNotApplicable, "h");
  report.metric("eq6_cost_mean", eq6_cost_mean(s, warm.replies), "hops");
  report.note("not_applicable", "exec_mean_h");
}

void traced_mode(const RunOptions& run, const Setup& s,
                 const std::vector<std::string>& reference, Report& report) {
  Check& check = report.check("allocd reply log equals serve::reference_log");
  run_pass(s);  // warm-up
  Pass p = run_pass(s);
  if (run.inject == Inject::kDropReply && !p.log.empty())
    p.log[p.log.size() / 2].clear();
  check.attempted = reference.size();
  check.failed = pass_failures(p, reference);
  check.detail = p.error;

  // AllocatorService::handle inline, one span per request.
  Check& inline_check = report.check("inline service equals reference log");
  serve::AllocatorService service(s.tree, s.service);
  std::vector<serve::Reply> replies(s.stream.requests.size());
  Span handle;
  for (std::size_t i = 0; i < replies.size(); ++i)
    timed(handle, [&] { service.handle(s.stream.requests[i], replies[i]); });
  inline_check.attempted = replies.size();
  for (std::size_t i = 0; i < replies.size(); ++i)
    if (serve::canonical_reply_line(replies[i]) != reference[i])
      ++inline_check.failed;

  Check& layer_check = report.check("traced replay reproduces every reply");
  auto cache = std::make_shared<CommCache>(s.service.base_msize);
  ReplayCheck cold_check, warm_check;
  const LayerTrace cold = traced_service_replay(s.tree, s.stream, s.service,
                                                replies, cache, cold_check);
  const LayerTrace warm = traced_service_replay(s.tree, s.stream, s.service,
                                                replies, cache, warm_check);
  layer_check.attempted = cold_check.ops + warm_check.ops;
  layer_check.failed = cold_check.mismatch + warm_check.mismatch;

  emit_layer_metrics(report, cold, warm);
  report.metric("sched.events", 0.0, "count");
  report.metric("sched.self_s", 0.0, "s");
  const double handle_us =
      handle.s() * 1e6 /
      static_cast<double>(std::max<std::uint64_t>(1, handle.calls));
  report.metric("serve.handle_us_mean", handle_us, "us");
  report.metric("serve.wait_us_mean", mean(p.latency_us) - handle_us, "us");
  report.metric("serve.frames_in", static_cast<double>(p.stats.frames_in),
                "count");
  report.metric("serve.rejected", static_cast<double>(p.stats.rejected),
                "count");
  report.metric("serve.timeouts", static_cast<double>(p.stats.timeouts),
                "count");
  report.metric("serve.connections_dropped",
                static_cast<double>(p.stats.connections_dropped), "count");
  report.metric("serve.idempotent_hits",
                static_cast<double>(p.idempotent_hits), "count");
  report.metric("trace.overhead_frac",
                span_cost_s() * static_cast<double>(cold.span_count()) /
                    cold.wall_s,
                "ratio");
  report.note("client_latency_us_mean", std::to_string(mean(p.latency_us)));
}

}  // namespace

Report run_allocd_workload(const RunOptions& run) {
  Report report;
  const int cpu = ::sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || ::sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("cannot pin the allocd workload to one CPU");
  report.note("cpu", std::to_string(cpu));
  std::vector<double> setup_s;
  // Set-up: the machine, the stream, and a started server with a connected
  // client (torn down again untimed).
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    const Setup s = make_setup(run);
    serve::Server server(s.tree, s.service, s.server);
    serve::Client client;
    const bool up = server.start() && client.connect(s.server.socket_path);
    setup_s.push_back(seconds_since(t0));
    client.close();
    server.drain();
    if (!up)
      throw std::runtime_error("allocd set-up failed: " + server.error());
  }
  const Setup s = make_setup(run);
  const std::vector<std::string> reference =
      serve::reference_log(s.stream, s.tree, s.service);
  report.note("requests", std::to_string(s.stream.requests.size()));
  if (run.trace) {
    traced_mode(run, s, reference, report);
  } else {
    untraced_mode(run, s, reference, report);
    report.metric("setup_s", median(setup_s), "s");
  }
  return report;
}

}  // namespace e2ebench
