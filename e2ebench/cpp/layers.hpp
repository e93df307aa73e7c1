// Outside-in per-layer trace.
//
// The traced runs replay a finished run's decisions through the library's
// public layer calls, with the arguments the program itself passes, and
// time every call as a span:
//
//   replays  the untraced simulator run's start/end event order, mirroring
//            Simulation::start_job (select, the default baseline select,
//            shape keys, profile lookups, Eq. 6 pricing, the ClusterState
//            commit/release and dynamic degradation re-evaluation);
//   allocd   the request stream, mirroring AllocatorService::handle_alloc
//            and handle_release.
//
// Every replay checks itself against the run it mirrors (per-job costs and
// end times, reply costs and node lists), so the spans are known to time
// the same work the program did.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "common.hpp"
#include "sched/simulator.hpp"
#include "serve/loadgen.hpp"

namespace e2ebench {

/// Time and count of one layer's calls.
struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  double s() const { return static_cast<double>(ns) * 1e-9; }
};

/// Run `f` as one span of `span`.
template <class F>
decltype(auto) timed(Span& span, F&& f) {
  struct Stop {
    Span& span;
    std::int64_t t0;
    ~Stop() {
      span.ns += now_ns() - t0;
      ++span.calls;
    }
  } stop{span, now_ns()};
  return f();
}

/// Spans and counts of one traced replay pass.
struct LayerTrace {
  Span select;          ///< policy Allocator::select_into
  Span select_default;  ///< DefaultAllocator::select_into (Eq. 7 baseline)
  Span shape_key;       ///< make_shape_key
  Span profile;         ///< CommCache::profile
  Span cost;            ///< CostModel::candidate_cost
  Span cluster;         ///< ClusterState::allocate / release_into
  Span degradation;     ///< DegradationModel::factor
  std::uint64_t allocs = 0;
  std::uint64_t releases = 0;
  std::uint64_t node_transitions = 0;
  std::uint64_t sa_proposals = 0;
  std::uint64_t sa_accepts = 0;
  commsched::CommCache::Stats cache;  ///< cache counters at the pass end
  double wall_s = 0.0;  ///< the whole pass, spans and replay logic

  std::uint64_t span_count() const;
  /// Sum of every layer's span time.
  double span_s() const;
};

/// Mismatches a traced replay found against the run it mirrors.
struct ReplayCheck {
  std::uint64_t ops = 0;       ///< starts/allocs and ends/releases replayed
  std::uint64_t mismatch = 0;  ///< operations whose outcome differed
};

/// A start or end event of the untraced simulator run.
struct SimEvent {
  std::uint32_t idx = 0;  ///< index into the job log
  bool start = false;
  double time = 0.0;
};

/// Replay the simulator run `reference` (whose event order is `events`)
/// through the layer calls of Simulation::start_job. `cache` is the pass's
/// profile cache: fresh for the cold pass, the cold pass's for the warm.
LayerTrace traced_sim_replay(const commsched::Tree& tree,
                             const commsched::JobLog& log,
                             const commsched::SchedOptions& options,
                             const std::vector<SimEvent>& events,
                             const commsched::SimResult& reference,
                             std::shared_ptr<commsched::CommCache> cache,
                             ReplayCheck& check);

/// Replay `stream` through the layer calls of AllocatorService::handle and
/// compare with `replies`, the service's answers to the same stream.
LayerTrace traced_service_replay(
    const commsched::Tree& tree, const commsched::serve::LoadStream& stream,
    const commsched::serve::ServiceOptions& options,
    const std::vector<commsched::serve::Reply>& replies,
    std::shared_ptr<commsched::CommCache> cache, ReplayCheck& check);

/// Measured cost of one span's own bookkeeping (two clock reads and the
/// accumulation), in seconds.
double span_cost_s();

/// Emit the per-layer metrics common to every workload from a cold and a
/// warm pass of the same replay.
void emit_layer_metrics(Report& report, const LayerTrace& cold,
                        const LayerTrace& warm);

}  // namespace e2ebench
