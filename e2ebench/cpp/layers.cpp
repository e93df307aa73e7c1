#include "layers.hpp"

#include <algorithm>

#include "cluster/state.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "core/default_allocator.hpp"
#include "core/degradation_model.hpp"
#include "core/io_model.hpp"
#include "core/runtime_model.hpp"

namespace e2ebench {

using namespace commsched;

namespace {

const SaAllocator* as_sa(const Allocator& allocator) {
  return dynamic_cast<const SaAllocator*>(&allocator);
}

void count_sa(const SaAllocator* sa, LayerTrace& trace) {
  if (sa == nullptr) return;
  trace.sa_proposals += static_cast<std::uint64_t>(sa->last_proposals());
  trace.sa_accepts += static_cast<std::uint64_t>(sa->last_accepts());
}

// The simulator's dynamic-interference bookkeeping, rebuilt outside it: the
// running jobs on each leaf, and per job the factor last applied and the end
// time it implies. Drives the same DegradationModel::factor calls as
// Simulation::reevaluate/rescale and reproduces their end times.
class DynamicState {
 public:
  DynamicState(const Tree& tree, std::size_t jobs)
      : tree_(tree),
        leaf_jobs_(static_cast<std::size_t>(tree.leaf_count())),
        leaf_mark_(static_cast<std::size_t>(tree.leaf_count()), 0),
        job_mark_(jobs, 0) {}

  void add(std::size_t idx, std::span<const NodeId> nodes) {
    ++epoch_;
    for (const NodeId n : nodes) {
      const std::size_t li = leaf(n);
      if (leaf_mark_[li] == epoch_) continue;
      leaf_mark_[li] = epoch_;
      leaf_jobs_[li].push_back(idx);
    }
  }

  void remove(std::size_t idx, std::span<const NodeId> nodes) {
    ++epoch_;
    for (const NodeId n : nodes) {
      const std::size_t li = leaf(n);
      if (leaf_mark_[li] == epoch_) continue;
      leaf_mark_[li] = epoch_;
      std::erase(leaf_jobs_[li], idx);
    }
  }

  /// Every running job sharing a leaf with `nodes`, except `changed`, once.
  template <class Visit>
  void for_neighbours(std::size_t changed, std::span<const NodeId> nodes,
                      Visit&& visit) {
    ++epoch_;
    job_mark_[changed] = epoch_;
    for (const NodeId n : nodes) {
      const std::size_t li = leaf(n);
      if (leaf_mark_[li] == epoch_) continue;
      leaf_mark_[li] = epoch_;
      for (const std::size_t j : leaf_jobs_[li]) {
        if (job_mark_[j] == epoch_) continue;
        job_mark_[j] = epoch_;
        visit(j);
      }
    }
  }

 private:
  std::size_t leaf(NodeId n) const {
    return static_cast<std::size_t>(tree_.leaf_index(tree_.leaf_of(n)));
  }

  const Tree& tree_;
  std::vector<std::vector<std::size_t>> leaf_jobs_;
  std::vector<std::uint64_t> leaf_mark_;
  std::vector<std::uint64_t> job_mark_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

std::uint64_t LayerTrace::span_count() const {
  return select.calls + select_default.calls + shape_key.calls +
         profile.calls + cost.calls + cluster.calls + degradation.calls;
}

double LayerTrace::span_s() const {
  return select.s() + select_default.s() + shape_key.s() + profile.s() +
         cost.s() + cluster.s() + degradation.s();
}

LayerTrace traced_sim_replay(const Tree& tree, const JobLog& log,
                             const SchedOptions& options,
                             const std::vector<SimEvent>& events,
                             const SimResult& reference,
                             std::shared_ptr<CommCache> cache,
                             ReplayCheck& check) {
  const auto t0 = Clock::now();
  LayerTrace trace;
  ClusterState state(tree);
  // The audit level is pinned off, so SA runs with the configured stride,
  // exactly as Simulation's sa_options_for leaves it.
  const std::unique_ptr<Allocator> allocator =
      make_allocator(options.allocator, options.cost_options, cache,
                     options.sa);
  const SaAllocator* sa = as_sa(*allocator);
  const DefaultAllocator default_allocator;
  const CostModel pricing_model(tree, options.cost_options);
  const CostModel metric_model(
      tree, CostOptions{.hop_bytes = false,
                        .include_candidate =
                            options.cost_options.include_candidate});
  const RuntimeModelOptions runtime_opts =
      runtime_options_from_env(options.runtime_options);
  const DegradationModel degrade(tree, options.degradation, runtime_opts);
  const bool dynamic = options.degradation.enabled;
  const bool is_default = options.allocator == AllocatorKind::kDefault;
  CostWorkspace workspace;
  DegradationWorkspace degrade_ws;
  DynamicState running(tree, log.size());

  std::vector<LoadUnits> load(log.size());
  for (std::size_t i = 0; i < log.size(); ++i)
    load[i] = DegradationModel::quantize_load(
        log[i].comm_intensive && log[i].num_nodes >= 2, log[i].comm_fraction);
  std::vector<double> factor(log.size(), 1.0);
  std::vector<double> end_key(log.size(), 0.0);

  // Simulation::rescale: re-price one running job's degradation and move
  // its end by the ratio of the new factor to the old.
  const auto rescale = [&](double now, std::size_t j) {
    if (load[j] == 0) return;
    const JobId id = static_cast<JobId>(j) + 1;
    const double d_new = timed(trace.degradation, [&] {
      return degrade.factor(state, state.job_nodes(id), load[j], degrade_ws);
    });
    if (d_new == factor[j]) return;
    const double remaining = end_key[j] - now;
    end_key[j] = now + remaining * (d_new / factor[j]);
    factor[j] = d_new;
  };

  std::vector<NodeId> nodes, default_nodes, freed;
  for (const SimEvent& ev : events) {
    const std::size_t idx = ev.idx;
    const JobRecord& job = log[idx];
    const JobId id = static_cast<JobId>(idx) + 1;
    ++check.ops;
    if (!ev.start) {
      if (!same_bits(ev.time, end_key[idx]) ||
          !same_bits(ev.time, reference.jobs[idx].end_time))
        ++check.mismatch;
      timed(trace.cluster, [&] { state.release_into(id, freed); });
      ++trace.releases;
      trace.node_transitions += freed.size();
      if (dynamic) {
        running.remove(idx, freed);
        running.for_neighbours(idx, freed,
                               [&](std::size_t j) { rescale(ev.time, j); });
      }
      continue;
    }

    AllocationRequest request;
    request.job = id;
    request.num_nodes = job.num_nodes;
    request.comm_intensive = job.comm_intensive;
    request.pattern = job.pattern;
    request.msize = job.msize;
    request.io_intensive = job.io_intensive;
    request.comm_fraction = job.comm_fraction;
    request.io_fraction = job.io_fraction;
    const bool selected = timed(trace.select, [&] {
      return allocator->select_into(state, request, nodes);
    });
    if (!selected) {
      // The run started this job here, so the replay has diverged and
      // cannot continue meaningfully.
      check.mismatch += events.size();
      break;
    }
    count_sa(sa, trace);
    const bool price_comm = job.comm_intensive && job.num_nodes >= 2;
    if (job.io_intensive && job.io_fraction > 0.0) {
      // The workloads carry no I/O-intensive jobs; the I/O pricing path is
      // not mirrored.
      ++check.mismatch;
    }
    if (!is_default && price_comm)
      timed(trace.select_default, [&] {
        return default_allocator.select_into(state, request, default_nodes);
      });

    double cost = 0.0, cost_default = 0.0, priced = 0.0, priced_default = 0.0;
    if (price_comm) {
      const ShapeKey key =
          timed(trace.shape_key, [&] { return make_shape_key(tree, nodes); });
      const LeafCommProfile& profile =
          timed(trace.profile, [&]() -> const LeafCommProfile& {
            return cache->profile(job.pattern, /*ranks_per_node=*/1, key);
          });
      cost = timed(trace.cost, [&] {
        return metric_model.candidate_cost(state, nodes, job.comm_intensive,
                                           profile, workspace);
      });
      if (is_default) {
        cost_default = cost;
      } else {
        const ShapeKey default_key = timed(trace.shape_key, [&] {
          return make_shape_key(tree, default_nodes);
        });
        const LeafCommProfile& default_profile =
            timed(trace.profile, [&]() -> const LeafCommProfile& {
              return cache->profile(job.pattern, 1, default_key);
            });
        cost_default = timed(trace.cost, [&] {
          return metric_model.candidate_cost(state, default_nodes,
                                             job.comm_intensive,
                                             default_profile, workspace);
        });
        priced = timed(trace.cost, [&] {
          return pricing_model.candidate_cost(state, nodes, job.comm_intensive,
                                              profile, workspace);
        });
        priced_default = timed(trace.cost, [&] {
          return pricing_model.candidate_cost(state, default_nodes,
                                              job.comm_intensive,
                                              default_profile, workspace);
        });
      }
    }
    double runtime = job.runtime;
    if (!is_default && price_comm)
      runtime = modified_runtime_with_io(job.runtime, job.comm_fraction,
                                         priced, priced_default, 0.0, 0.0,
                                         0.0, runtime_opts);

    timed(trace.cluster, [&] {
      state.allocate(id, job.comm_intensive, nodes, job.io_intensive,
                     load[idx]);
    });
    ++trace.allocs;
    trace.node_transitions += nodes.size();
    factor[idx] = 1.0;
    end_key[idx] = ev.time + runtime;
    if (dynamic && load[idx] > 0) {
      factor[idx] = timed(trace.degradation, [&] {
        return degrade.factor(state, nodes, load[idx], degrade_ws);
      });
      end_key[idx] = ev.time + runtime * factor[idx];
    }
    if (dynamic) running.add(idx, nodes);

    const JobResult& ref = reference.jobs[idx];
    if (!same_bits(cost, ref.cost) ||
        !same_bits(cost_default, ref.cost_default))
      ++check.mismatch;

    if (dynamic && load[idx] > 0)
      running.for_neighbours(idx, nodes,
                             [&](std::size_t j) { rescale(ev.time, j); });
  }
  trace.cache = cache->stats();
  trace.wall_s = seconds_since(t0);
  return trace;
}

LayerTrace traced_service_replay(const Tree& tree,
                                 const serve::LoadStream& stream,
                                 const serve::ServiceOptions& options,
                                 const std::vector<serve::Reply>& replies,
                                 std::shared_ptr<CommCache> cache,
                                 ReplayCheck& check) {
  const auto t0 = Clock::now();
  LayerTrace trace;
  ClusterState state(tree);
  const std::unique_ptr<Allocator> allocator = make_allocator(
      options.default_allocator, options.cost_options, cache, options.sa);
  const SaAllocator* sa = as_sa(*allocator);
  const CostModel metric_model(
      tree, CostOptions{.hop_bytes = false,
                        .include_candidate =
                            options.cost_options.include_candidate});
  CostWorkspace workspace;
  std::vector<NodeId> nodes, freed;

  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const serve::Request& req = stream.requests[i];
    const serve::Reply& reply = replies[i];
    ++check.ops;
    if (req.type == serve::MsgType::kRelease) {
      if (!state.has_job(req.job)) {
        if (reply.status != serve::ServeStatus::kUnknownJob) ++check.mismatch;
        continue;
      }
      timed(trace.cluster, [&] { state.release_into(req.job, freed); });
      ++trace.releases;
      trace.node_transitions += freed.size();
      if (reply.status != serve::ServeStatus::kOk ||
          reply.freed != freed.size())
        ++check.mismatch;
      continue;
    }
    if (req.type != serve::MsgType::kAlloc ||
        req.allocator != serve::kServerAllocator) {
      ++check.mismatch;  // the streams carry plain default-policy allocs only
      continue;
    }
    AllocationRequest areq;
    areq.job = req.job;
    areq.num_nodes = req.num_nodes;
    areq.comm_intensive = req.comm_intensive;
    areq.pattern = req.pattern;
    areq.msize = req.msize;
    areq.io_intensive = req.io_intensive;
    areq.comm_fraction = req.comm_fraction;
    areq.io_fraction = req.io_fraction;
    const bool selected = timed(trace.select, [&] {
      return allocator->select_into(state, areq, nodes);
    });
    if (!selected) {
      if (reply.status != serve::ServeStatus::kNoFit) ++check.mismatch;
      continue;
    }
    count_sa(sa, trace);
    const bool price_comm = req.comm_intensive && req.num_nodes >= 2;
    double cost = 0.0;
    if (price_comm) {
      const ShapeKey key =
          timed(trace.shape_key, [&] { return make_shape_key(tree, nodes); });
      const LeafCommProfile& profile =
          timed(trace.profile, [&]() -> const LeafCommProfile& {
            return cache->profile(req.pattern, /*ranks_per_node=*/1, key);
          });
      cost = timed(trace.cost, [&] {
        return metric_model.candidate_cost(state, nodes,
                                           /*comm_intensive=*/true, profile,
                                           workspace);
      });
    }
    const LoadUnits load =
        DegradationModel::quantize_load(price_comm, req.comm_fraction);
    timed(trace.cluster, [&] {
      state.allocate(req.job, req.comm_intensive, nodes, req.io_intensive,
                     load);
    });
    ++trace.allocs;
    trace.node_transitions += nodes.size();
    const bool same_nodes =
        reply.nodes.size() == nodes.size() &&
        std::equal(nodes.begin(), nodes.end(), reply.nodes.begin(),
                   [](NodeId a, std::uint32_t b) {
                     return static_cast<std::uint32_t>(a) == b;
                   });
    if (reply.status != serve::ServeStatus::kOk || !same_nodes ||
        !same_bits(cost, reply.cost))
      ++check.mismatch;
  }
  trace.cache = cache->stats();
  trace.wall_s = seconds_since(t0);
  return trace;
}

double span_cost_s() {
  constexpr int kSpans = 200000;
  Span span;
  volatile int sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) timed(span, [&] { sink = i; });
  return seconds_since(t0) / kSpans;
}

void emit_layer_metrics(Report& report, const LayerTrace& cold,
                        const LayerTrace& warm) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t lookups =
      cold.cache.profile_hits + cold.cache.profile_misses;
  report.metric("collectives.profile.hits", count(cold.cache.profile_hits),
                "count");
  report.metric("collectives.profile.misses", count(cold.cache.profile_misses),
                "count");
  report.metric("collectives.profile.hit_rate",
                lookups == 0 ? 0.0
                             : count(cold.cache.profile_hits) / count(lookups),
                "ratio");
  // Profile builds happen inside the pricing lookups and inside select
  // (the pricing policies price their candidates); the warm pass does the
  // same calls with every profile cached.
  report.metric("collectives.profile.cold_s",
                std::max(0.0, cold.profile.s() - warm.profile.s()), "s");
  report.metric("collectives.shape_key.calls", count(cold.shape_key.calls),
                "count");
  report.metric("collectives.shape_key.s", cold.shape_key.s(), "s");
  report.metric("core.select.calls", count(cold.select.calls), "count");
  report.metric("core.select.s", cold.select.s(), "s");
  report.metric("core.select.cold_s",
                std::max(0.0, cold.select.s() - warm.select.s()), "s");
  report.metric("core.select_default.calls", count(cold.select_default.calls),
                "count");
  report.metric("core.select_default.s", cold.select_default.s(), "s");
  report.metric("core.sa.proposals", count(cold.sa_proposals), "count");
  report.metric("core.sa.accepts", count(cold.sa_accepts), "count");
  report.metric("core.sa.accept_ratio",
                cold.sa_proposals == 0
                    ? 0.0
                    : count(cold.sa_accepts) / count(cold.sa_proposals),
                "ratio");
  report.metric("core.cost.calls", count(cold.cost.calls), "count");
  report.metric("core.cost.s", cold.cost.s(), "s");
  report.metric("core.degradation.calls", count(cold.degradation.calls),
                "count");
  report.metric("core.degradation.s", cold.degradation.s(), "s");
  report.metric("cluster.allocs", count(cold.allocs), "count");
  report.metric("cluster.releases", count(cold.releases), "count");
  report.metric("cluster.node_transitions", count(cold.node_transitions),
                "count");
  report.metric("cluster.s", cold.cluster.s(), "s");
}

}  // namespace e2ebench
