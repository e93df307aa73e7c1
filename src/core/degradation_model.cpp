#include "core/degradation_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace commsched {

DegradationModel::DegradationModel(const Tree& tree,
                                   const DegradationOptions& options,
                                   const RuntimeModelOptions& clamps)
    : tree_(&tree), options_(options), max_factor_(clamps.max_ratio) {
  COMMSCHED_ASSERT_GE_MSG(options.alpha, 0.0,
                          "degradation sensitivity must be non-negative");
  COMMSCHED_ASSERT_GE_MSG(max_factor_, 1.0,
                          "max_ratio below 1 would make colocation a speedup");
}

LoadUnits DegradationModel::quantize_load(bool comm_intensive,
                                          double comm_fraction) {
  if (!comm_intensive) return 0;
  COMMSCHED_ASSERT(comm_fraction >= 0.0 && comm_fraction <= 1.0);
  return static_cast<LoadUnits>(
      std::llround(comm_fraction * static_cast<double>(kLoadUnitScale)));
}

// hot-path: no-alloc
double DegradationModel::external_load(const ClusterState& state,
                                       std::span<const NodeId> nodes,
                                       LoadUnits own_load,
                                       DegradationWorkspace& ws) const {
  if (nodes.empty()) return 0.0;
  const auto leaf_count = static_cast<std::size_t>(tree_->leaf_count());
  if (ws.per_leaf.size() != leaf_count) {
    // contract-trusted: no-alloc: workspace warms up once per tree, then
    // every evaluation reuses the stamped arrays
    ws.per_leaf.assign(leaf_count, 0);
    ws.stamp.assign(leaf_count, 0);
    ws.touched.reserve(leaf_count);
    ws.epoch = 0;
  }
  if (++ws.epoch == 0) {
    std::fill(ws.stamp.begin(), ws.stamp.end(), 0);
    ws.epoch = 1;
  }
  ws.touched.clear();
  // Allocations list a leaf's nodes together: stamp and count once per run
  // of nodes on the same leaf.
  tree_->for_each_leaf_run(nodes, [&](SwitchId leaf, std::size_t,
                                      std::size_t run) {
    const auto li = static_cast<std::size_t>(tree_->leaf_index(leaf));
    if (ws.stamp[li] != ws.epoch) {
      ws.stamp[li] = ws.epoch;
      ws.per_leaf[li] = 0;
      // contract-trusted: no-alloc: capacity reserved to leaf_count above
      ws.touched.push_back(static_cast<std::int32_t>(li));
    }
    ws.per_leaf[li] += static_cast<std::int32_t>(run);
  });
  // Node-weighted mean over the job's leaves of the other jobs' load per
  // attached node. Summed in ws.touched order — first appearance in `nodes`
  // order — which is identical for any two evaluations over the same
  // allocation, keeping the floating-point result reproducible.
  const double inv_job_nodes = 1.0 / static_cast<double>(nodes.size());
  double external = 0.0;
  for (const std::int32_t li : ws.touched) {
    const SwitchId leaf = tree_->leaves()[static_cast<std::size_t>(li)];
    const auto here = static_cast<LoadUnits>(
        ws.per_leaf[static_cast<std::size_t>(li)]);
    const LoadUnits others = state.leaf_load(leaf) - here * own_load;
    COMMSCHED_ASSERT_GE_MSG(others, 0,
                            "co-located load underflow: own contribution "
                            "exceeds the leaf accumulator");
    if (others == 0) continue;
    const double weight = static_cast<double>(here) * inv_job_nodes;
    const double per_node =
        static_cast<double>(others) /
        (static_cast<double>(kLoadUnitScale) *
         static_cast<double>(state.leaf_nodes(leaf)));
    external += weight * per_node;
  }
  return external;
}

// hot-path: no-alloc
double DegradationModel::factor(const ClusterState& state,
                                std::span<const NodeId> nodes,
                                LoadUnits own_load,
                                DegradationWorkspace& ws) const {
  if (own_load <= 0 || options_.alpha == 0.0) return 1.0;
  const double intensity =
      static_cast<double>(own_load) / static_cast<double>(kLoadUnitScale);
  const double external = external_load(state, nodes, own_load, ws);
  const double raw = 1.0 + options_.alpha * intensity * external;
  return std::clamp(raw, 1.0, max_factor_);
}

}  // namespace commsched
