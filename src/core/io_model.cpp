#include "core/io_model.hpp"

#include "util/assert.hpp"
#include "util/epoch_table.hpp"

namespace commsched {

IoModel::IoModel(const Tree& tree) : tree_(&tree) {}

// hot-path: no-alloc
double IoModel::contention(const ClusterState& state, NodeId n,
                           const LeafOverlay* overlay) const {
  const SwitchId leaf = tree_->leaf_of(n);
  const double io =
      state.leaf_io(leaf) + (overlay ? overlay->extra_comm(leaf) : 0);
  return io / static_cast<double>(state.leaf_nodes(leaf));
}

namespace {

/// IoCost summed run by run: `extra(leaf)` is the leaf's candidate
/// share of L_io. A run's nodes share one term, but the term is still added
/// once per node in node order, so the sum is the per-node sum bit for bit.
// hot-path: no-alloc
template <typename Extra>
double io_cost_by_runs(const Tree& tree, const ClusterState& state,
                       std::span<const NodeId> nodes, Extra&& extra) {
  const double d_io = 2.0 * tree.depth();
  double total = 0.0;
  tree.for_each_leaf_run(nodes, [&](SwitchId leaf, std::size_t,
                                    std::size_t len) {
    const double io = state.leaf_io(leaf) + extra(leaf);
    const double term =
        d_io * (1.0 + io / static_cast<double>(state.leaf_nodes(leaf)));
    for (std::size_t j = 0; j < len; ++j) total += term;
  });
  return total;
}

}  // namespace

// hot-path: no-alloc
double IoModel::allocation_cost(const ClusterState& state,
                                std::span<const NodeId> nodes) const {
  return io_cost_by_runs(*tree_, state, nodes, [](SwitchId) { return 0; });
}

// hot-path: no-alloc
double IoModel::candidate_cost(const ClusterState& state,
                               std::span<const NodeId> nodes,
                               bool io_intensive) const {
  if (!io_intensive) return allocation_cost(state, nodes);
  // The candidate's nodes per leaf over the whole list (a leaf may be
  // revisited), counted run by run in a per-thread epoch table.
  // thread-safe: thread_local — each thread counts with a private table.
  static thread_local EpochTable<int> count_of_leaf;
  count_of_leaf.new_epoch(static_cast<std::size_t>(tree_->leaf_count()));
  tree_->for_each_leaf_run(nodes, [&](SwitchId leaf, std::size_t,
                                      std::size_t len) {
    const auto li = static_cast<std::size_t>(tree_->leaf_index(leaf));
    const int prior = count_of_leaf.is_set(li) ? count_of_leaf.entry(li) : 0;
    count_of_leaf.put(li, prior + static_cast<int>(len));
  });
  return io_cost_by_runs(*tree_, state, nodes, [&](SwitchId leaf) {
    return count_of_leaf.entry(
        static_cast<std::size_t>(tree_->leaf_index(leaf)));
  });
}

// hot-path: no-alloc
double modified_runtime_with_io(double runtime, double comm_fraction,
                                double comm_ratio_num, double comm_ratio_den,
                                double io_fraction, double io_ratio_num,
                                double io_ratio_den,
                                const RuntimeModelOptions& options) {
  COMMSCHED_ASSERT_GE(runtime, 0.0);
  COMMSCHED_ASSERT(comm_fraction >= 0.0 && io_fraction >= 0.0);
  COMMSCHED_ASSERT_LE_MSG(comm_fraction + io_fraction, 1.0 + 1e-12,
                          "comm and I/O fractions exceed the runtime");
  const double rc = cost_ratio(comm_ratio_num, comm_ratio_den, options);
  const double rio = cost_ratio(io_ratio_num, io_ratio_den, options);
  const double t_comm = runtime * comm_fraction;
  const double t_io = runtime * io_fraction;
  const double t_compute = runtime - t_comm - t_io;
  return t_compute + t_comm * rc + t_io * rio;
}

}  // namespace commsched
