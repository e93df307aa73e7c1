// Micro-benchmark: the three Eq. 5/6 evaluation paths against each other —
// pair-by-pair reference, leaf-aggregated fast kernel (PR 1), and the
// shape-canonicalized LeafCommProfile path through a warm CommCache — on a
// Theta-like tree with a realistic background load.
//
// Two scenarios:
//   striped   allocation striped across all 12 leaves (worst case for leaf
//             dedup), rpn=1; times reference vs fast vs warm-profile;
//   block8    fixed leaf footprint — 8 leaves, block-contiguous, 2 ranks per
//             node — at 512/1024/4096 ranks; times fast vs cold profile
//             build vs warm profile. With the leaf footprint fixed, the
//             warm-profile cost per call should stay roughly flat as ranks
//             grow (the class count depends on the shape, not on p), while
//             the fast kernel still walks every rank pair. The reference
//             path is skipped here (minutes per call at 4096-rank alltoall).
//
// Outputs:
//   bench_out/micro_cost.csv           one row per (pattern, nranks), striped
//   bench_out/micro_cost_profile.csv   one row per (pattern, nranks), block8
//   BENCH_cost_model.json              perf snapshot at the repo root (run
//                                      from there) for regression tracking
//
// Run from the repo root: ./build/bench/bench_micro_cost
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "source_commit.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

// Allocation that stripes across leaves (greedy/balanced picks span leaves
// whenever a job outgrows one), so distinct leaf pairs are actually hit.
std::vector<NodeId> striped_allocation(const Tree& tree, int num_nodes,
                                       const ClusterState& state) {
  std::vector<NodeId> nodes;
  const auto leaves = tree.leaves();
  for (std::size_t round = 0; static_cast<int>(nodes.size()) < num_nodes;
       ++round) {
    bool any = false;
    for (const SwitchId leaf : leaves) {
      const auto attached = tree.nodes_of_leaf(leaf);
      if (round >= attached.size()) continue;
      const NodeId n = attached[round];
      if (!state.is_free(n)) continue;
      nodes.push_back(n);
      any = true;
      if (static_cast<int>(nodes.size()) == num_nodes) break;
    }
    if (!any) break;
  }
  return nodes;
}

// Fixed leaf footprint for the flat-scaling scenario: `num_nodes` nodes
// block-contiguous over the first 8 leaves (grow p by adding nodes/ranks to
// the same leaves; the canonical shape keeps exactly 8 slots).
std::vector<NodeId> block8_allocation(const Tree& tree, int num_nodes) {
  std::vector<NodeId> nodes;
  const int per_leaf = num_nodes / 8;
  const auto leaves = tree.leaves();
  for (int l = 0; l < 8; ++l) {
    const auto attached = tree.nodes_of_leaf(leaves[static_cast<std::size_t>(l)]);
    for (int i = 0; i < per_leaf; ++i)
      nodes.push_back(attached[static_cast<std::size_t>(i)]);
  }
  return nodes;
}

struct Row {
  std::string pattern;
  int nranks = 0;
  std::int64_t pair_messages = 0;
  double ref_ns = 0.0;
  double fast_ns = 0.0;
  double profile_warm_ns = 0.0;
};

struct ProfileRow {
  std::string pattern;
  int nranks = 0;
  std::size_t classes = 0;
  std::size_t steps = 0;
  double fast_ns = 0.0;
  double cold_ns = 0.0;
  double warm_ns = 0.0;
};

template <typename F>
double time_ns_per_call(F&& call, int min_reps) {
  // Warm up (first fast call sizes the scratch), then time enough reps for
  // a stable average.
  volatile double sink = call();
  const auto start = std::chrono::steady_clock::now();
  int reps = 0;
  double elapsed_ns = 0.0;
  do {
    for (int i = 0; i < min_reps; ++i) sink = call();
    reps += min_reps;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  } while (elapsed_ns < 2e8);  // at least 0.2 s per measurement
  (void)sink;
  return elapsed_ns / reps;
}

int run() {
  // Open both outputs up front so a wrong working directory fails in
  // milliseconds, not after the full measurement sweep.
  std::ofstream csv("bench_out/micro_cost.csv");
  std::ofstream profile_csv("bench_out/micro_cost_profile.csv");
  std::ofstream json("BENCH_cost_model.json");
  if (!csv || !profile_csv || !json) {
    std::cerr << "cannot open bench_out/micro_cost*.csv or "
                 "BENCH_cost_model.json (run from the repo root)\n";
    return 1;
  }

  const Tree tree = make_theta();  // 12 leaves x 366 nodes
  ClusterState state(tree);

  // ~40% background occupancy, half of it communication-intensive, spread
  // over the leaves like a mixed running workload.
  Rng rng(20200817);
  std::vector<NodeId> comm_nodes, quiet_nodes;
  for (NodeId n = 0; n < tree.node_count(); ++n) {
    const double p = rng.uniform_real(0.0, 1.0);
    if (p < 0.2)
      comm_nodes.push_back(n);
    else if (p < 0.4)
      quiet_nodes.push_back(n);
  }
  state.allocate(1, /*comm=*/true, comm_nodes);
  state.allocate(2, /*comm=*/false, quiet_nodes);

  const CostModel model(tree);  // unweighted Eq. 6, candidate overlay on
  CommCache cache(1 << 20);
  CostWorkspace workspace;

  constexpr Pattern kPatterns[] = {
      Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
      Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

  // --- striped scenario: reference vs fast vs warm profile ----------------
  constexpr int kRanks[] = {64, 512, 1024};
  std::vector<Row> rows;
  for (const int nranks : kRanks) {
    const auto nodes = striped_allocation(tree, nranks, state);
    if (static_cast<int>(nodes.size()) < nranks) continue;
    for (const Pattern pattern : kPatterns) {
      const auto schedule = make_schedule(pattern, nranks, 1 << 20);
      Row row;
      row.pattern = pattern_name(pattern);
      row.nranks = nranks;
      row.pair_messages = total_pair_messages(schedule);
      row.ref_ns = time_ns_per_call(
          [&] {
            return model.candidate_cost_reference(state, nodes, true,
                                                  schedule);
          },
          4);
      row.fast_ns = time_ns_per_call(
          [&] { return model.candidate_cost(state, nodes, true, schedule); },
          4);
      // Warm profile path, full caller sequence: canonicalize the shape,
      // hit the cache, evaluate per class.
      row.profile_warm_ns = time_ns_per_call(
          [&] {
            const ShapeKey key = make_shape_key(tree, nodes);
            const LeafCommProfile& profile = cache.profile(pattern, 1, key);
            return model.candidate_cost(state, nodes, true, profile,
                                        workspace);
          },
          16);
      rows.push_back(row);
      std::printf(
          "%-10s p=%5d pairs=%9lld ref=%11.1f fast=%11.1f warm=%9.1f ns  "
          "fast/warm=%6.1fx\n",
          row.pattern.c_str(), row.nranks,
          static_cast<long long>(row.pair_messages), row.ref_ns, row.fast_ns,
          row.profile_warm_ns, row.fast_ns / row.profile_warm_ns);
    }
  }

  // --- block8 scenario: fixed leaf footprint, growing rank count ----------
  constexpr int kBlockRanks[] = {512, 1024, 4096};
  constexpr int kRpn = 2;
  std::vector<ProfileRow> profile_rows;
  for (const int nranks : kBlockRanks) {
    const auto nodes = block8_allocation(tree, nranks / kRpn);
    const auto expanded = expand_ranks_per_node(nodes, kRpn);
    const ShapeKey key = make_shape_key(tree, nodes);
    for (const Pattern pattern : kPatterns) {
      const auto schedule = make_schedule(pattern, nranks, 1 << 20);
      ProfileRow row;
      row.pattern = pattern_name(pattern);
      row.nranks = nranks;
      const LeafCommProfile& warm_profile = cache.profile(pattern, kRpn, key);
      row.classes = warm_profile.classes.size();
      row.steps = warm_profile.steps.size();
      row.fast_ns = time_ns_per_call(
          [&] {
            return model.candidate_cost(state, expanded, true, schedule);
          },
          2);
      row.cold_ns = time_ns_per_call(
          [&] {
            const LeafCommProfile built =
                make_leaf_comm_profile(pattern, 1 << 20, key, kRpn);
            return static_cast<double>(built.steps.size());
          },
          1);
      row.warm_ns = time_ns_per_call(
          [&] {
            const ShapeKey k = make_shape_key(tree, nodes);
            const LeafCommProfile& profile = cache.profile(pattern, kRpn, k);
            return model.candidate_cost(state, nodes, true, profile,
                                        workspace);
          },
          16);
      profile_rows.push_back(row);
      std::printf(
          "%-10s p=%5d classes=%4zu/%4zu fast=%11.1f cold=%11.1f "
          "warm=%9.1f ns  fast/warm=%6.1fx\n",
          row.pattern.c_str(), row.nranks, row.classes, row.steps, row.fast_ns,
          row.cold_ns, row.warm_ns, row.fast_ns / row.warm_ns);
    }
  }

  csv << "pattern,nranks,pair_messages,reference_ns_per_call,fast_ns_per_call,"
         "profile_warm_ns_per_call,speedup_ref_over_fast,"
         "speedup_fast_over_warm\n";
  for (const Row& row : rows)
    csv << row.pattern << ',' << row.nranks << ',' << row.pair_messages << ','
        << row.ref_ns << ',' << row.fast_ns << ',' << row.profile_warm_ns
        << ',' << row.ref_ns / row.fast_ns << ','
        << row.fast_ns / row.profile_warm_ns << '\n';

  profile_csv << "pattern,nranks,classes,steps,fast_ns_per_call,"
                 "profile_cold_ns_per_call,profile_warm_ns_per_call,"
                 "speedup_fast_over_warm\n";
  for (const ProfileRow& row : profile_rows)
    profile_csv << row.pattern << ',' << row.nranks << ',' << row.classes
                << ',' << row.steps << ',' << row.fast_ns << ',' << row.cold_ns
                << ',' << row.warm_ns << ',' << row.fast_ns / row.warm_ns
                << '\n';

  json << "{\n"
       << "  \"bench\": \"micro_cost\",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"machine\": \"theta (12 leaves x 366 nodes)\",\n"
       << "  \"metric\": \"ns per candidate_cost call\",\n"
       << "  \"before\": \"pair-by-pair reference kernel "
          "(cost_impl_reference)\",\n"
       << "  \"after\": \"leaf-aggregated fast kernel (cost_impl)\",\n"
       << "  \"cases\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"pattern\": \"" << row.pattern
         << "\", \"nranks\": " << row.nranks
         << ", \"pair_messages\": " << row.pair_messages
         << ", \"before_ns\": " << row.ref_ns
         << ", \"after_ns\": " << row.fast_ns
         << ", \"profile_warm_ns\": " << row.profile_warm_ns
         << ", \"speedup\": " << row.ref_ns / row.fast_ns << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"profile_block8\": {\n"
       << "    \"scenario\": \"8 leaves, block-contiguous, 2 ranks/node — "
          "fixed leaf footprint\",\n"
       << "    \"before\": \"leaf-aggregated fast kernel (cost_impl)\",\n"
       << "    \"after\": \"warm CommCache LeafCommProfile path "
          "(cost_profile_impl)\",\n"
       << "    \"cases\": [\n";
  for (std::size_t i = 0; i < profile_rows.size(); ++i) {
    const ProfileRow& row = profile_rows[i];
    json << "      {\"pattern\": \"" << row.pattern
         << "\", \"nranks\": " << row.nranks
         << ", \"classes\": " << row.classes << ", \"steps\": " << row.steps
         << ", \"fast_ns\": " << row.fast_ns
         << ", \"profile_cold_ns\": " << row.cold_ns
         << ", \"profile_warm_ns\": " << row.warm_ns
         << ", \"speedup\": " << row.fast_ns / row.warm_ns << "}"
         << (i + 1 < profile_rows.size() ? ",\n" : "\n");
  }
  json << "    ]\n  }\n}\n";
  std::cout << "wrote bench_out/micro_cost.csv, bench_out/micro_cost_profile"
               ".csv and BENCH_cost_model.json\n";
  return 0;
}

}  // namespace
}  // namespace commsched

int main() { return commsched::run(); }
