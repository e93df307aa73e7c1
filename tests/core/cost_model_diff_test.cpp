// Differential test of the leaf-aggregated fast cost kernel against the
// pair-by-pair reference implementation (cost_impl_reference): randomized
// trees (varying fan-out and depth, irregular leaf sizes), random background
// load, random allocations (including multi-rank expansions), all five
// Pattern schedules, both CostOptions flags, and both the committed
// (allocation_cost) and candidate (candidate_cost) paths — the fast kernels
// count the candidate's entries per leaf slot, the reference overlays them
// through a LeafOverlay. The two kernels perform the same floating-point
// operations in the same order, so the results must agree bit-for-bit; we
// assert EXPECT_DOUBLE_EQ (4 ulps) which is stricter than the 1e-12
// acceptance bound.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"
#include "topology/tree.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

constexpr Pattern kAllPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

// Random tree: depth 2 or 3, irregular fan-out, irregular leaf sizes.
Tree random_tree(Rng& rng) {
  TreeBuilder builder;
  const bool three_level = rng.bernoulli(0.5);
  int node = 0;
  int leaf = 0;
  if (!three_level) {
    const int leaves = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<SwitchId> leaf_ids;
    for (int l = 0; l < leaves; ++l) {
      const int width = static_cast<int>(rng.uniform_int(1, 8));
      std::vector<std::string> names;
      for (int n = 0; n < width; ++n) names.push_back("n" + std::to_string(node++));
      leaf_ids.push_back(builder.add_leaf("s" + std::to_string(leaf++), names));
    }
    builder.add_switch("root", leaf_ids);
  } else {
    const int groups = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<SwitchId> group_ids;
    for (int g = 0; g < groups; ++g) {
      const int leaves = static_cast<int>(rng.uniform_int(1, 4));
      std::vector<SwitchId> leaf_ids;
      for (int l = 0; l < leaves; ++l) {
        const int width = static_cast<int>(rng.uniform_int(1, 6));
        std::vector<std::string> names;
        for (int n = 0; n < width; ++n)
          names.push_back("n" + std::to_string(node++));
        leaf_ids.push_back(builder.add_leaf("s" + std::to_string(leaf++), names));
      }
      group_ids.push_back(
          builder.add_switch("g" + std::to_string(g), leaf_ids));
    }
    builder.add_switch("root", group_ids);
  }
  return builder.build();
}

// Random background load: some communication-intensive, some not.
void random_occupy(ClusterState& state, Rng& rng) {
  JobId job = 1'000;
  std::vector<NodeId> comm_nodes, quiet_nodes;
  for (NodeId n = 0; n < state.tree().node_count(); ++n) {
    const double p = rng.uniform_real(0.0, 1.0);
    if (p < 0.25)
      comm_nodes.push_back(n);
    else if (p < 0.45)
      quiet_nodes.push_back(n);
  }
  if (!comm_nodes.empty()) state.allocate(job++, /*comm=*/true, comm_nodes);
  if (!quiet_nodes.empty()) state.allocate(job++, /*comm=*/false, quiet_nodes);
}

// Random rank -> node map over the whole machine (any nodes, free or busy:
// the cost arithmetic does not depend on availability). Multi-rank variants
// repeat nodes, exercising the same-node zero-hop short-circuit.
std::vector<NodeId> random_allocation(const Tree& tree, Rng& rng, int nranks,
                                      bool multirank) {
  const auto picks = rng.sample_without_replacement(
      static_cast<std::size_t>(tree.node_count()),
      std::min<std::size_t>(static_cast<std::size_t>(nranks),
                            static_cast<std::size_t>(tree.node_count())));
  std::vector<NodeId> nodes;
  for (const std::size_t p : picks) nodes.push_back(static_cast<NodeId>(p));
  if (multirank) {
    const int rpn = 2;
    nodes = expand_ranks_per_node(nodes, rpn);
    nodes.resize(static_cast<std::size_t>(nranks), nodes.front());
  } else {
    while (static_cast<int>(nodes.size()) < nranks)
      nodes.push_back(nodes.back());  // saturate tiny machines with repeats
  }
  nodes.resize(static_cast<std::size_t>(nranks));
  rng.shuffle(nodes);
  return nodes;
}

TEST(CostModelDiffTest, FastKernelMatchesReferenceEverywhere) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0xC05'7D1FF + seed);
    const Tree tree = random_tree(rng);
    ClusterState state(tree);
    random_occupy(state, rng);

    for (const bool hop_bytes : {false, true}) {
      for (const bool include_candidate : {false, true}) {
        const CostModel model(tree, CostOptions{
                                        .hop_bytes = hop_bytes,
                                        .include_candidate = include_candidate,
                                    });
        for (const Pattern pattern : kAllPatterns) {
          const int nranks = static_cast<int>(
              rng.uniform_int(2, 2 * tree.node_count()));
          const bool multirank = rng.bernoulli(0.3);
          const auto nodes = random_allocation(tree, rng, nranks, multirank);
          const auto schedule =
              make_schedule(pattern, nranks, rng.uniform_real(1.0, 4096.0));

          SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" +
                       pattern_name(pattern) + " nranks=" +
                       std::to_string(nranks) +
                       " hop_bytes=" + std::to_string(hop_bytes) +
                       " include_candidate=" +
                       std::to_string(include_candidate) +
                       " multirank=" + std::to_string(multirank));

          EXPECT_DOUBLE_EQ(
              model.allocation_cost(state, nodes, schedule),
              model.allocation_cost_reference(state, nodes, schedule));
          for (const bool comm_intensive : {false, true}) {
            EXPECT_DOUBLE_EQ(model.candidate_cost(state, nodes,
                                                  comm_intensive, schedule),
                             model.candidate_cost_reference(
                                 state, nodes, comm_intensive, schedule));
          }
        }
      }
    }
  }
}

// The kernel's scratch buffers are member state reused across calls; verify
// interleaving calls with different allocations, schedules and overlay modes
// on ONE model instance never contaminates a later result.
TEST(CostModelDiffTest, ScratchReuseAcrossInterleavedCalls) {
  Rng rng(2026'08'06);
  const Tree tree = random_tree(rng);
  ClusterState state(tree);
  random_occupy(state, rng);
  const CostModel model(tree, CostOptions{.hop_bytes = true});

  struct Query {
    std::vector<NodeId> nodes;
    CommSchedule schedule;
    bool comm_intensive = false;
    double expected = 0.0;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 24; ++q) {
    Query query;
    const int nranks = static_cast<int>(rng.uniform_int(2, tree.node_count()));
    query.nodes = random_allocation(tree, rng, nranks, rng.bernoulli(0.5));
    query.schedule = make_schedule(
        kAllPatterns[static_cast<std::size_t>(q) % std::size(kAllPatterns)],
        nranks, 64.0);
    query.comm_intensive = rng.bernoulli(0.5);
    query.expected = model.candidate_cost_reference(
        state, query.nodes, query.comm_intensive, query.schedule);
    queries.push_back(std::move(query));
  }
  // Two interleaved passes: every call must reproduce its reference value
  // regardless of what the previous call left in the scratch.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Query& query : queries) {
      EXPECT_DOUBLE_EQ(model.candidate_cost(state, query.nodes,
                                            query.comm_intensive,
                                            query.schedule),
                       query.expected);
    }
  }
}

// A distinct node list that revisits a leaf non-contiguously: it opens
// A-B-A on two random leaves of 2+ nodes, then lists random other nodes in
// random order.
std::vector<NodeId> revisiting_allocation(const Tree& tree, Rng& rng) {
  std::vector<SwitchId> wide;
  for (const SwitchId leaf : tree.leaves())
    if (tree.nodes_of_leaf(leaf).size() >= 2) wide.push_back(leaf);
  rng.shuffle(wide);
  const auto a = tree.nodes_of_leaf(wide.at(0));
  const auto b = tree.nodes_of_leaf(wide.at(1));
  std::vector<NodeId> nodes = {a[0], b[0], a[1]};
  std::vector<NodeId> rest;
  for (NodeId n = 0; n < tree.node_count(); ++n)
    if (n != a[0] && n != a[1] && n != b[0] && rng.bernoulli(0.5))
      rest.push_back(n);
  rng.shuffle(rest);
  nodes.insert(nodes.end(), rest.begin(), rest.end());
  return nodes;
}

// The fast kernels fold the candidate's own entries into each slot's L_comm
// from per-slot counts taken over the whole list; the reference overlays
// them entry by entry through a LeafOverlay. A revisited leaf is where the
// two could part (a count frozen at the leaf's first run would miss its
// later runs), so price revisiting lists at rpn 1, 2 and 4 on every pattern
// and insist on the same bits from the schedule kernel, the profile kernel
// and delta_begin.
TEST(CostModelDiffTest, FoldedCandidateCountsMatchReferenceOnRevisitedLeaves) {
  const Tree trees[] = {make_two_level_tree(5, 4),
                        make_three_level_tree(2, 3, 3)};
  CostWorkspace ws;
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(0xF01D'ED + seed);
    const Tree& tree = trees[seed % 2];
    ClusterState state(tree);
    random_occupy(state, rng);
    const std::vector<NodeId> nodes = revisiting_allocation(tree, rng);
    const ShapeKey shape = make_shape_key(tree, nodes);
    ASSERT_GT(shape.runs.size(), static_cast<std::size_t>(shape.num_slots))
        << "list does not revisit a leaf";
    for (const int rpn : {1, 2, 4}) {
      const std::vector<NodeId> ranks = expand_ranks_per_node(nodes, rpn);
      for (const Pattern pattern : kAllPatterns) {
        const double msize = 64.0;
        const CommSchedule schedule =
            make_schedule(pattern, static_cast<int>(ranks.size()), msize);
        const LeafCommProfile profile =
            make_leaf_comm_profile(pattern, msize, shape, rpn);
        for (const bool include_candidate : {false, true}) {
          const CostModel model(
              tree, CostOptions{.hop_bytes = seed % 3 == 0,
                                .include_candidate = include_candidate});
          for (const bool comm_intensive : {false, true}) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " rpn=" + std::to_string(rpn) + " pattern=" +
                         pattern_name(pattern) + " include_candidate=" +
                         std::to_string(include_candidate) +
                         " comm_intensive=" + std::to_string(comm_intensive));
            const double reference = model.candidate_cost_reference(
                state, ranks, comm_intensive, schedule);
            EXPECT_EQ(model.candidate_cost(state, ranks, comm_intensive,
                                           schedule, ws),
                      reference);
            const double via_profile = model.candidate_cost(
                state, nodes, comm_intensive, profile, ws);
            EXPECT_EQ(via_profile, reference);
            EXPECT_EQ(model.delta_begin(state, nodes, comm_intensive, profile,
                                        ws),
                      via_profile);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 12 * 3 * 5 * 2 * 2);
}

}  // namespace
}  // namespace commsched
