#include "core/io_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

TEST(IoModelTest, ContentionIsLeafIoFraction) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  const IoModel model(tree);
  EXPECT_DOUBLE_EQ(model.contention(state, 0), 0.0);
  state.allocate(1, /*comm=*/false, std::vector<NodeId>{0, 1},
                 /*io=*/true);
  EXPECT_DOUBLE_EQ(model.contention(state, 2), 0.5);  // 2 of 4 on the leaf
  EXPECT_DOUBLE_EQ(model.contention(state, 4), 0.0);  // other leaf untouched
}

TEST(IoModelTest, NonIoJobsAddNoIoContention) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  const IoModel model(tree);
  state.allocate(1, /*comm=*/true, std::vector<NodeId>{0, 1});
  EXPECT_DOUBLE_EQ(model.contention(state, 2), 0.0);
}

TEST(IoModelTest, AllocationCostSumsPerNode) {
  // Two-level tree: d_io = 4. Empty machine: cost = 4 * nodes.
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const IoModel model(tree);
  const std::vector<NodeId> nodes{0, 1, 4};
  EXPECT_DOUBLE_EQ(model.allocation_cost(state, nodes), 12.0);
}

TEST(IoModelTest, CandidateSelfInclusionRaisesCost) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const IoModel model(tree);
  const std::vector<NodeId> packed{0, 1, 2, 3};   // all on one 4-node leaf
  const std::vector<NodeId> spread{0, 1, 4, 5};   // two per leaf
  // Packed: each node sees C_io = 4/4 = 1 -> 4 * 4*(1+1) = 32.
  EXPECT_DOUBLE_EQ(model.candidate_cost(state, packed, true), 32.0);
  // Spread: each node sees C_io = 2/4 -> 4 * 4*1.5 = 24.
  EXPECT_DOUBLE_EQ(model.candidate_cost(state, spread, true), 24.0);
  // A non-I/O candidate adds nothing on an empty machine.
  EXPECT_DOUBLE_EQ(model.candidate_cost(state, packed, false), 16.0);
}

TEST(IoModelTest, CandidateCountsRevisitedLeavesOverTheWholeList) {
  // Leaf A (n0..n3) is listed, left for leaf B (n4..n7) and revisited:
  // every node of A must see all three of the candidate's A nodes.
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, /*comm=*/false, std::vector<NodeId>{2}, /*io=*/true);
  const IoModel model(tree);
  const std::vector<NodeId> aba{0, 4, 1, 5, 3};
  // The per-node formula: C_io of each node with the whole candidate
  // overlaid, summed in node order.
  LeafOverlay overlay(tree);
  overlay.add_nodes(tree, aba);
  const double d_io = 2.0 * tree.depth();
  double expected = 0.0;
  for (const NodeId n : aba)
    expected += d_io * (1.0 + model.contention(state, n, &overlay));
  EXPECT_EQ(model.candidate_cost(state, aba, true), expected);
  // By hand: A terms 4 * (1 + (1 + 3)/4) = 8, B terms 4 * (1 + 2/4) = 6.
  EXPECT_DOUBLE_EQ(expected, 8.0 + 6.0 + 8.0 + 6.0 + 8.0);
  // Without self-inclusion only the committed L_io counts.
  double committed = 0.0;
  for (const NodeId n : aba)
    committed += d_io * (1.0 + model.contention(state, n));
  EXPECT_EQ(model.candidate_cost(state, aba, false), committed);
  EXPECT_EQ(model.allocation_cost(state, aba), committed);
}

TEST(IoModelTest, DeeperTreesPayLongerIoPaths) {
  const Tree deep = make_three_level_tree(2, 2, 4);
  const ClusterState state(deep);
  const IoModel model(deep);
  const std::vector<NodeId> one{0};
  EXPECT_DOUBLE_EQ(model.allocation_cost(state, one), 6.0);  // 2 * depth 3
}

TEST(ModifiedRuntimeWithIoTest, ReducesToEq7WithoutIo) {
  EXPECT_DOUBLE_EQ(
      modified_runtime_with_io(100.0, 0.4, 50.0, 100.0, 0.0, 0.0, 0.0),
      modified_runtime(100.0, 0.4, 50.0, 100.0));
}

TEST(ModifiedRuntimeWithIoTest, CombinesBothTerms) {
  // T=100: 30% compute, 40% comm at ratio 0.5, 30% I/O at ratio 2.
  EXPECT_DOUBLE_EQ(modified_runtime_with_io(100.0, 0.4, 1.0, 2.0,
                                            0.3, 2.0, 1.0),
                   30.0 + 40.0 * 0.5 + 30.0 * 2.0);
}

TEST(ModifiedRuntimeWithIoTest, RejectsOverfullFractions) {
  EXPECT_THROW(
      modified_runtime_with_io(100.0, 0.7, 1.0, 1.0, 0.4, 1.0, 1.0),
      InvariantError);
}

}  // namespace
}  // namespace commsched
