#include "topology/tree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

TEST(TreeBuilderTest, Figure2Structure) {
  // The paper's Figure 2: s0 = n0..n3, s1 = n4..n7, s2 root.
  const Tree tree = make_figure2_tree();
  EXPECT_EQ(tree.node_count(), 8);
  EXPECT_EQ(tree.switch_count(), 3);
  EXPECT_EQ(tree.leaf_count(), 2);
  EXPECT_EQ(tree.depth(), 2);
  EXPECT_EQ(tree.switch_name(tree.root()), "s2");
  EXPECT_FALSE(tree.is_leaf(tree.root()));
  EXPECT_EQ(tree.level(tree.root()), 2);
}

TEST(TreeBuilderTest, LeafMembership) {
  const Tree tree = make_figure2_tree();
  const SwitchId s0 = *tree.switch_by_name("s0");
  const SwitchId s1 = *tree.switch_by_name("s1");
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(tree.leaf_of(n), s0);
  for (NodeId n = 4; n < 8; ++n) EXPECT_EQ(tree.leaf_of(n), s1);
  EXPECT_EQ(tree.nodes_of_leaf(s0).size(), 4u);
  EXPECT_EQ(tree.nodes_of_leaf(s1).size(), 4u);
}

TEST(TreeTest, ForEachLeafRunVisitsMaximalRunsInOrder) {
  const Tree tree = make_figure2_tree();
  const SwitchId s0 = *tree.switch_by_name("s0");
  const SwitchId s1 = *tree.switch_by_name("s1");
  struct Run {
    SwitchId leaf;
    std::size_t first, len;
    bool operator==(const Run&) const = default;
  };
  const auto runs_of = [&](std::vector<NodeId> nodes) {
    std::vector<Run> runs;
    tree.for_each_leaf_run(nodes, [&](SwitchId leaf, std::size_t first,
                                      std::size_t len) {
      runs.push_back({leaf, first, len});
    });
    return runs;
  };
  // A leaf revisited after another (A-A-B-A), unsorted within a run.
  EXPECT_EQ(runs_of({3, 0, 5, 1}),
            (std::vector<Run>{{s0, 0, 2}, {s1, 2, 1}, {s0, 3, 1}}));
  EXPECT_EQ(runs_of({6}), (std::vector<Run>{{s1, 0, 1}}));
  EXPECT_EQ(runs_of({4, 5, 6, 7}), (std::vector<Run>{{s1, 0, 4}}));
  EXPECT_TRUE(runs_of({}).empty());
  EXPECT_THROW(runs_of({0, 8}), InvariantError);  // node id out of range
}

TEST(TreeTest, DistanceMatchesPaperEquation4) {
  // §5.3: same leaf -> d = 2, different leaf in a two-level tree -> d = 4.
  const Tree tree = make_figure2_tree();
  EXPECT_EQ(tree.distance(0, 1), 2);  // d(n0, n1) = 2
  EXPECT_EQ(tree.distance(0, 4), 4);  // d(n0, n4) = 4
  EXPECT_EQ(tree.distance(0, 0), 0);
}

TEST(TreeTest, LowestCommonSwitch) {
  const Tree tree = make_figure2_tree();
  const SwitchId s0 = *tree.switch_by_name("s0");
  EXPECT_EQ(tree.lowest_common_switch(0, 3), s0);
  EXPECT_EQ(tree.lowest_common_switch(0, 7), tree.root());
  EXPECT_EQ(tree.lca_level(0, 3), 1);
  EXPECT_EQ(tree.lca_level(0, 7), 2);
}

TEST(TreeTest, ThreeLevelDistances) {
  // 2 groups x 2 leaves x 4 nodes: nodes 0-3 | 4-7 || 8-11 | 12-15.
  const Tree tree = make_three_level_tree(2, 2, 4);
  EXPECT_EQ(tree.depth(), 3);
  EXPECT_EQ(tree.node_count(), 16);
  EXPECT_EQ(tree.distance(0, 1), 2);    // same leaf
  EXPECT_EQ(tree.distance(0, 5), 4);    // same group, different leaf
  EXPECT_EQ(tree.distance(0, 12), 6);   // different group -> root, level 3
  EXPECT_EQ(tree.lca_level(0, 12), 3);
}

TEST(TreeTest, LeavesUnderInternalSwitch) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  EXPECT_EQ(tree.leaves_under(tree.root()).size(), 4u);
  for (const SwitchId g : tree.switches_at_level(2))
    EXPECT_EQ(tree.leaves_under(g).size(), 2u);
  for (const SwitchId l : tree.leaves())
    EXPECT_EQ(tree.leaves_under(l).size(), 1u);
}

TEST(TreeTest, NodeCountUnder) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  EXPECT_EQ(tree.node_count_under(tree.root()), 16);
  for (const SwitchId g : tree.switches_at_level(2))
    EXPECT_EQ(tree.node_count_under(g), 8);
  for (const SwitchId l : tree.leaves()) EXPECT_EQ(tree.node_count_under(l), 4);
}

TEST(TreeTest, ParentChildConsistency) {
  const Tree tree = make_three_level_tree(2, 3, 2);
  EXPECT_EQ(tree.parent(tree.root()), kInvalidSwitch);
  for (SwitchId s = 0; s < tree.switch_count(); ++s) {
    if (s == tree.root()) continue;
    const SwitchId p = tree.parent(s);
    ASSERT_NE(p, kInvalidSwitch);
    const auto kids = tree.children(p);
    EXPECT_NE(std::find(kids.begin(), kids.end(), s), kids.end());
  }
}

TEST(TreeTest, SwitchesAtLevelPartitionAllSwitches) {
  const Tree tree = make_three_level_tree(3, 4, 8);
  int total = 0;
  for (int lvl = 1; lvl <= tree.depth(); ++lvl)
    total += static_cast<int>(tree.switches_at_level(lvl).size());
  EXPECT_EQ(total, tree.switch_count());
  EXPECT_EQ(tree.switches_at_level(1).size(),
            static_cast<std::size_t>(tree.leaf_count()));
  EXPECT_EQ(tree.switches_at_level(tree.depth()).size(), 1u);
}

TEST(TreeTest, NameLookups) {
  const Tree tree = make_figure2_tree();
  EXPECT_EQ(tree.node_by_name("n5"), NodeId{5});
  EXPECT_FALSE(tree.node_by_name("nope").has_value());
  EXPECT_TRUE(tree.switch_by_name("s1").has_value());
  EXPECT_FALSE(tree.switch_by_name("sX").has_value());
  EXPECT_EQ(tree.node_name(5), "n5");
}

TEST(TreeBuilderTest, RejectsEmptyLeaf) {
  TreeBuilder b;
  EXPECT_THROW(b.add_leaf("s0", {}), InvariantError);
}

TEST(TreeBuilderTest, RejectsEmptyInternalSwitch) {
  TreeBuilder b;
  b.add_leaf("s0", {"n0"});
  EXPECT_THROW(b.add_switch("p", {}), InvariantError);
}

TEST(TreeBuilderTest, RejectsDoubleParenting) {
  TreeBuilder b;
  const SwitchId leaf = b.add_leaf("s0", {"n0"});
  b.add_switch("p1", {leaf});
  EXPECT_THROW(b.add_switch("p2", {leaf}), InvariantError);
}

TEST(TreeBuilderTest, RejectsMultipleRoots) {
  TreeBuilder b;
  b.add_leaf("s0", {"n0"});
  b.add_leaf("s1", {"n1"});
  EXPECT_THROW(b.build(), InvariantError);  // two disconnected leaves
}

TEST(TreeBuilderTest, RejectsDuplicateSwitchNames) {
  TreeBuilder b;
  const SwitchId a = b.add_leaf("dup", {"n0"});
  const SwitchId c = b.add_leaf("dup", {"n1"});
  b.add_switch("root", {a, c});
  EXPECT_THROW(b.build(), InvariantError);
}

TEST(TreeBuilderTest, RejectsDuplicateNodeNames) {
  TreeBuilder b;
  const SwitchId a = b.add_leaf("s0", {"n0"});
  const SwitchId c = b.add_leaf("s1", {"n0"});
  b.add_switch("root", {a, c});
  EXPECT_THROW(b.build(), InvariantError);
}

TEST(TreeBuilderTest, SingleLeafIsItsOwnRoot) {
  TreeBuilder b;
  b.add_leaf("only", {"n0", "n1"});
  const Tree tree = b.build();
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_TRUE(tree.is_leaf(tree.root()));
  EXPECT_EQ(tree.distance(0, 1), 2);
}

TEST(TreeTest, IdChecksThrow) {
  const Tree tree = make_figure2_tree();
  EXPECT_THROW(tree.leaf_of(-1), InvariantError);
  EXPECT_THROW(tree.leaf_of(8), InvariantError);
  EXPECT_THROW(tree.level(99), InvariantError);
  EXPECT_THROW(tree.nodes_of_leaf(tree.root()), InvariantError);
}

// Property sweep: distance symmetry and triangle-ish structure across shapes.
class TreeShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TreeShapeSweep, DistanceIsSymmetricAndBounded) {
  const auto [groups, leaves, nodes] = GetParam();
  const Tree tree = make_three_level_tree(groups, leaves, nodes);
  const int max_d = 2 * tree.depth();
  for (NodeId a = 0; a < tree.node_count(); a += 3) {
    for (NodeId b = a; b < tree.node_count(); b += 5) {
      const int d = tree.distance(a, b);
      EXPECT_EQ(d, tree.distance(b, a));
      if (a == b) {
        EXPECT_EQ(d, 0);
      } else {
        EXPECT_GE(d, 2);
        EXPECT_LE(d, max_d);
        EXPECT_EQ(d == 2, tree.leaf_of(a) == tree.leaf_of(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeShapeSweep,
                         ::testing::Values(std::tuple{1, 2, 4},
                                           std::tuple{2, 2, 4},
                                           std::tuple{2, 3, 5},
                                           std::tuple{4, 4, 4},
                                           std::tuple{3, 1, 7}));

}  // namespace
}  // namespace commsched
