// DegradationModel lockdown (DESIGN.md "Dynamic interference"): the factor
// must be exactly 1 at zero co-located load (recovering the paper's static
// Eq. 7), monotone non-decreasing in every co-located job's load, clamped by
// RuntimeModelOptions::max_ratio, and the external-load term must be the
// node-weighted mean documented in the header — pinned against hand-computed
// values on small trees.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/state.hpp"
#include "core/degradation_model.hpp"
#include "core/runtime_model.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

class DegradationModelTest : public ::testing::Test {
 protected:
  DegradationModelTest()
      : tree_(make_two_level_tree(/*leaves=*/2, /*nodes_per_leaf=*/4)),
        state_(tree_),
        model_(tree_, DegradationOptions{.enabled = true, .alpha = 1.0},
               RuntimeModelOptions{}) {}

  Tree tree_;
  ClusterState state_;
  DegradationModel model_;
  DegradationWorkspace ws_;
};

TEST_F(DegradationModelTest, QuantizeLoadMatchesPriceCommSemantics) {
  EXPECT_EQ(DegradationModel::quantize_load(true, 1.0), kLoadUnitScale);
  EXPECT_EQ(DegradationModel::quantize_load(true, 0.5), kLoadUnitScale / 2);
  EXPECT_EQ(DegradationModel::quantize_load(true, 0.0), 0);
  // Compute-bound jobs carry no load no matter their comm fraction.
  EXPECT_EQ(DegradationModel::quantize_load(false, 0.9), 0);
}

TEST_F(DegradationModelTest, FactorIsExactlyOneAtZeroExternalLoad) {
  const std::vector<NodeId> nodes{0, 1};
  state_.allocate(1, true, nodes, false, kLoadUnitScale);
  // The job is alone on its leaf: its own contribution is excluded, so the
  // static Eq. 7 runtime is recovered exactly (not approximately).
  EXPECT_EQ(model_.external_load(state_, nodes, kLoadUnitScale, ws_), 0.0);
  EXPECT_EQ(model_.factor(state_, nodes, kLoadUnitScale, ws_), 1.0);
}

TEST_F(DegradationModelTest, FactorIsOneForZeroOwnLoad) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1}, false, kLoadUnitScale);
  // A compute-bound neighbour (own load 0) is not degraded by job 1.
  const std::vector<NodeId> mine{2, 3};
  EXPECT_EQ(model_.factor(state_, mine, 0, ws_), 1.0);
}

TEST_F(DegradationModelTest, ExternalLoadIsNodeWeightedMean) {
  // Job 1: 2 nodes on leaf s0, full load. Job 2: 1 node on leaf s0, half
  // load. For job 1 (own load excluded): others on s0 = 512; leaf has 4
  // attached nodes; all of job 1's nodes sit on s0 (weight 1).
  state_.allocate(1, true, std::vector<NodeId>{0, 1}, false, kLoadUnitScale);
  state_.allocate(2, true, std::vector<NodeId>{2}, false, kLoadUnitScale / 2);
  const std::vector<NodeId> job1{0, 1};
  const double expected =
      (static_cast<double>(kLoadUnitScale) / 2.0) /
      (static_cast<double>(kLoadUnitScale) * 4.0);  // 512 / (1024*4) = 0.125
  EXPECT_DOUBLE_EQ(model_.external_load(state_, job1, kLoadUnitScale, ws_),
                   expected);
  EXPECT_DOUBLE_EQ(model_.factor(state_, job1, kLoadUnitScale, ws_),
                   1.0 + expected);

  // A job straddling both leaves weights each leaf by its share of the
  // job's nodes: node 3 on the loaded s0, node 4 on the idle s1.
  const std::vector<NodeId> straddle{3, 4};
  const double ext =
      model_.external_load(state_, straddle, /*own_load=*/0, ws_);
  const double s0_per_node =
      static_cast<double>(kLoadUnitScale * 2 + kLoadUnitScale / 2) /
      (static_cast<double>(kLoadUnitScale) * 4.0);
  EXPECT_DOUBLE_EQ(ext, 0.5 * s0_per_node);
}

TEST_F(DegradationModelTest, FactorMonotoneInCoLocatedLoad) {
  const std::vector<NodeId> mine{0, 1};
  state_.allocate(1, true, mine, false, kLoadUnitScale);
  double prev = model_.factor(state_, mine, kLoadUnitScale, ws_);
  EXPECT_EQ(prev, 1.0);
  // Add neighbours of growing load; the factor must never decrease.
  for (int i = 0; i < 2; ++i) {
    state_.allocate(10 + i, true, std::vector<NodeId>{NodeId(2 + i)}, false,
                    (i + 1) * (kLoadUnitScale / 2));
    const double next = model_.factor(state_, mine, kLoadUnitScale, ws_);
    EXPECT_GT(next, prev);
    prev = next;
  }
  // Releasing a neighbour deflates monotonically too.
  state_.release(10);
  EXPECT_LT(model_.factor(state_, mine, kLoadUnitScale, ws_), prev);
}

TEST_F(DegradationModelTest, FactorClampedAtMaxRatio) {
  const DegradationModel steep(
      tree_, DegradationOptions{.enabled = true, .alpha = 1e6},
      RuntimeModelOptions{.max_ratio = 3.0});
  const std::vector<NodeId> mine{0, 1};
  state_.allocate(1, true, mine, false, kLoadUnitScale);
  state_.allocate(2, true, std::vector<NodeId>{2, 3}, false, kLoadUnitScale);
  EXPECT_EQ(steep.factor(state_, mine, kLoadUnitScale, ws_), 3.0);
}

TEST_F(DegradationModelTest, AlphaZeroIsModelNeutral) {
  const DegradationModel off(
      tree_, DegradationOptions{.enabled = true, .alpha = 0.0},
      RuntimeModelOptions{});
  const std::vector<NodeId> mine{0, 1};
  state_.allocate(1, true, mine, false, kLoadUnitScale);
  state_.allocate(2, true, std::vector<NodeId>{2, 3}, false, kLoadUnitScale);
  EXPECT_EQ(off.factor(state_, mine, kLoadUnitScale, ws_), 1.0);
}

TEST_F(DegradationModelTest, RepeatedEvaluationIsBitReproducible) {
  // The workspace's epoch-stamped arrays must not leak state between
  // evaluations: the same query twice returns the same bits.
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 4}, false, 700);
  state_.allocate(2, true, std::vector<NodeId>{2, 5}, false, 300);
  const std::vector<NodeId> mine{0, 1, 4};
  const double first = model_.factor(state_, mine, 700, ws_);
  for (int i = 0; i < 10; ++i) {
    // Interleave queries over a different allocation to churn the stamps.
    (void)model_.external_load(state_, std::vector<NodeId>{2, 5}, 300, ws_);
    EXPECT_EQ(model_.factor(state_, mine, 700, ws_), first);
  }
}

TEST(DegradationModelOrderTest, SumFollowsFirstAppearanceOfLeaves) {
  // The span visits leaves A, B, C, A, D: leaf A comes back after B and C.
  // The run walk must count A once with both of its nodes and sum the
  // leaves in first-appearance order A, B, C, D, bit for bit.
  const Tree tree = make_two_level_tree(/*leaves=*/4, /*nodes_per_leaf=*/3);
  ClusterState state(tree);
  const DegradationModel model(
      tree, DegradationOptions{.enabled = true, .alpha = 1.0},
      RuntimeModelOptions{});
  DegradationWorkspace ws;
  state.allocate(1, true, std::vector<NodeId>{2}, false, 864);   // leaf A
  state.allocate(2, true, std::vector<NodeId>{5}, false, 299);   // leaf B
  state.allocate(3, true, std::vector<NodeId>{8}, false, 115);   // leaf C
  state.allocate(4, true, std::vector<NodeId>{11}, false, 68);   // leaf D
  const std::vector<NodeId> span{0, 3, 6, 1, 9};  // A, B, C, A, D

  // Hand-computed with the documented arithmetic: weight = the job's nodes
  // on the leaf / its node count, per-node = others / (kLoadUnitScale *
  // attached nodes).
  const double inv_job_nodes = 1.0 / 5.0;
  const double scale = static_cast<double>(kLoadUnitScale) * 3.0;
  const double term_a = (2.0 * inv_job_nodes) * (864.0 / scale);
  const double term_b = (1.0 * inv_job_nodes) * (299.0 / scale);
  const double term_c = (1.0 * inv_job_nodes) * (115.0 / scale);
  const double term_d = (1.0 * inv_job_nodes) * (68.0 / scale);
  double expected = 0.0;
  for (const double term : {term_a, term_b, term_c, term_d}) expected += term;
  EXPECT_EQ(model.external_load(state, span, /*own_load=*/0, ws), expected);

  // The pin discriminates: summing A where it last appears (B, C, A, D)
  // gives other bits, so a walk that moved A would fail above.
  double last_appearance = 0.0;
  for (const double term : {term_b, term_c, term_a, term_d})
    last_appearance += term;
  EXPECT_NE(last_appearance, expected);
}

}  // namespace
}  // namespace commsched
