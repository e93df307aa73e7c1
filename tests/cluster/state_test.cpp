#include "cluster/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {

// Friend of ClusterState: corrupts one internal counter at a time so the
// validate() failure paths can be proven to fire (ISSUE 2 satellite).
struct ClusterStateTestPeer {
  static void corrupt_leaf_busy(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_busy_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_leaf_comm(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_comm_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_leaf_io(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_io_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_switch_free(ClusterState& s, SwitchId sw, int delta) {
    s.switch_free_[static_cast<std::size_t>(sw)] += delta;
  }
  static void corrupt_free_total(ClusterState& s, int delta) {
    s.free_total_ += delta;
  }
  static void corrupt_owner(ClusterState& s, NodeId n, JobId owner) {
    s.node_owner_[static_cast<std::size_t>(n)] = owner;
  }
  static void drop_job_node(ClusterState& s, JobId job) {
    const std::int32_t slot = s.find_slot(job);
    COMMSCHED_ASSERT_GE_MSG(slot, 0, "corrupting a job that is not live");
    s.job_pool_[static_cast<std::size_t>(slot)].nodes.pop_back();
  }
  // Swap the first two entries of a leaf's free index (breaks the ascending
  // order without touching any counter). Requires leaf_free(leaf) >= 2.
  static void corrupt_free_index_order(ClusterState& s, SwitchId leaf) {
    const auto off =
        static_cast<std::size_t>(s.leaf_off_[static_cast<std::size_t>(leaf)]);
    std::swap(s.free_list_[off], s.free_list_[off + 1]);
  }
  // Overwrite free-index entry `pos` (default: the first) of a leaf with an
  // arbitrary node.
  static void corrupt_free_index_entry(ClusterState& s, SwitchId leaf,
                                       NodeId n, std::size_t pos = 0) {
    const auto off =
        static_cast<std::size_t>(s.leaf_off_[static_cast<std::size_t>(leaf)]);
    s.free_list_[off + pos] = n;
  }
  static void corrupt_leaf_load(ClusterState& s, SwitchId leaf,
                                LoadUnits delta) {
    s.leaf_load_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_switch_load(ClusterState& s, SwitchId sw,
                                  LoadUnits delta) {
    s.switch_load_[static_cast<std::size_t>(sw)] += delta;
  }
  static void corrupt_load_total(ClusterState& s, LoadUnits delta) {
    s.load_total_ += delta;
  }
};

namespace {

class ClusterStateTest : public ::testing::Test {
 protected:
  ClusterStateTest() : tree_(make_figure2_tree()), state_(tree_) {}
  Tree tree_;
  ClusterState state_;
};

TEST_F(ClusterStateTest, StartsAllFree) {
  EXPECT_EQ(state_.total_free(), 8);
  EXPECT_EQ(state_.job_count(), 0u);
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_TRUE(state_.is_free(n));
    EXPECT_EQ(state_.owner(n), kInvalidJob);
  }
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(state_.leaf_busy(leaf), 0);
    EXPECT_EQ(state_.leaf_comm(leaf), 0);
    EXPECT_EQ(state_.leaf_free(leaf), 4);
    EXPECT_EQ(state_.leaf_nodes(leaf), 4);
  }
}

TEST_F(ClusterStateTest, AllocateUpdatesCounters) {
  const std::vector<NodeId> nodes{0, 1, 4};
  state_.allocate(7, /*comm_intensive=*/true, nodes);
  EXPECT_EQ(state_.total_free(), 5);
  EXPECT_FALSE(state_.is_free(0));
  EXPECT_EQ(state_.owner(0), 7);
  const SwitchId s0 = *tree_.switch_by_name("s0");
  const SwitchId s1 = *tree_.switch_by_name("s1");
  EXPECT_EQ(state_.leaf_busy(s0), 2);
  EXPECT_EQ(state_.leaf_comm(s0), 2);
  EXPECT_EQ(state_.leaf_busy(s1), 1);
  EXPECT_EQ(state_.leaf_comm(s1), 1);
  EXPECT_EQ(state_.free_under(tree_.root()), 5);
  EXPECT_EQ(state_.free_under(s0), 2);
  state_.validate();
}

TEST_F(ClusterStateTest, LoadAccumulatorsTrackAllocations) {
  const SwitchId s0 = *tree_.switch_by_name("s0");
  const SwitchId s1 = *tree_.switch_by_name("s1");
  state_.allocate(1, /*comm_intensive=*/true, std::vector<NodeId>{0, 1, 4},
                  /*io_intensive=*/false, /*comm_load=*/800);
  state_.allocate(2, /*comm_intensive=*/true, std::vector<NodeId>{2, 3},
                  /*io_intensive=*/false, /*comm_load=*/300);
  EXPECT_EQ(state_.job_load(1), 800);
  EXPECT_EQ(state_.job_load(2), 300);
  EXPECT_EQ(state_.leaf_load(s0), 2 * 800 + 2 * 300);  // nodes 0,1 + 2,3
  EXPECT_EQ(state_.leaf_load(s1), 800);                // node 4
  EXPECT_EQ(state_.load_under(s0), 2 * 800 + 2 * 300);
  EXPECT_EQ(state_.load_under(tree_.root()), 3 * 800 + 2 * 300);
  EXPECT_EQ(state_.total_load(), 3 * 800 + 2 * 300);
  state_.validate();
  state_.release(1);
  EXPECT_EQ(state_.leaf_load(s0), 2 * 300);
  EXPECT_EQ(state_.leaf_load(s1), 0);
  EXPECT_EQ(state_.total_load(), 2 * 300);
  state_.release(2);
  EXPECT_EQ(state_.total_load(), 0);
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(state_.leaf_load(leaf), 0);
  }
  state_.validate();
}

TEST_F(ClusterStateTest, LoadViewsAreZeroCopyAndConsistent) {
  state_.allocate(9, /*comm_intensive=*/true, std::vector<NodeId>{0, 5},
                  /*io_intensive=*/false, /*comm_load=*/1024);
  const std::span<const LoadUnits> leaves = state_.leaf_loads();
  const std::span<const LoadUnits> switches = state_.switch_loads();
  LoadUnits leaf_sum = 0;
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(leaves[static_cast<std::size_t>(leaf)], state_.leaf_load(leaf));
    leaf_sum += leaves[static_cast<std::size_t>(leaf)];
  }
  EXPECT_EQ(leaf_sum, state_.total_load());
  EXPECT_EQ(switches[static_cast<std::size_t>(tree_.root())],
            state_.total_load());
}

TEST_F(ClusterStateTest, NegativeLoadThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{0},
                               /*io_intensive=*/false, /*comm_load=*/-1),
               InvariantError);
}

TEST_F(ClusterStateTest, ComputeJobDoesNotCountAsComm) {
  state_.allocate(1, /*comm_intensive=*/false, std::vector<NodeId>{0, 1});
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.leaf_busy(s0), 2);
  EXPECT_EQ(state_.leaf_comm(s0), 0);
}

TEST_F(ClusterStateTest, ReleaseRestoresEverything) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  state_.allocate(2, false, std::vector<NodeId>{4, 5});
  state_.release(1);
  EXPECT_EQ(state_.total_free(), 6);
  EXPECT_TRUE(state_.is_free(0));
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.leaf_busy(s0), 0);
  EXPECT_EQ(state_.leaf_comm(s0), 0);
  state_.release(2);
  EXPECT_EQ(state_.total_free(), 8);
  EXPECT_EQ(state_.job_count(), 0u);
  state_.validate();
}

TEST_F(ClusterStateTest, JobNodesPreservesOrder) {
  const std::vector<NodeId> nodes{5, 2, 7};
  state_.allocate(3, true, nodes);
  const auto got = state_.job_nodes(3);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), nodes.begin(), nodes.end()));
  EXPECT_TRUE(state_.job_is_comm(3));
}

TEST_F(ClusterStateTest, FreeNodesOfLeafAscending) {
  state_.allocate(1, true, std::vector<NodeId>{1, 2});
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.free_nodes_of_leaf(s0), (std::vector<NodeId>{0, 3}));
}

TEST_F(ClusterStateTest, DoubleAllocationOfNodeThrows) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  EXPECT_THROW(state_.allocate(2, true, std::vector<NodeId>{0}),
               InvariantError);
  // Failed allocation must not leak partial state.
  EXPECT_EQ(state_.total_free(), 7);
  state_.validate();
}

TEST_F(ClusterStateTest, DuplicateNodesInRequestThrow) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{2, 2}),
               InvariantError);
  EXPECT_EQ(state_.total_free(), 8);
}

TEST_F(ClusterStateTest, ReusedJobIdThrows) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{1}),
               InvariantError);
}

TEST_F(ClusterStateTest, ReleaseUnknownJobThrows) {
  EXPECT_THROW(state_.release(99), InvariantError);
}

TEST_F(ClusterStateTest, EmptyAllocationThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{}),
               InvariantError);
}

TEST_F(ClusterStateTest, OutOfRangeNodeThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{8}),
               InvariantError);
  EXPECT_THROW(state_.allocate(2, true, std::vector<NodeId>{-1}),
               InvariantError);
}

TEST(ClusterStateThreeLevelTest, SubtreeFreeCountsPropagate) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  ClusterState state(tree);
  // Allocate 3 nodes on leaf 0 (nodes 0-3) and 1 on leaf 2 (nodes 8-11).
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  state.allocate(2, false, std::vector<NodeId>{8});
  const auto level2 = tree.switches_at_level(2);
  ASSERT_EQ(level2.size(), 2u);
  EXPECT_EQ(state.free_under(level2[0]), 5);  // 8 - 3
  EXPECT_EQ(state.free_under(level2[1]), 7);  // 8 - 1
  EXPECT_EQ(state.free_under(tree.root()), 12);
  state.validate();
}

TEST_F(ClusterStateTest, ReleaseReturnsExactAllocationSet) {
  const std::vector<NodeId> nodes{5, 2, 7};
  state_.allocate(1, true, nodes);
  EXPECT_EQ(state_.release(1), nodes);  // allocation order preserved
}

// Deliberate-corruption coverage: every counter validate() recomputes has a
// test that breaks it and asserts the InvariantError fires (ISSUE 2).
class ClusterStateCorruptionTest : public ClusterStateTest {
 protected:
  ClusterStateCorruptionTest() {
    state_.allocate(1, /*comm_intensive=*/true, std::vector<NodeId>{0, 1, 4},
                    /*io_intensive=*/true, /*comm_load=*/512);
    state_.validate();  // clean before each test corrupts one counter
    leaf_ = *tree_.switch_by_name("s0");
  }
  SwitchId leaf_ = kInvalidSwitch;
};

TEST_F(ClusterStateCorruptionTest, CorruptLeafBusyFires) {
  ClusterStateTestPeer::corrupt_leaf_busy(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafCommFires) {
  ClusterStateTestPeer::corrupt_leaf_comm(state_, leaf_, -1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafIoFires) {
  ClusterStateTestPeer::corrupt_leaf_io(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptSubtreeFreeFires) {
  ClusterStateTestPeer::corrupt_switch_free(state_, tree_.root(), -1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptFreeTotalFires) {
  ClusterStateTestPeer::corrupt_free_total(state_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafLoadFires) {
  ClusterStateTestPeer::corrupt_leaf_load(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptSubtreeLoadFires) {
  ClusterStateTestPeer::corrupt_switch_load(state_, tree_.root(), -512);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLoadTotalFires) {
  ClusterStateTestPeer::corrupt_load_total(state_, +512);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, NodeOwnedByUnknownJobFires) {
  ClusterStateTestPeer::corrupt_owner(state_, 7, /*owner=*/42);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, OwnershipTableDisagreementFires) {
  // node_owner_ says node 4 belongs to job 1 but the job record no longer
  // lists it.
  ClusterStateTestPeer::drop_job_node(state_, 1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexOutOfOrderFires) {
  // s1 has nodes {4..7}, node 4 busy -> free prefix {5, 6, 7}.
  ClusterStateTestPeer::corrupt_free_index_order(
      state_, *tree_.switch_by_name("s1"));
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexForeignNodeFires) {
  // Put one of s0's nodes into s1's free index.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/3);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexAllocatedNodeFires) {
  // Node 4 belongs to job 1; listing it as free must fire. 4 is below every
  // genuinely free node of s1, so the ascending-order check stays quiet and
  // the is-free check is what trips.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/4);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexDesyncTripsTransition) {
  // An allocation over a node the free index no longer lists must fire the
  // transition-time cross-check, not corrupt the index silently. Overwriting
  // the first entry (node 5) evicts it from the index while node_owner_
  // still says free, so allocating node 5 passes the is_free precondition
  // and trips inside allocate()'s per-leaf free-index compaction.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/4);
  EXPECT_THROW(state_.allocate(2, false, std::vector<NodeId>{5}),
               InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexForeignEntryTripsAllocate) {
  // Job 3 takes node 7, so s1's free prefix is {5, 6}. Overwriting node 6
  // with node 7 leaves {5, 7}: sorted, missing a free node, listing a busy
  // one. Allocating {5, 6} must fire: the compaction drops only entries
  // owned by the allocating job, so it removes one entry where two were
  // expected. A compaction that dropped every busy entry would remove 5
  // and 7, match the count, and leave the index silently wrong.
  state_.allocate(3, false, std::vector<NodeId>{7});
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/7, /*pos=*/1);
  EXPECT_THROW(state_.allocate(2, false, std::vector<NodeId>{5, 6}),
               InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexDesyncTripsRelease) {
  // The mirror image on release: the free index already lists node 4 while
  // job 1 still owns it. Releasing job 1 must fire the merge-time check
  // instead of writing node 4 into the prefix twice.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/4);
  try {
    state_.release(1);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("released node already free"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ClusterStateCorruptionTest, ViolationMessageCarriesValues) {
  ClusterStateTestPeer::corrupt_free_total(state_, +3);
  try {
    state_.validate();
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    // The comparison macros report both operand values.
    EXPECT_NE(std::string(e.what()).find("free_total_ = 8"),
              std::string::npos)
        << e.what();
  }
}

// Property sweep: random allocate/release sequences keep every incremental
// counter consistent with a from-scratch recomputation.
class ClusterStateRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterStateRandomOps, ValidateAfterEveryStep) {
  const Tree tree = make_three_level_tree(2, 4, 8);  // 64 nodes
  ClusterState state(tree);
  Rng rng(GetParam());
  std::vector<JobId> live;
  JobId next = 1;
  for (int step = 0; step < 300; ++step) {
    const bool do_alloc = live.empty() || (state.total_free() > 0 &&
                                           rng.bernoulli(0.6));
    if (do_alloc) {
      const int want = static_cast<int>(
          rng.uniform_int(1, std::min(state.total_free(), 12)));
      std::vector<NodeId> nodes;
      for (NodeId n = 0; n < tree.node_count() &&
                         static_cast<int>(nodes.size()) < want; ++n)
        if (state.is_free(n) && rng.bernoulli(0.5)) nodes.push_back(n);
      if (nodes.empty()) continue;
      state.allocate(next, rng.bernoulli(0.5), nodes);
      live.push_back(next++);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    state.validate();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterStateRandomOps,
                         ::testing::Values(1, 7, 42, 1234, 987654));

// Property sweep for the leaf-granular commit on big leaves (4 x 64 nodes):
// allocations revisit leaves non-contiguously (A, B, A), list each leaf's
// nodes out of order, and some take a whole leaf so that releasing them
// refills it from empty. After every step the per-leaf free index must
// equal a std::set oracle and validate() must pass.
class ClusterStateBigLeafOps : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ClusterStateBigLeafOps, FreeIndexMatchesSetOracle) {
  constexpr int kLeaves = 4;
  constexpr int kPerLeaf = 64;
  const Tree tree = make_two_level_tree(kLeaves, kPerLeaf);
  ClusterState state(tree);
  Rng rng(GetParam());
  std::vector<std::set<NodeId>> oracle(static_cast<std::size_t>(kLeaves));
  for (int li = 0; li < kLeaves; ++li) {
    const auto nodes =
        tree.nodes_of_leaf(tree.leaves()[static_cast<std::size_t>(li)]);
    oracle[static_cast<std::size_t>(li)].insert(nodes.begin(), nodes.end());
  }
  std::vector<JobId> live;
  JobId next = 1;
  int interleaved = 0;
  int refills = 0;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || (state.total_free() > 0 && rng.bernoulli(0.55))) {
      // Each chosen leaf contributes a shuffled pick, split into two chunks;
      // the chunks are laid out A1 B1 ... A2 B2 ... so every leaf with two
      // non-empty chunks is revisited after another leaf.
      std::vector<std::vector<NodeId>> first_half;
      std::vector<std::vector<NodeId>> second_half;
      for (int li = 0; li < kLeaves; ++li) {
        const auto& free = oracle[static_cast<std::size_t>(li)];
        if (free.empty() || !rng.bernoulli(0.5)) continue;
        std::vector<NodeId> pick(free.begin(), free.end());
        rng.shuffle(pick);
        // A whole free leaf now and then; otherwise a random share.
        const bool whole =
            static_cast<int>(free.size()) == kPerLeaf && rng.bernoulli(0.3);
        if (!whole)
          pick.resize(static_cast<std::size_t>(rng.uniform_int(
              1, static_cast<std::int64_t>(pick.size()))));
        const auto cut = static_cast<std::ptrdiff_t>(pick.size() / 2);
        first_half.emplace_back(pick.begin(), pick.begin() + cut);
        second_half.emplace_back(pick.begin() + cut, pick.end());
      }
      std::vector<NodeId> nodes;
      for (const auto& chunk : first_half)
        nodes.insert(nodes.end(), chunk.begin(), chunk.end());
      for (const auto& chunk : second_half)
        nodes.insert(nodes.end(), chunk.begin(), chunk.end());
      if (nodes.empty()) continue;
      // More leaf runs than distinct leaves: some leaf was revisited.
      std::set<SwitchId> distinct;
      std::size_t runs = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        distinct.insert(tree.leaf_of(nodes[i]));
        if (i == 0 || tree.leaf_of(nodes[i]) != tree.leaf_of(nodes[i - 1]))
          ++runs;
      }
      if (runs > distinct.size()) ++interleaved;
      state.allocate(next, rng.bernoulli(0.5), nodes, rng.bernoulli(0.3),
                     static_cast<LoadUnits>(rng.uniform_int(0, 1024)));
      for (const NodeId n : nodes)
        oracle[static_cast<std::size_t>(
                   tree.leaf_index(tree.leaf_of(n)))].erase(n);
      live.push_back(next++);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::vector<NodeId> freed = state.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      for (const NodeId n : freed) {
        auto& free = oracle[static_cast<std::size_t>(
            tree.leaf_index(tree.leaf_of(n)))];
        EXPECT_TRUE(free.insert(n).second) << "node " << n << " freed twice";
        // The job held the whole leaf: this release refills it from empty.
        if (static_cast<int>(free.size()) == kPerLeaf &&
            std::count_if(freed.begin(), freed.end(), [&](NodeId m) {
              return tree.leaf_of(m) == tree.leaf_of(n);
            }) == kPerLeaf)
          ++refills;
      }
    }
    state.validate();
    for (int li = 0; li < kLeaves; ++li) {
      const auto span =
          state.free_leaf_span(tree.leaves()[static_cast<std::size_t>(li)]);
      const auto& want = oracle[static_cast<std::size_t>(li)];
      ASSERT_TRUE(std::equal(span.begin(), span.end(), want.begin(),
                             want.end()))
          << "leaf " << li << " at step " << step;
    }
  }
  // The sweep must actually exercise the shapes it is about.
  EXPECT_GT(interleaved, 0);
  EXPECT_GT(refills, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterStateBigLeafOps,
                         ::testing::Values(3, 11, 99, 2024, 31337));

}  // namespace
}  // namespace commsched
