// Property/fuzz tests of ShapeKey canonicalization (collectives/
// comm_cache.hpp): the key of an ordered node list must depend on exactly
// the rank-order leaf *structure* — never on which concrete leaves are used,
// which free nodes of a leaf are picked, or whether a leaf's nodes are
// contiguous — and distinct canonical shapes must neither compare equal nor
// collide under hash_value across large random samples. This is the
// invariant that lets CommCache share one leaf-comm profile across every
// allocation with the same shape (PR 3) and keeps the profile cache's
// bucket distribution honest.
#include "collectives/comm_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "topology/builders.hpp"
#include "topology/tree.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

using Runs = std::vector<std::pair<std::int32_t, std::int32_t>>;

// Rename a run sequence's slots to dense first-appearance order — the
// canonical form make_shape_key promises to produce.
ShapeKey canonicalize(const Runs& raw_runs) {
  ShapeKey key;
  std::map<std::int32_t, std::int32_t> rename;
  for (const auto& [slot, count] : raw_runs) {
    const auto [it, inserted] =
        rename.try_emplace(slot, static_cast<std::int32_t>(rename.size()));
    key.runs.emplace_back(it->second, count);
    key.total_nodes += count;
  }
  key.num_slots = static_cast<int>(rename.size());
  return key;
}

// Draw a random abstract shape: 1..8 runs of 1..4 nodes over 1..6 logical
// leaves, adjacent runs on different leaves (equal neighbors would merge).
Runs random_runs(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> n_runs(1, 8);
  std::uniform_int_distribution<int> n_slots(1, 6);
  std::uniform_int_distribution<std::int32_t> count(1, 4);
  const int slots = n_slots(rng);
  std::uniform_int_distribution<std::int32_t> slot(0, slots - 1);
  Runs runs;
  const int r = n_runs(rng);
  for (int i = 0; i < r; ++i) {
    std::int32_t s = slot(rng);
    if (!runs.empty() && s == runs.back().first) {
      if (slots == 1) break;  // only one leaf: equal neighbors would merge
      s = (s + 1) % slots;
    }
    runs.emplace_back(s, count(rng));
  }
  return runs;
}

// Realize an abstract shape on a concrete tree: map each logical slot to a
// distinct concrete leaf (`leaf_order` decides which), then satisfy each run
// from that leaf's node pool (`fragmented` shuffles the pool, so runs draw
// scattered, non-contiguous nodes).
std::vector<NodeId> realize(const Tree& tree, const Runs& runs,
                            std::vector<int> leaf_order, bool fragmented,
                            std::mt19937_64& rng) {
  std::vector<std::vector<NodeId>> pools;
  for (const SwitchId leaf : tree.leaves()) {
    const auto nodes = tree.nodes_of_leaf(leaf);
    pools.emplace_back(nodes.begin(), nodes.end());
    if (fragmented)
      std::shuffle(pools.back().begin(), pools.back().end(), rng);
  }
  std::vector<NodeId> out;
  for (const auto& [slot, count] : runs) {
    auto& pool = pools[static_cast<std::size_t>(
        leaf_order[static_cast<std::size_t>(slot)])];
    for (std::int32_t i = 0; i < count; ++i) {
      EXPECT_FALSE(pool.empty()) << "tree too small for the drawn shape";
      out.push_back(pool.back());
      pool.pop_back();
    }
  }
  return out;
}

TEST(ShapeKeyProperty, RealizationsOfOneShapeShareTheCanonicalKey) {
  // 8 leaves x 64 nodes: room for any drawn shape (<= 32 nodes per slot).
  const Tree tree = make_two_level_tree(8, 64);
  std::mt19937_64 rng(0xC0FFEE);
  std::vector<int> leaf_ids(static_cast<std::size_t>(tree.leaf_count()));
  std::iota(leaf_ids.begin(), leaf_ids.end(), 0);

  for (int trial = 0; trial < 300; ++trial) {
    const Runs runs = random_runs(rng);
    const ShapeKey expected = canonicalize(runs);

    // Several independent realizations: different concrete leaves, nodes
    // drawn scattered or contiguous — all must canonicalize identically.
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<int> leaf_order = leaf_ids;
      std::shuffle(leaf_order.begin(), leaf_order.end(), rng);
      const bool fragmented = rep != 0;
      const std::vector<NodeId> nodes =
          realize(tree, runs, leaf_order, fragmented, rng);
      const ShapeKey key = make_shape_key(tree, nodes);
      ASSERT_EQ(key, expected)
          << "trial " << trial << " rep " << rep
          << ": realization changed the canonical key";
      ASSERT_EQ(hash_value(key), hash_value(expected));
    }
  }
}

TEST(ShapeKeyProperty, PermutingWholeRunsPermutesSlotNamesCanonically) {
  const Tree tree = make_two_level_tree(8, 64);
  std::mt19937_64 rng(42);
  // "A A B B" and "B B A A" are *different* shapes under first-appearance
  // naming only when run lengths differ; with symmetric runs they map to
  // the same canonical key. Check both directions explicitly.
  const Runs symmetric = {{0, 2}, {1, 2}};
  const Runs swapped = {{1, 2}, {0, 2}};
  EXPECT_EQ(canonicalize(symmetric), canonicalize(swapped));

  const Runs asymmetric = {{0, 3}, {1, 1}};
  const Runs asym_swapped = {{1, 1}, {0, 3}};
  EXPECT_NE(canonicalize(asymmetric), canonicalize(asym_swapped));

  // And the realized keys agree with the abstract ones.
  std::vector<int> order = {5, 2, 0, 7, 1, 3, 4, 6};
  EXPECT_EQ(make_shape_key(
                tree, realize(tree, symmetric, order, true, rng)),
            canonicalize(swapped));
  EXPECT_NE(make_shape_key(
                tree, realize(tree, asymmetric, order, true, rng)),
            canonicalize(asym_swapped));
}

TEST(ShapeKeyProperty, DistinctCanonicalShapesNeitherCompareEqualNorCollide) {
  std::mt19937_64 rng(0xDECAF);
  std::map<Runs, std::uint64_t> seen;  // canonical runs -> hash
  std::map<std::uint64_t, Runs> by_hash;
  int distinct = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const ShapeKey key = canonicalize(random_runs(rng));
    const std::uint64_t h = hash_value(key);
    const auto [it, inserted] = seen.try_emplace(key.runs, h);
    if (!inserted) {
      EXPECT_EQ(it->second, h) << "equal shapes must hash equally";
      continue;
    }
    ++distinct;
    const auto [hit, fresh] = by_hash.try_emplace(h, key.runs);
    EXPECT_TRUE(fresh) << "hash collision between distinct canonical shapes";
  }
  // The generator must actually exercise a large distinct sample.
  EXPECT_GT(distinct, 1000);
}

TEST(ShapeKeyProperty, KeyIgnoresWhichConcreteNodesHostTheRanks) {
  const Tree tree = make_two_level_tree(4, 16);
  // Contiguous prefix of leaf 0 vs an arbitrary scattered subset of leaf 2:
  // both are "4 nodes under one leaf".
  const auto l0 = tree.nodes_of_leaf(tree.leaves()[0]);
  const auto l2 = tree.nodes_of_leaf(tree.leaves()[2]);
  const std::vector<NodeId> contiguous(l0.begin(), l0.begin() + 4);
  const std::vector<NodeId> scattered = {l2[13], l2[1], l2[7], l2[4]};
  EXPECT_EQ(make_shape_key(tree, contiguous),
            make_shape_key(tree, scattered));

  // Splitting the same four nodes across two leaves is a different shape.
  const std::vector<NodeId> split = {l0[0], l0[1], l2[0], l2[1]};
  EXPECT_NE(make_shape_key(tree, contiguous), make_shape_key(tree, split));
}

// --- Run walk vs a naive per-node oracle ------------------------------------

// The obvious per-node canonicalization: an ordered map from leaf to
// first-appearance slot, a set of listed nodes, one lookup per node, and a
// run extended whenever two neighbors share a slot.
ShapeKey naive_shape_key(const Tree& tree, std::span<const NodeId> nodes) {
  ShapeKey key;
  std::map<SwitchId, std::int32_t> slot_of_leaf;
  std::set<NodeId> listed;
  for (const NodeId n : nodes) {
    if (!listed.insert(n).second)
      throw InvariantError("allocation lists a node twice");
    const auto [it, inserted] = slot_of_leaf.try_emplace(
        tree.leaf_of(n), static_cast<std::int32_t>(slot_of_leaf.size()));
    if (!key.runs.empty() && key.runs.back().first == it->second)
      ++key.runs.back().second;
    else
      key.runs.emplace_back(it->second, 1);
  }
  key.total_nodes = static_cast<int>(nodes.size());
  key.num_slots = static_cast<int>(slot_of_leaf.size());
  return key;
}

// What a fuzzed list exercised, so the test can insist on coverage.
struct ListCoverage {
  int revisits = 0;      // a run on a leaf an earlier run already visited
  int single_runs = 0;   // runs of one node
  int whole_leaves = 0;  // runs that take every node of their leaf
  int unsorted = 0;      // runs whose node ids are not ascending
};

// A fuzzed ordered node list of distinct nodes: runs on random leaves
// (revisiting earlier ones A-B-A), each drawing 1..all remaining nodes of
// its leaf from a shuffled pool, so ids within a run are unsorted.
std::vector<NodeId> fuzzed_list(const Tree& tree, std::mt19937_64& rng,
                                ListCoverage& cov) {
  std::vector<std::vector<NodeId>> pools;
  for (const SwitchId leaf : tree.leaves()) {
    const auto nodes = tree.nodes_of_leaf(leaf);
    pools.emplace_back(nodes.begin(), nodes.end());
    std::shuffle(pools.back().begin(), pools.back().end(), rng);
  }
  std::vector<bool> visited(pools.size(), false);
  std::uniform_int_distribution<std::size_t> pick_leaf(0, pools.size() - 1);
  std::uniform_int_distribution<int> n_runs(1, 10);
  std::vector<NodeId> out;
  std::size_t last = pools.size();
  for (int r = n_runs(rng); r > 0; --r) {
    std::size_t leaf = pick_leaf(rng);
    if (leaf == last) leaf = (leaf + 1) % pools.size();
    auto& pool = pools[leaf];
    if (pool.empty() || leaf == last) continue;
    const auto leaf_size = tree.nodes_of_leaf(tree.leaves()[leaf]).size();
    // Bias toward the run shapes the walk special-cases.
    std::size_t len = 1;
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0: len = 1; break;
      case 1: len = pool.size(); break;
      default:
        len = std::uniform_int_distribution<std::size_t>(1, pool.size())(rng);
    }
    cov.revisits += visited[leaf] ? 1 : 0;
    cov.single_runs += len == 1 ? 1 : 0;
    cov.whole_leaves += len == leaf_size ? 1 : 0;
    const std::vector<NodeId> run(pool.end() - static_cast<std::ptrdiff_t>(len),
                                  pool.end());
    cov.unsorted += std::is_sorted(run.begin(), run.end()) ? 0 : 1;
    out.insert(out.end(), run.begin(), run.end());
    pool.resize(pool.size() - len);
    visited[leaf] = true;
    last = leaf;
  }
  return out;
}

TEST(ShapeKeyProperty, RunWalkMatchesPerNodeOracleAcrossTopologies) {
  // Two topologies with different leaf and node counts, alternated on one
  // thread, so the per-thread scratch is resized and reused both ways.
  const Tree trees[] = {make_two_level_tree(8, 16),
                        make_three_level_tree(3, 4, 5)};
  std::mt19937_64 rng(0x5EED'15);
  ListCoverage cov;
  for (int trial = 0; trial < 2000; ++trial) {
    const Tree& tree = trees[trial % 2];
    const std::vector<NodeId> nodes = fuzzed_list(tree, rng, cov);
    ASSERT_EQ(make_shape_key(tree, nodes), naive_shape_key(tree, nodes))
        << "trial " << trial;
  }
  EXPECT_GT(cov.revisits, 500);
  EXPECT_GT(cov.single_runs, 500);
  EXPECT_GT(cov.whole_leaves, 500);
  EXPECT_GT(cov.unsorted, 500);
}

TEST(ShapeKeyProperty, DuplicateThrowLeavesTheNextKeyCorrect) {
  const Tree trees[] = {make_two_level_tree(8, 16),
                        make_three_level_tree(3, 4, 5)};
  std::mt19937_64 rng(0xD0B1E);
  ListCoverage cov;
  int cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Tree& tree = trees[trial % 2];
    std::vector<NodeId> base = fuzzed_list(tree, rng, cov);
    if (base.size() < 3) continue;
    const auto last = base.size() - 1;
    // Where the second copy of a listed node lands.
    std::vector<std::vector<NodeId>> dups;
    auto with = [&](std::size_t pos, NodeId n) {
      std::vector<NodeId> d = base;
      d.insert(d.begin() + static_cast<std::ptrdiff_t>(pos), n);
      dups.push_back(std::move(d));
    };
    with(0, base[last]);         // first position repeats the last node
    with(base.size(), base[0]);  // last position repeats the first node
    with(1, base[0]);            // adjacent, inside one run
    // Cross-run: the first run's last node re-listed inside the next run.
    std::size_t first_run = 1;
    while (first_run < base.size() &&
           tree.leaf_of(base[first_run]) == tree.leaf_of(base[0]))
      ++first_run;
    if (first_run < base.size()) with(first_run + 1, base[first_run - 1]);
    for (const auto& d : dups) {
      EXPECT_THROW(naive_shape_key(tree, d), InvariantError);
      EXPECT_THROW(make_shape_key(tree, d), InvariantError);
      ++cases;
      // The next key on this thread, on either topology, is still right.
      const Tree& next = trees[(trial + cases) % 2];
      const std::vector<NodeId> ok = fuzzed_list(next, rng, cov);
      ASSERT_EQ(make_shape_key(next, ok), naive_shape_key(next, ok))
          << "trial " << trial << ": key after a duplicate-node throw";
    }
  }
  EXPECT_GT(cases, 1000);
}

}  // namespace
}  // namespace commsched
