#include "collectives/comm_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "collectives/schedule.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

using Runs = std::vector<std::pair<std::int32_t, std::int32_t>>;
using Pairs = std::vector<std::pair<std::int32_t, std::int32_t>>;

// --- ShapeKey canonicalization ---------------------------------------------

TEST(ShapeKeyTest, CanonicalizesAwayConcreteLeafIdentity) {
  // Figure 2 tree: n0..n3 under s0, n4..n7 under s1.
  const Tree tree = make_figure2_tree();
  const ShapeKey a = make_shape_key(tree, std::vector<NodeId>{0, 1});
  const ShapeKey b = make_shape_key(tree, std::vector<NodeId>{4, 5});
  EXPECT_EQ(a, b);  // "2 nodes under one leaf", whichever leaf it is
  EXPECT_EQ(a.runs, (Runs{{0, 2}}));
  EXPECT_EQ(a.total_nodes, 2);
  EXPECT_EQ(a.num_slots, 1);

  const ShapeKey c = make_shape_key(tree, std::vector<NodeId>{0, 1, 4, 5});
  const ShapeKey d = make_shape_key(tree, std::vector<NodeId>{4, 5, 0, 1});
  EXPECT_EQ(c, d);  // first-appearance slot naming hides which leaf is "0"
  EXPECT_EQ(c.runs, (Runs{{0, 2}, {1, 2}}));
  EXPECT_EQ(c.num_slots, 2);
}

TEST(ShapeKeyTest, DistinguishesDifferentRankToLeafStructures) {
  const Tree tree = make_figure2_tree();
  const ShapeKey block = make_shape_key(tree, std::vector<NodeId>{0, 1, 4, 5});
  const ShapeKey striped =
      make_shape_key(tree, std::vector<NodeId>{0, 4, 1, 5});
  EXPECT_NE(block, striped);
  EXPECT_EQ(striped.runs, (Runs{{0, 1}, {1, 1}, {0, 1}, {1, 1}}));
  EXPECT_EQ(striped.num_slots, 2);  // revisiting a leaf reuses its slot
}

TEST(ShapeKeyTest, RevisitedLeafKeepsItsFirstAppearanceSlot) {
  const Tree tree = make_figure2_tree();
  const ShapeKey key = make_shape_key(tree, std::vector<NodeId>{4, 0, 5});
  EXPECT_EQ(key.runs, (Runs{{0, 1}, {1, 1}, {0, 1}}));
  EXPECT_EQ(key.total_nodes, 3);
  EXPECT_EQ(key.num_slots, 2);
}

TEST(ShapeKeyTest, RejectsDuplicateNodes) {
  const Tree tree = make_figure2_tree();
  EXPECT_THROW(make_shape_key(tree, std::vector<NodeId>{0, 1, 0}),
               InvariantError);
}

// --- Profile construction, hand-checked ------------------------------------

TEST(LeafCommProfileTest, TwoRanksAcrossLeaves) {
  const Tree tree = make_figure2_tree();
  const ShapeKey shape = make_shape_key(tree, std::vector<NodeId>{0, 4});
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRecursiveDoubling, 256.0, shape, 1);
  EXPECT_EQ(profile.nprocs, 2);
  EXPECT_EQ(profile.num_slots, 2);
  EXPECT_EQ(profile.ranks_per_node, 1);
  ASSERT_EQ(profile.steps.size(), 1u);
  const ProfileStep& step = profile.steps[0];
  EXPECT_EQ(profile.classes.at(step.cls).leaf_pairs, (Pairs{{0, 1}}));
  EXPECT_EQ(step.rank_pairs, 1);
  EXPECT_EQ(step.same_node_pairs, 0);
  EXPECT_EQ(step.same_leaf_pairs, 0);
  EXPECT_DOUBLE_EQ(step.msize, 256.0);
  EXPECT_EQ(step.repeat, 1);
}

TEST(LeafCommProfileTest, MultirankStepCanBeEntirelyOnNode) {
  // 2 nodes x 2 ranks each, RD over 4 ranks: step 0 pairs ranks (0,1),(2,3)
  // — both within a node, so the step's leaf-pair class is empty; step 1
  // pairs (0,2),(1,3) both cross the two leaves.
  const Tree tree = make_figure2_tree();
  const ShapeKey shape = make_shape_key(tree, std::vector<NodeId>{0, 4});
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRecursiveDoubling, 64.0, shape, 2);
  EXPECT_EQ(profile.nprocs, 4);
  ASSERT_EQ(profile.steps.size(), 2u);
  EXPECT_TRUE(profile.classes.at(profile.steps[0].cls).leaf_pairs.empty());
  EXPECT_EQ(profile.steps[0].rank_pairs, 2);
  EXPECT_EQ(profile.steps[0].same_node_pairs, 2);
  EXPECT_EQ(profile.classes.at(profile.steps[1].cls).leaf_pairs,
            (Pairs{{0, 1}}));
  EXPECT_EQ(profile.steps[1].rank_pairs, 2);
  EXPECT_EQ(profile.steps[1].same_node_pairs, 0);
}

TEST(LeafCommProfileTest, SameLeafCrossNodePairsAppearAsDiagonal) {
  const Tree tree = make_figure2_tree();
  const ShapeKey shape = make_shape_key(tree, std::vector<NodeId>{0, 1});
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRecursiveDoubling, 1.0, shape, 1);
  ASSERT_EQ(profile.steps.size(), 1u);
  EXPECT_EQ(profile.classes.at(profile.steps[0].cls).leaf_pairs,
            (Pairs{{0, 0}}));
  EXPECT_EQ(profile.steps[0].same_leaf_pairs, 1);
}

TEST(LeafCommProfileTest, AlltoallStreamsFarBeyondMaterializationCap) {
  // 16 nodes block-contiguous over 2 leaves x 512 ranks/node = 8192 ranks,
  // twice the materialization cap. XOR matching has no carries, so step k's
  // structure depends only on k's high bits: k < 512 stays on-node (empty
  // class), 512 <= k < 4096 stays on-leaf ({(0,0),(1,1)}), k >= 4096
  // crosses ({(0,1)}). The profile must discover exactly those 3 classes.
  const Tree tree = make_two_level_tree(2, 8);
  std::vector<NodeId> nodes(16);
  for (int i = 0; i < 16; ++i) nodes[i] = static_cast<NodeId>(i);
  const ShapeKey shape = make_shape_key(tree, nodes);
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kPairwiseAlltoall, 1.0, shape, 512);
  EXPECT_EQ(profile.nprocs, 8192);
  EXPECT_EQ(profile.steps.size(), 8191u);
  EXPECT_EQ(profile.classes.size(), 3u);
  std::int64_t rank_pairs = 0;
  for (const ProfileStep& step : profile.steps) rank_pairs += step.rank_pairs;
  EXPECT_EQ(rank_pairs, static_cast<std::int64_t>(8192) * 8191 / 2);
}

// --- Closed form vs. the streaming oracle ----------------------------------

// Field-for-field, no tolerance: the closed form must reproduce the
// streamed profile bit for bit, class order and msize expressions included.
void expect_same_profile(const LeafCommProfile& got,
                         const LeafCommProfile& want,
                         const std::string& label) {
  EXPECT_EQ(got.num_slots, want.num_slots) << label;
  EXPECT_EQ(got.nprocs, want.nprocs) << label;
  EXPECT_EQ(got.ranks_per_node, want.ranks_per_node) << label;
  EXPECT_EQ(got.base_msize, want.base_msize) << label;
  ASSERT_EQ(got.classes.size(), want.classes.size()) << label;
  for (std::size_t c = 0; c < got.classes.size(); ++c)
    EXPECT_EQ(got.classes[c].leaf_pairs, want.classes[c].leaf_pairs)
        << label << " class " << c;
  ASSERT_EQ(got.steps.size(), want.steps.size()) << label;
  for (std::size_t s = 0; s < got.steps.size(); ++s) {
    const ProfileStep& g = got.steps[s];
    const ProfileStep& w = want.steps[s];
    EXPECT_EQ(g.cls, w.cls) << label << " step " << s;
    EXPECT_EQ(g.msize, w.msize) << label << " step " << s;
    EXPECT_EQ(g.repeat, w.repeat) << label << " step " << s;
    EXPECT_EQ(g.rank_pairs, w.rank_pairs) << label << " step " << s;
    EXPECT_EQ(g.same_node_pairs, w.same_node_pairs) << label << " step " << s;
    EXPECT_EQ(g.same_leaf_pairs, w.same_leaf_pairs) << label << " step " << s;
  }
}

// A canonical key of `nodes` nodes whose runs revisit earlier slots: each
// run either opens a new slot (first-appearance naming) or returns to an
// earlier one other than its predecessor.
ShapeKey random_shape(Rng& rng, int nodes) {
  ShapeKey key;
  key.total_nodes = nodes;
  const int max_run = static_cast<int>(rng.uniform_int(1, 64));
  for (int covered = 0; covered < nodes;) {
    const int count = static_cast<int>(
        rng.uniform_int(1, std::min(max_run, nodes - covered)));
    std::int32_t slot = key.num_slots;
    if (key.num_slots >= 2 && rng.bernoulli(0.5)) {
      do {
        slot = static_cast<std::int32_t>(
            rng.uniform_int(0, key.num_slots - 1));
      } while (slot == key.runs.back().first);
    }
    if (slot == key.num_slots) ++key.num_slots;
    key.runs.emplace_back(slot, count);
    covered += count;
  }
  return key;
}

TEST(LeafCommProfileTest, ClosedFormMatchesStreamingOnFuzzedShapes) {
  // RD, RHVD and binomial; power-of-two and ragged rank counts up to 4096;
  // ranks_per_node 1-4 (3 exercises the streaming fallback through the
  // public entry point). Rank counts are log-uniform so most shapes are
  // small and every size class is hit.
  Rng rng(20261017);
  int compared = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    for (const Pattern pattern :
         {Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
          Pattern::kBinomial}) {
      for (const int rpn : {1, 2, 3, 4}) {
        const int lg = static_cast<int>(rng.uniform_int(0, 12));
        int nprocs = 1 << lg;
        if (rng.bernoulli(0.5))  // ragged: anywhere up to that power
          nprocs = static_cast<int>(rng.uniform_int(1, nprocs));
        const int nodes = std::max(1, nprocs / rpn);
        const ShapeKey shape = random_shape(rng, nodes);
        const double msize = static_cast<double>(rng.uniform_int(1, 1 << 20));
        const std::string label = std::string(pattern_name(pattern)) +
                                  "/nodes=" + std::to_string(nodes) +
                                  "/rpn=" + std::to_string(rpn) +
                                  "/runs=" +
                                  std::to_string(shape.runs.size());
        expect_same_profile(
            make_leaf_comm_profile(pattern, msize, shape, rpn),
            make_leaf_comm_profile_streamed(pattern, msize, shape, rpn),
            label);
        if (HasFailure()) return;  // one diverging shape is enough to report
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 1500 * 3 * 4);
}

TEST(LeafCommProfileTest, ClosedFormHandWorkedShape) {
  // Nodes n0 n1 n2 n3 under slots 0 0 1 0 (runs {0:2, 1:1, 0:1}), two ranks
  // per node: ranks 0-3 on slot 0, 4-5 on slot 1, 6-7 on slot 0 again.
  const ShapeKey shape{{{0, 2}, {1, 1}, {0, 1}}, 4, 2};

  // RHVD over 8 ranks: d = 4, 2, 1 with msize m, 2m, 4m.
  //   d=4: (0,4) (1,5) -> slots (0,1); (2,6) (3,7) -> (0,0), cross-node.
  //   d=2: (0,2) (1,3) -> (0,0); (4,6) (5,7) -> (1,0) = (0,1).
  //   d=1: (0,1) (2,3) (4,5) (6,7) all stay on their node.
  // Steps 0 and 1 share the class {(0,0),(0,1)}; step 2's is empty.
  const LeafCommProfile rhvd =
      make_leaf_comm_profile(Pattern::kRecursiveHalvingVD, 8.0, shape, 2);
  ASSERT_EQ(rhvd.classes.size(), 2u);
  EXPECT_EQ(rhvd.classes[0].leaf_pairs, (Pairs{{0, 0}, {0, 1}}));
  EXPECT_TRUE(rhvd.classes[1].leaf_pairs.empty());
  ASSERT_EQ(rhvd.steps.size(), 3u);
  const std::int32_t rhvd_cls[] = {0, 0, 1};
  const double rhvd_msize[] = {8.0, 16.0, 32.0};
  const std::int64_t rhvd_same_node[] = {0, 0, 4};
  const std::int64_t rhvd_same_leaf[] = {2, 2, 0};
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rhvd.steps[s].cls, rhvd_cls[s]) << s;
    EXPECT_EQ(rhvd.steps[s].msize, rhvd_msize[s]) << s;
    EXPECT_EQ(rhvd.steps[s].rank_pairs, 4) << s;
    EXPECT_EQ(rhvd.steps[s].same_node_pairs, rhvd_same_node[s]) << s;
    EXPECT_EQ(rhvd.steps[s].same_leaf_pairs, rhvd_same_leaf[s]) << s;
  }

  // Binomial over the first three nodes (6 ranks, ragged): d = 1, 2, 4 and
  // i < min(d, 6 - d).
  //   d=1: (0,1) on node 0.
  //   d=2: (0,2) (1,3) -> nodes 0-1, both slot 0.
  //   d=4: (0,4) (1,5) -> slots (0,1); i = 2, 3 would pass rank 5.
  const ShapeKey head{{{0, 2}, {1, 1}}, 3, 2};
  const LeafCommProfile binomial =
      make_leaf_comm_profile(Pattern::kBinomial, 8.0, head, 2);
  ASSERT_EQ(binomial.classes.size(), 3u);
  EXPECT_TRUE(binomial.classes[0].leaf_pairs.empty());
  EXPECT_EQ(binomial.classes[1].leaf_pairs, (Pairs{{0, 0}}));
  EXPECT_EQ(binomial.classes[2].leaf_pairs, (Pairs{{0, 1}}));
  ASSERT_EQ(binomial.steps.size(), 3u);
  const std::int64_t binomial_pairs[] = {1, 2, 2};
  const std::int64_t binomial_same_node[] = {1, 0, 0};
  const std::int64_t binomial_same_leaf[] = {0, 2, 0};
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(binomial.steps[s].cls, static_cast<std::int32_t>(s)) << s;
    EXPECT_EQ(binomial.steps[s].msize, 8.0) << s;
    EXPECT_EQ(binomial.steps[s].rank_pairs, binomial_pairs[s]) << s;
    EXPECT_EQ(binomial.steps[s].same_node_pairs, binomial_same_node[s]) << s;
    EXPECT_EQ(binomial.steps[s].same_leaf_pairs, binomial_same_leaf[s]) << s;
  }

  // And both agree with the streaming oracle.
  expect_same_profile(rhvd,
                      make_leaf_comm_profile_streamed(
                          Pattern::kRecursiveHalvingVD, 8.0, shape, 2),
                      "rhvd");
  expect_same_profile(
      binomial,
      make_leaf_comm_profile_streamed(Pattern::kBinomial, 8.0, head, 2),
      "binomial");
}

// --- CommCache memoization --------------------------------------------------

TEST(CommCacheTest, ProfileHitsOnCanonicallyEqualShapes) {
  const Tree tree = make_figure2_tree();
  CommCache cache(1.0);
  const ShapeKey a = make_shape_key(tree, std::vector<NodeId>{0, 1});
  const ShapeKey b = make_shape_key(tree, std::vector<NodeId>{6, 7});
  const LeafCommProfile& pa =
      cache.profile(Pattern::kRecursiveDoubling, 1, a);
  const LeafCommProfile& pb =
      cache.profile(Pattern::kRecursiveDoubling, 1, b);
  EXPECT_EQ(&pa, &pb);  // same canonical shape -> one cached profile
  EXPECT_EQ(cache.stats().profile_misses, 1u);
  EXPECT_EQ(cache.stats().profile_hits, 1u);

  // Different pattern, rpn, or shape each miss separately.
  cache.profile(Pattern::kBinomial, 1, a);
  cache.profile(Pattern::kRecursiveDoubling, 2, a);
  cache.profile(Pattern::kRecursiveDoubling, 1,
                make_shape_key(tree, std::vector<NodeId>{0, 4}));
  EXPECT_EQ(cache.stats().profile_misses, 4u);
  EXPECT_EQ(cache.stats().profile_hits, 1u);
}

TEST(CommCacheTest, ProfileReferencesSurviveRehash) {
  const Tree tree = make_two_level_tree(8, 4);
  CommCache cache(1.0);
  const ShapeKey first = make_shape_key(tree, std::vector<NodeId>{0, 1});
  const LeafCommProfile& pinned =
      cache.profile(Pattern::kRecursiveDoubling, 1, first);
  const ProfileStep recorded = pinned.steps.at(0);
  // Insert many distinct shapes to force table growth.
  for (int n = 2; n <= 30; ++n) {
    std::vector<NodeId> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(static_cast<NodeId>(i));
    cache.profile(Pattern::kRecursiveDoubling, 1, make_shape_key(tree, nodes));
  }
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveDoubling, 1, first), &pinned);
  EXPECT_EQ(pinned.steps.at(0).rank_pairs, recorded.rank_pairs);
}

TEST(CommCacheTest, LookupBorrowsTheCallersKeyAndCopiesOnlyOnMiss) {
  const Tree tree = make_two_level_tree(4, 8);
  CommCache cache(1.0);
  const std::vector<NodeId> nodes{0, 1, 8, 9, 2};  // A-B-A: three runs

  // A temporary key, destroyed right after its lookup: the cache must have
  // stored its own copy.
  const LeafCommProfile* first =
      &cache.profile(Pattern::kRecursiveHalvingVD, 1,
                     make_shape_key(tree, nodes));
  EXPECT_EQ(cache.stats().profile_misses, 1u);
  EXPECT_EQ(cache.stats().profile_hits, 0u);

  // An equal but distinct key object (other concrete leaves and nodes) hits
  // and returns the same reference.
  const ShapeKey other =
      make_shape_key(tree, std::vector<NodeId>{30, 31, 16, 17, 29});
  ASSERT_EQ(other, make_shape_key(tree, nodes));
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveHalvingVD, 1, other), first);
  EXPECT_EQ(cache.stats().profile_hits, 1u);
  {
    const ShapeKey copy = other;  // dies at the end of this scope
    EXPECT_EQ(&cache.profile(Pattern::kRecursiveHalvingVD, 1, copy), first);
  }
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveHalvingVD, 1,
                           make_shape_key(tree, nodes)),
            first);
  EXPECT_EQ(cache.stats().profile_hits, 3u);
  EXPECT_EQ(cache.stats().profile_misses, 1u);

  // The same shape under another pattern or another rpn is another entry.
  const LeafCommProfile& rd =
      cache.profile(Pattern::kRecursiveDoubling, 1, other);
  const LeafCommProfile& rpn2 =
      cache.profile(Pattern::kRecursiveHalvingVD, 2, other);
  EXPECT_NE(&rd, first);
  EXPECT_NE(&rpn2, first);
  EXPECT_NE(&rd, &rpn2);
  EXPECT_EQ(rpn2.ranks_per_node, 2);
  EXPECT_EQ(cache.stats().profile_misses, 3u);
  EXPECT_EQ(cache.stats().profile_hits, 3u);

  // Each of the three entries now hits, and only hits.
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveDoubling, 1, other), &rd);
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveHalvingVD, 2, other), &rpn2);
  EXPECT_EQ(&cache.profile(Pattern::kRecursiveHalvingVD, 1, other), first);
  EXPECT_EQ(cache.stats().profile_misses, 3u);
  EXPECT_EQ(cache.stats().profile_hits, 6u);
  // Profile lookups never touch the schedule counters.
  EXPECT_EQ(cache.stats().schedule_hits, 0u);
  EXPECT_EQ(cache.stats().schedule_misses, 0u);
}

TEST(CommCacheTest, OneShapeUnderManyPatternsAndRpnsKeepsEntriesApart) {
  // Sixty keys that share a shape share most of their hash input, so some
  // land in one bucket; equality must still tell pattern and rpn apart.
  const Tree tree = make_two_level_tree(4, 8);
  CommCache cache(1.0);
  const ShapeKey shape = make_shape_key(tree, std::vector<NodeId>{0, 1, 8, 2});
  const Pattern patterns[] = {
      Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
      Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};
  std::vector<const LeafCommProfile*> first_pass;
  for (const Pattern pattern : patterns) {
    for (int rpn = 1; rpn <= 12; ++rpn) {
      const LeafCommProfile& got = cache.profile(pattern, rpn, shape);
      const LeafCommProfile fresh =
          make_leaf_comm_profile(pattern, 1.0, shape, rpn);
      EXPECT_EQ(got.ranks_per_node, rpn);
      ASSERT_EQ(got.steps.size(), fresh.steps.size())
          << pattern_name(pattern) << " rpn " << rpn;
      for (std::size_t k = 0; k < got.steps.size(); ++k)
        EXPECT_EQ(got.steps[k].msize, fresh.steps[k].msize);
      first_pass.push_back(&got);
    }
  }
  EXPECT_EQ(cache.stats().profile_misses, 60u);
  EXPECT_EQ(cache.stats().profile_hits, 0u);
  std::size_t i = 0;
  for (const Pattern pattern : patterns)
    for (int rpn = 1; rpn <= 12; ++rpn)
      EXPECT_EQ(&cache.profile(pattern, rpn, shape), first_pass[i++]);
  EXPECT_EQ(cache.stats().profile_misses, 60u);
  EXPECT_EQ(cache.stats().profile_hits, 60u);
}

}  // namespace
}  // namespace commsched
