#include "collectives/comm_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/epoch_table.hpp"

namespace commsched {

namespace {

// make_shape_key's per-thread scratch: dense leaf index -> first-appearance
// slot, and the nodes already listed. Both are epoch-stamped, so every call
// starts from a clean table in O(1), even after a duplicate-node throw.
struct ShapeKeyScratch {
  EpochTable<std::int32_t> slot_of_leaf;
  EpochTable<std::uint8_t> listed;
};

ShapeKeyScratch& shape_key_scratch() {
  // thread-safe: thread_local — each thread keys with a private scratch.
  static thread_local ShapeKeyScratch scratch;
  return scratch;
}

}  // namespace

// contract-trusted: no-alloc: the key's own run vector is the result (a
// handful of runs, one per leaf visit); the scratch tables only grow to the
// largest topology seen
ShapeKey make_shape_key(const Tree& tree, std::span<const NodeId> nodes) {
  ShapeKey key;
  key.total_nodes = static_cast<int>(nodes.size());
  key.runs.reserve(8);
  ShapeKeyScratch& scratch = shape_key_scratch();
  scratch.slot_of_leaf.new_epoch(static_cast<std::size_t>(tree.leaf_count()));
  scratch.listed.new_epoch(static_cast<std::size_t>(tree.node_count()));
  // One slot lookup and one run per maximal run of nodes on one leaf;
  // consecutive runs sit on different leaves, so they never merge.
  tree.for_each_leaf_run(nodes, [&](SwitchId leaf, std::size_t first,
                                    std::size_t len) {
    for (const NodeId n : nodes.subspan(first, len)) {
      const auto i = static_cast<std::size_t>(n);
      COMMSCHED_ASSERT_MSG(!scratch.listed.is_set(i),
                           "allocation lists a node twice");
      scratch.listed.put(i, 1);
    }
    const auto li = static_cast<std::size_t>(tree.leaf_index(leaf));
    if (!scratch.slot_of_leaf.is_set(li))
      scratch.slot_of_leaf.put(li, key.num_slots++);
    key.runs.emplace_back(scratch.slot_of_leaf.entry(li),
                          static_cast<std::int32_t>(len));
  });
  return key;
}

namespace {

bool is_pow2(int x) {
  return x > 0 && std::has_single_bit(static_cast<unsigned>(x));
}

// The header fields of a profile, after checking that the shape's runs are
// well formed and cover total_nodes.
LeafCommProfile empty_profile(double base_msize, const ShapeKey& shape,
                              int ranks_per_node) {
  COMMSCHED_ASSERT_GE_MSG(ranks_per_node, 1,
                          "need at least one rank per node");
  int covered = 0;
  for (const auto& [slot, count] : shape.runs) {
    COMMSCHED_ASSERT(slot >= 0 && slot < shape.num_slots && count >= 1);
    covered += count;
  }
  COMMSCHED_ASSERT_EQ_MSG(covered, shape.total_nodes,
                          "shape runs do not cover total_nodes");
  LeafCommProfile profile;
  profile.num_slots = shape.num_slots;
  profile.ranks_per_node = ranks_per_node;
  profile.nprocs = shape.total_nodes * ranks_per_node;
  profile.base_msize = base_msize;
  return profile;
}

// The per-step tail both lowerings share: collect a step's distinct slot
// pairs, sort them, intern the set as a class in first-appearance order and
// append the ProfileStep.
class StepAssembler {
 public:
  explicit StepAssembler(LeafCommProfile& profile)
      : profile_(profile),
        k_(static_cast<std::size_t>(profile.num_slots)),
        pair_seen_(k_ * k_, 0) {}

  /// Record leaf-slot pair (sa, sb), sa <= sb, for the current step.
  void add_pair(std::int32_t sa, std::int32_t sb) {
    auto& seen = pair_seen_[index(sa, sb)];
    if (!seen) {
      seen = 1;
      step_pairs_.emplace_back(sa, sb);
    }
  }

  /// Close the current step: `step` carries everything but its class.
  void finish_step(ProfileStep step) {
    for (const auto& [sa, sb] : step_pairs_) pair_seen_[index(sa, sb)] = 0;
    std::sort(step_pairs_.begin(), step_pairs_.end());
    // Intern by linear scan: a profile has few classes (at most its steps),
    // and the scan keeps first-appearance numbering with no per-class key.
    const auto it = std::find_if(
        profile_.classes.begin(), profile_.classes.end(),
        [&](const ProfileStepClass& c) { return c.leaf_pairs == step_pairs_; });
    step.cls = static_cast<std::int32_t>(it - profile_.classes.begin());
    if (it == profile_.classes.end()) profile_.classes.push_back({step_pairs_});
    profile_.steps.push_back(step);
    step_pairs_.clear();
  }

 private:
  std::size_t index(std::int32_t sa, std::int32_t sb) const {
    return static_cast<std::size_t>(sa) * k_ + static_cast<std::size_t>(sb);
  }

  LeafCommProfile& profile_;
  std::size_t k_;
  std::vector<std::uint8_t> pair_seen_;
  std::vector<std::pair<std::int32_t, std::int32_t>> step_pairs_;
};

// Whether every step of `pattern` at `nprocs` ranks pairs rank i with
// i + d for d a power of two, and node boundaries fall on power-of-two
// rank boundaries — the preconditions of the closed-form lowering.
bool has_closed_form(Pattern pattern, int nprocs, int ranks_per_node) {
  if (!is_pow2(ranks_per_node)) return false;
  switch (pattern) {
    case Pattern::kRecursiveDoubling:
    case Pattern::kRecursiveHalvingVD:
      return is_pow2(nprocs);
    case Pattern::kBinomial:
      return true;
    case Pattern::kRing:
    case Pattern::kPairwiseAlltoall:
      return false;
  }
  return false;
}

// Closed-form lowering of RD/RHVD at power-of-two p and binomial at any p
// (power-of-two ranks_per_node). A step at distance d pairs i with i + d for
// every i < limit whose bit d is clear: limit = p - d for the XOR patterns
// (no i in [p - d, p) has bit d clear) and min(d, p - d) for binomial
// (where i < d makes the bit test vacuous). count_below(x) counts such i in
// [0, x), so the pairs between run A and run B are counted in O(1) from the
// overlap of A's partner interval with B; a two-pointer walk visits each
// overlapping (A, B) once. If d < rpn the partner shares i's node (d and
// rpn are powers of two, so adding d never carries past the node's bits);
// otherwise d is a multiple of rpn and no pair does.
void closed_form_steps(Pattern pattern, const ShapeKey& shape,
                       LeafCommProfile& profile) {
  const int p = profile.nprocs;
  const int rpn = profile.ranks_per_node;
  // Run r covers ranks [start[r], start[r + 1]).
  const std::size_t runs = shape.runs.size();
  std::vector<int> start;
  start.reserve(runs + 1);
  start.push_back(0);
  for (const auto& [slot, count] : shape.runs)
    start.push_back(start.back() + count * rpn);

  StepAssembler assembler(profile);

  const bool binomial = pattern == Pattern::kBinomial;
  const auto emit = [&](int d, double msize) {
    const int limit = binomial ? std::min(d, p - d) : p - d;
    const auto count_below = [d](int x) {
      return static_cast<std::int64_t>(x / (2 * d)) * d +
             std::min(x % (2 * d), d);
    };
    ProfileStep ps;
    ps.msize = msize;
    ps.rank_pairs = count_below(limit);
    if (d < rpn) {
      ps.same_node_pairs = ps.rank_pairs;
      assembler.finish_step(ps);
      return;
    }
    std::size_t first = 0;  // first run ending past lo_a + d
    for (std::size_t a = 0; a < runs && start[a] < limit; ++a) {
      const int lo_a = start[a];
      const int hi_a = std::min(start[a + 1], limit);
      while (start[first + 1] <= lo_a + d) ++first;
      for (std::size_t b = first; b < runs && start[b] < hi_a + d; ++b) {
        const int lo = std::max(lo_a, start[b] - d);
        const int hi = std::min(hi_a, start[b + 1] - d);
        const std::int64_t n = count_below(hi) - count_below(lo);
        if (n == 0) continue;
        auto sa = shape.runs[a].first;
        auto sb = shape.runs[b].first;
        if (sa > sb) std::swap(sa, sb);
        if (sa == sb) ps.same_leaf_pairs += n;
        assembler.add_pair(sa, sb);
      }
    }
    assembler.finish_step(ps);
  };

  // Same step order and msize expressions as the schedule generators.
  const int lg = std::bit_width(static_cast<unsigned>(p)) - 1;
  switch (pattern) {
    case Pattern::kRecursiveDoubling:
      for (int k = 0; k < lg; ++k) emit(1 << k, profile.base_msize);
      break;
    case Pattern::kRecursiveHalvingVD:
      for (int k = 0; k < lg; ++k)
        emit(p >> (k + 1),
             profile.base_msize * static_cast<double>(1 << k));
      break;
    case Pattern::kBinomial:
      for (int k = 0; (1 << k) < p; ++k) emit(1 << k, profile.base_msize);
      break;
    case Pattern::kRing:
    case Pattern::kPairwiseAlltoall:
      COMMSCHED_ASSERT_MSG(false, "pattern has no closed-form profile");
  }
}

}  // namespace

LeafCommProfile make_leaf_comm_profile_streamed(Pattern pattern,
                                                double base_msize,
                                                const ShapeKey& shape,
                                                int ranks_per_node) {
  LeafCommProfile profile = empty_profile(base_msize, shape, ranks_per_node);
  if (profile.nprocs < 2) return profile;

  // Expand the RLE back to node index -> leaf slot.
  std::vector<std::int32_t> node_slot;
  node_slot.reserve(static_cast<std::size_t>(shape.total_nodes));
  for (const auto& [slot, count] : shape.runs)
    node_slot.insert(node_slot.end(), static_cast<std::size_t>(count),
                     slot);

  StepAssembler assembler(profile);
  for_each_schedule_step(
      pattern, profile.nprocs, base_msize, [&](const CommStep& step) {
        ProfileStep ps;
        ps.msize = step.msize;
        ps.repeat = step.repeat;
        for (const auto& [ri, rj] : step.pairs) {
          COMMSCHED_ASSERT_MSG(ri >= 0 && rj >= 0 && ri < profile.nprocs &&
                                   rj < profile.nprocs,
                               "schedule rank out of range for this shape");
          ++ps.rank_pairs;
          const int ni = ri / ranks_per_node;
          const int nj = rj / ranks_per_node;
          if (ni == nj) {
            ++ps.same_node_pairs;  // zero hops, never priced
            continue;
          }
          auto sa = node_slot[static_cast<std::size_t>(ni)];
          auto sb = node_slot[static_cast<std::size_t>(nj)];
          if (sa > sb) std::swap(sa, sb);
          if (sa == sb) ++ps.same_leaf_pairs;
          assembler.add_pair(sa, sb);
        }
        assembler.finish_step(ps);
        return true;
      });
  return profile;
}

LeafCommProfile make_leaf_comm_profile(Pattern pattern, double base_msize,
                                       const ShapeKey& shape,
                                       int ranks_per_node) {
  if (!has_closed_form(pattern, shape.total_nodes * ranks_per_node,
                       ranks_per_node))
    return make_leaf_comm_profile_streamed(pattern, base_msize, shape,
                                           ranks_per_node);
  LeafCommProfile profile = empty_profile(base_msize, shape, ranks_per_node);
  if (profile.nprocs >= 2) closed_form_steps(pattern, shape, profile);
  return profile;
}

std::uint64_t hash_value(const ShapeKey& key) noexcept {
  // FNV-1a over the run list; the runs fully determine the shape
  // (total_nodes and num_slots are derived from them).
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& [slot, count] : key.runs) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(count)));
  }
  return h;
}

std::size_t CommCache::ProfileKeyHash::hash(
    const ProfileKeyView& key) noexcept {
  std::uint64_t h = hash_value(*key.shape);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(key.pattern));
  mix(static_cast<std::uint64_t>(key.ranks_per_node));
  return static_cast<std::size_t>(h);
}

const CommSchedule& CommCache::schedule(Pattern pattern, int nprocs) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pattern) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(nprocs));
  const auto it = schedules_.find(key);
  if (it != schedules_.end()) {
    ++stats_.schedule_hits;
    return it->second;
  }
  ++stats_.schedule_misses;
  return schedules_.emplace(key, make_schedule(pattern, nprocs, base_msize_))
      .first->second;
}

// contract-trusted: no-alloc: memoizing run-wide cache; allocates only on
// the first sighting of a (pattern, shape) pair, steady-state lookups are
// hit-only (see stats_.profile_hits) and copy nothing
const LeafCommProfile& CommCache::profile(Pattern pattern, int ranks_per_node,
                                          const ShapeKey& shape) {
  const auto it =
      profiles_.find(ProfileKeyView{pattern, ranks_per_node, &shape});
  if (it != profiles_.end()) {
    ++stats_.profile_hits;
    return it->second;
  }
  ++stats_.profile_misses;
  LeafCommProfile profile =
      make_leaf_comm_profile(pattern, base_msize_, shape, ranks_per_node);
  return profiles_
      .emplace(ProfileKey{pattern, ranks_per_node, shape}, std::move(profile))
      .first->second;
}

}  // namespace commsched
