#include "collectives/schedule.hpp"

#include <string>

#include "util/assert.hpp"

namespace commsched {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kRecursiveDoubling: return "RD";
    case Pattern::kRecursiveHalvingVD: return "RHVD";
    case Pattern::kBinomial: return "Binomial";
    case Pattern::kRing: return "Ring";
    case Pattern::kPairwiseAlltoall: return "Alltoall";
  }
  return "?";
}

namespace detail {

int floor_log2(int x) {
  COMMSCHED_ASSERT(x >= 1);
  int l = 0;
  while ((1 << (l + 1)) <= x) ++l;
  return l;
}

Fold fold_to_pow2(int p, double msize) {
  const int lg = floor_log2(p);
  const int r = p - (1 << lg);
  Fold f;
  f.pre.msize = msize;
  for (int i = 0; i < r; ++i)
    f.pre.pairs.emplace_back(2 * i, 2 * i + 1);
  for (int i = 0; i < 2 * r; i += 2) f.core.push_back(i + 1);
  for (int i = 2 * r; i < p; ++i) f.core.push_back(i);
  // Keep core ranks in ascending original-rank order (they already are).
  COMMSCHED_ASSERT(static_cast<int>(f.core.size()) == (1 << lg));
  return f;
}

void check_schedule_args(int nprocs, double base_msize) {
  COMMSCHED_ASSERT_MSG(nprocs >= 1, "nprocs must be positive");
  COMMSCHED_ASSERT_MSG(base_msize >= 0.0, "message size must be non-negative");
}

}  // namespace detail

CommSchedule make_schedule(Pattern pattern, int nprocs, double base_msize) {
  COMMSCHED_ASSERT_MSG(
      pattern != Pattern::kPairwiseAlltoall ||
          nprocs <= kMaxMaterializedAlltoallRanks,
      "materialized pairwise-alltoall schedules are O(p^2); capped at " +
          std::to_string(kMaxMaterializedAlltoallRanks) +
          " ranks (stream via for_each_schedule_step instead)");
  CommSchedule out;
  for_each_schedule_step(pattern, nprocs, base_msize,
                         [&out](const CommStep& step) {
                           out.push_back(step);
                           return true;
                         });
  return out;
}

double total_bytes(const CommSchedule& schedule) {
  double bytes = 0.0;
  for (const auto& step : schedule)
    bytes += static_cast<double>(step.pairs.size()) * step.msize *
             static_cast<double>(step.repeat);
  return bytes;
}

std::int64_t total_pair_messages(const CommSchedule& schedule) {
  std::int64_t n = 0;
  for (const auto& step : schedule)
    n += static_cast<std::int64_t>(step.pairs.size()) * step.repeat;
  return n;
}

}  // namespace commsched
