// Step-wise models of the MPI collective algorithms the paper optimizes for
// (§3.3): recursive doubling (RD), recursive halving with vector doubling
// (RHVD), binomial tree, and — from the paper's future-work list — ring.
//
// A schedule is the sequence of communication steps the algorithm performs;
// each step lists the rank pairs that exchange simultaneously and the
// per-pair message size at that step.  The cost model (Eq. 6) consumes
// schedules directly: "our strategies consider all stages of algorithms
// (RD, RHVD, Binomial) and allocate based on the costliest communication
// step/stage".
//
// Schedules are generated step-by-step through for_each_schedule_step(); the
// materialized CommSchedule form produced by make_schedule() is a convenience
// built on top of it. Consumers that only need one pass over the steps (the
// leaf-pair profile builder in comm_cache.cpp, the auditor's sampled
// re-derivation) stream instead of materializing, which keeps O(p²)-pair
// patterns affordable at large p.
//
// Non-power-of-two process counts use the MPICH construction (Thakur et al.):
// fold the r = p - 2^floor(lg p) excess ranks into a power-of-two core with a
// pre-exchange step, run the power-of-two algorithm on the core, and mirror
// the fold in a post step.  The binomial tree and ring handle any p natively.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

/// The communication patterns studied in the paper (+ ring, §7 future work).
enum class Pattern : std::uint8_t {
  kRecursiveDoubling,   ///< e.g. MPI_Allreduce (Figure 3)
  kRecursiveHalvingVD,  ///< e.g. MPI_Allgather (vector doubles per step)
  kBinomial,            ///< e.g. MPI_Bcast / MPI_Reduce
  kRing,                ///< future-work pattern (neighbor exchange, p-1 rounds)
  /// MPI_Alltoall's pairwise-exchange algorithm (the FFTW/CPMD-style
  /// workload the paper's §1/§3.3 cite). p-1 steps; at step k rank i
  /// exchanges with i XOR k (power-of-two p, perfect matching per step) or
  /// with i±k mod p otherwise. Materialized schedules are O(p^2) pairs, so
  /// make_schedule() caps this pattern at kMaxMaterializedAlltoallRanks;
  /// for_each_schedule_step() streams it at any p.
  kPairwiseAlltoall,
};

const char* pattern_name(Pattern p);

/// Largest rank count make_schedule() will materialize for
/// kPairwiseAlltoall (O(p^2) pairs ≈ 8M pairs / 134 MB at this cap). The
/// streaming path has no cap.
inline constexpr int kMaxMaterializedAlltoallRanks = 4096;

/// One synchronized step of a collective: the rank pairs that communicate in
/// parallel, the per-pair message size (bytes), and how many times the step
/// repeats back-to-back (used to model the ring's p-1 identical rounds
/// without materializing them all).
struct CommStep {
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  double msize = 0.0;
  int repeat = 1;
};

using CommSchedule = std::vector<CommStep>;

/// Visit the steps of `pattern` over ranks 0..nprocs-1 in schedule order
/// without materializing the whole schedule. `visit` is any callable taking
/// `const CommStep&` and returning bool; it is a template parameter so the
/// per-step call inlines instead of going through a type-erased wrapper. The
/// CommStep passed to `visit` is scratch owned by the generator and only
/// valid for the duration of the callback. Return false from `visit` to stop
/// early; the function returns false iff the visitor stopped the walk.
/// nprocs >= 1; nprocs == 1 visits nothing.
template <class Visit>
bool for_each_schedule_step(Pattern pattern, int nprocs, double base_msize,
                            Visit&& visit);

/// Build the schedule of `pattern` over ranks 0..nprocs-1 with base message
/// size `base_msize` bytes. nprocs >= 1; nprocs == 1 yields an empty
/// schedule.
CommSchedule make_schedule(Pattern pattern, int nprocs, double base_msize);

/// Total bytes moved by the schedule (sum over steps of pairs * msize *
/// repeat). The paper's observation that RHVD is "more communication-heavy"
/// than RD is visible here: RHVD moves O(p * msize) versus RD's
/// O(log p * msize) per rank.
double total_bytes(const CommSchedule& schedule);

/// Total number of pair-communications (pairs summed over steps, with
/// repeats).
std::int64_t total_pair_messages(const CommSchedule& schedule);

// --- for_each_schedule_step implementation ---------------------------------

namespace detail {

int floor_log2(int x);

// MPICH-style fold of p ranks onto a 2^floor(lg p) core.
//
// r = p - 2^floor(lg p) extra ranks exist. Ranks 0..2r-1 pair up
// (even, even+1); the even rank of each pair then sits out of the core
// phase. Core ranks are the odd ranks below 2r plus every rank >= 2r.
struct Fold {
  std::vector<std::int32_t> core;  // core_index -> original rank
  CommStep pre;                    // empty pairs when p is a power of two
};

Fold fold_to_pow2(int p, double msize);

void check_schedule_args(int nprocs, double base_msize);

// Power-of-two RD/RHVD core: step k exchanges i <-> i ^ dist. RD keeps the
// message size and doubles the distance; RHVD halves the distance (q/2,
// q/4, ..., 1) while the per-pair message doubles (m, 2m, ..., m*q/2) — the
// heaviest exchanges are therefore between rank-adjacent processes, the
// structural reason balanced power-of-two allocations help RHVD most (§6.1).
template <class Visit>
bool emit_rd_core(const std::vector<std::int32_t>& core, double msize,
                  bool vector_doubling, CommStep& step, Visit& visit) {
  const int q = static_cast<int>(core.size());
  if (q < 2) return true;
  const int lg = floor_log2(q);
  for (int k = 0; k < lg; ++k) {
    step.pairs.clear();
    step.repeat = 1;
    step.msize =
        vector_doubling ? msize * static_cast<double>(1 << k) : msize;
    const int dist = vector_doubling ? (q >> (k + 1)) : (1 << k);
    for (int i = 0; i < q; ++i) {
      const int j = i ^ dist;
      if (i < j) step.pairs.emplace_back(core[static_cast<std::size_t>(i)],
                                         core[static_cast<std::size_t>(j)]);
    }
    if (!visit(std::as_const(step))) return false;
  }
  return true;
}

template <class Visit>
bool emit_rd_like(int p, double msize, bool vector_doubling, Visit& visit) {
  if (p < 2) return true;
  Fold f = fold_to_pow2(p, msize);
  const bool folded = !f.pre.pairs.empty();
  if (folded && !visit(std::as_const(f.pre))) return false;
  CommStep step;
  if (!emit_rd_core(f.core, msize, vector_doubling, step, visit))
    return false;
  if (folded) {
    // Mirror step: core partners hand the (possibly grown) result back.
    CommStep post = std::move(f.pre);
    post.msize = vector_doubling
                     ? msize * static_cast<double>(f.core.size())
                     : msize;
    if (!visit(std::as_const(post))) return false;
  }
  return true;
}

template <class Visit>
bool emit_binomial(int p, double msize, Visit& visit) {
  if (p < 2) return true;
  // Binomial broadcast tree rooted at 0: at step k every rank i < 2^k with
  // i + 2^k < p sends to i + 2^k.
  CommStep step;
  step.msize = msize;
  for (int k = 0; (1 << k) < p; ++k) {
    step.pairs.clear();
    const int dist = 1 << k;
    for (int i = 0; i < dist && i + dist < p; ++i)
      step.pairs.emplace_back(i, i + dist);
    if (!visit(std::as_const(step))) return false;
  }
  return true;
}

template <class Visit>
bool emit_pairwise_alltoall(int p, double msize, Visit& visit) {
  if (p < 2) return true;
  const bool pow2 = (p & (p - 1)) == 0;
  CommStep step;
  step.msize = msize;
  for (int k = 1; k < p; ++k) {
    step.pairs.clear();
    if (pow2) {
      // XOR exchange: a perfect matching every step.
      for (int i = 0; i < p; ++i) {
        const int j = i ^ k;
        if (i < j) step.pairs.emplace_back(i, j);
      }
    } else {
      // Ring-shift exchange: rank i talks to (i + k) mod p; each unordered
      // pair is listed once per step, every rank appears twice.
      for (int i = 0; i < p; ++i) {
        const int j = (i + k) % p;
        if (i < j) step.pairs.emplace_back(i, j);
        // For even p at k == p/2, i and (i + k) pair up symmetrically; the
        // i < j filter already de-duplicates that case.
      }
    }
    if (!visit(std::as_const(step))) return false;
  }
  return true;
}

template <class Visit>
bool emit_ring(int p, double msize, Visit& visit) {
  if (p < 2) return true;
  CommStep step;
  step.msize = msize;
  step.repeat = p - 1;
  for (int i = 0; i < p; ++i) {
    const int j = (i + 1) % p;
    // For p == 2 the wrap-around would duplicate the (0,1) pair.
    if (p == 2 && i == 1) break;
    step.pairs.emplace_back(std::min(i, j), std::max(i, j));
  }
  return visit(std::as_const(step));
}

}  // namespace detail

template <class Visit>
bool for_each_schedule_step(Pattern pattern, int nprocs, double base_msize,
                            Visit&& visit) {
  static_assert(std::is_invocable_r_v<bool, Visit&, const CommStep&>,
                "a schedule visitor takes const CommStep& and returns bool");
  detail::check_schedule_args(nprocs, base_msize);
  switch (pattern) {
    case Pattern::kRecursiveDoubling:
      return detail::emit_rd_like(nprocs, base_msize,
                                  /*vector_doubling=*/false, visit);
    case Pattern::kRecursiveHalvingVD:
      return detail::emit_rd_like(nprocs, base_msize,
                                  /*vector_doubling=*/true, visit);
    case Pattern::kBinomial:
      return detail::emit_binomial(nprocs, base_msize, visit);
    case Pattern::kRing:
      return detail::emit_ring(nprocs, base_msize, visit);
    case Pattern::kPairwiseAlltoall:
      return detail::emit_pairwise_alltoall(nprocs, base_msize, visit);
  }
  COMMSCHED_ASSERT_MSG(false, "unknown pattern");
  return true;
}

}  // namespace commsched
