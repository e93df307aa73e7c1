// Dense-index scratch table whose entries all become unset at once.
//
// Every entry carries the generation (epoch) that last wrote it, so
// new_epoch() clears the whole table in O(1) and a user leaves nothing to
// clean up — not even when it throws half way through. The table only grows
// (to the largest index range it has been used over), so per-call leaf and
// node tables on hot paths stop allocating once warm, and one table can
// serve topologies of different sizes in turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace commsched {

template <typename T>
class EpochTable {
 public:
  /// Begin a new generation over indices [0, n): every entry reads unset.
  // hot-path: no-alloc
  void new_epoch(std::size_t n) {
    if (stamp_.size() < n) grow_to(n);
    ++epoch_;
  }

  /// Whether entry i was written in this generation.
  // hot-path: no-alloc
  bool is_set(std::size_t i) const { return stamp_[i] == epoch_; }

  /// Write entry i in this generation.
  // hot-path: no-alloc
  T& put(std::size_t i, T value) {
    stamp_[i] = epoch_;
    return value_[i] = value;
  }

  /// Entry i; requires is_set(i).
  // hot-path: no-alloc
  T& entry(std::size_t i) { return value_[i]; }

 private:
  // contract-trusted: no-alloc: grows to the largest index range seen, then
  // every later generation reuses the capacity
  void grow_to(std::size_t n) {
    stamp_.resize(n, 0);
    value_.resize(n);
  }

  std::uint64_t epoch_ = 0;  // 64 bits: never wraps in practice
  std::vector<std::uint64_t> stamp_;
  std::vector<T> value_;
};

}  // namespace commsched
