// Eiffel-style bucketed priority queue (related work §VII: Eiffel [35]).
//
// Eiffel's observation: packet ranks need only limited precision, so a
// priority queue can be an array of FIFO buckets plus a hierarchical bitmap
// of non-empty buckets; find-min is one or two Find-First-Set instructions
// instead of O(log n) heap churn. This is the two-level bitmap variant
// (64×64 = 4096 buckets); EiffelBackend keeps its calendar in one, and
// bench/micro_datastructures times it against the std::multiset the PIFO
// comparator uses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace flowvalve::core {

/// A min-priority queue over integer ranks in [0, num_buckets) with FIFO
/// order inside a bucket. O(1) push; find-min via two FFS ops.
template <typename T>
class BucketQueue {
 public:
  static constexpr std::size_t kWordBits = 64;
  /// Two-level bitmap ceiling: one root word indexes at most 64 words of 64
  /// buckets. Requests beyond it are clamped — a larger count would make
  /// `root_ |= 1ull << w` shift by ≥ 64 (UB) for the excess words. Requests
  /// of 0 are clamped up to one word so push()'s saturation rank exists.
  static constexpr std::size_t kMaxBuckets = kWordBits * kWordBits;  // 4096

  /// `num_buckets` is rounded up to a multiple of 64 and clamped into
  /// [64, 4096].
  explicit BucketQueue(std::size_t num_buckets = kMaxBuckets)
      : num_buckets_(std::clamp<std::size_t>(
            ((num_buckets + kWordBits - 1) / kWordBits) * kWordBits, kWordBits,
            kMaxBuckets)) {
    buckets_.resize(num_buckets_);
    words_.resize(num_buckets_ / kWordBits, 0);
  }

  std::size_t num_buckets() const { return num_buckets_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Push with rank clamped into range (Eiffel saturates overflow ranks
  /// into the last bucket).
  void push(std::size_t rank, T value) {
    if (rank >= num_buckets_) rank = num_buckets_ - 1;
    buckets_[rank].push_back(std::move(value));
    const std::size_t w = rank / kWordBits;
    words_[w] |= 1ull << (rank % kWordBits);
    root_ |= 1ull << w;
    ++size_;
  }

  /// Smallest occupied rank; nullopt when empty.
  std::optional<std::size_t> min_rank() const {
    if (root_ == 0) return std::nullopt;
    const auto w = static_cast<std::size_t>(std::countr_zero(root_));
    const auto b = static_cast<std::size_t>(std::countr_zero(words_[w]));
    return w * kWordBits + b;
  }

  /// Pop the FIFO head of the minimum-rank bucket.
  std::optional<T> pop_min() {
    const auto rank = min_rank();
    if (!rank) return std::nullopt;
    auto& bucket = buckets_[*rank];
    T value = std::move(bucket.front());
    bucket.pop_front();
    --size_;
    if (bucket.empty()) {
      const std::size_t w = *rank / kWordBits;
      words_[w] &= ~(1ull << (*rank % kWordBits));
      if (words_[w] == 0) root_ &= ~(1ull << w);
    }
    return value;
  }

 private:
  std::size_t num_buckets_;
  std::vector<std::deque<T>> buckets_;
  std::vector<std::uint64_t> words_;  // per-64-bucket occupancy
  std::uint64_t root_ = 0;            // per-word occupancy
  std::size_t size_ = 0;
};

}  // namespace flowvalve::core
