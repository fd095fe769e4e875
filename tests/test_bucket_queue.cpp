// Unit + property tests for the Eiffel-style FFS bucket queue.
#include <gtest/gtest.h>

#include <map>
#include <queue>

#include "core/bucket_queue.h"
#include "sim/rng.h"

namespace flowvalve::core {
namespace {

TEST(BucketQueueTest, EmptyBehaviour) {
  BucketQueue<int> q(128);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.min_rank().has_value());
  EXPECT_FALSE(q.pop_min().has_value());
}

TEST(BucketQueueTest, PopsInRankOrder) {
  BucketQueue<int> q(256);
  q.push(200, 1);
  q.push(3, 2);
  q.push(77, 3);
  EXPECT_EQ(q.min_rank(), 3u);
  EXPECT_EQ(q.pop_min(), 2);
  EXPECT_EQ(q.pop_min(), 3);
  EXPECT_EQ(q.pop_min(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueueTest, FifoWithinBucket) {
  BucketQueue<int> q(64);
  q.push(5, 10);
  q.push(5, 11);
  q.push(5, 12);
  EXPECT_EQ(q.pop_min(), 10);
  EXPECT_EQ(q.pop_min(), 11);
  EXPECT_EQ(q.pop_min(), 12);
}

TEST(BucketQueueTest, OverflowRanksSaturate) {
  BucketQueue<int> q(64);
  q.push(1'000'000, 7);
  EXPECT_EQ(q.min_rank(), 63u);
  EXPECT_EQ(q.pop_min(), 7);
}

TEST(BucketQueueTest, RoundsBucketsToWordMultiple) {
  BucketQueue<int> q(100);
  EXPECT_EQ(q.num_buckets(), 128u);
}

// Regression: a request beyond the two-level bitmap's 4096-bucket ceiling
// used to be accepted verbatim, making push() execute `1ull << w` with
// w ≥ 64 (undefined behavior) for high ranks. The constructor now clamps.
TEST(BucketQueueTest, ClampsToBitmapCeiling) {
  BucketQueue<int> q(1'000'000);
  EXPECT_EQ(q.num_buckets(), BucketQueue<int>::kMaxBuckets);
  EXPECT_EQ(q.num_buckets(), 4096u);
  // A huge rank saturates into the (clamped) last bucket instead of
  // indexing past the bitmap.
  q.push(1'000'000, 7);
  q.push(0, 8);
  EXPECT_EQ(q.min_rank(), 0u);
  EXPECT_EQ(q.pop_min(), 8);
  EXPECT_EQ(q.min_rank(), 4095u);
  EXPECT_EQ(q.pop_min(), 7);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueueTest, ZeroBucketsClampsUpToOneWord) {
  BucketQueue<int> q(0);
  EXPECT_EQ(q.num_buckets(), BucketQueue<int>::kWordBits);
  q.push(999, 1);  // saturates into bucket 63 rather than underflowing
  EXPECT_EQ(q.min_rank(), 63u);
  EXPECT_EQ(q.pop_min(), 1);
}

TEST(BucketQueueTest, WordBoundaryRanks) {
  BucketQueue<int> q(256);
  // Exercise ranks at 64-bit word edges.
  for (std::size_t r : {0u, 63u, 64u, 127u, 128u, 255u}) q.push(r, static_cast<int>(r));
  int prev = -1;
  while (auto v = q.pop_min()) {
    EXPECT_GT(*v, prev);
    prev = *v;
  }
  EXPECT_EQ(prev, 255);
}

// Property: behaves identically to a reference multimap across random
// push/pop_min sequences.
class BucketQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BucketQueueFuzz, MatchesReferenceModel) {
  sim::Rng rng(GetParam() * 2654435761ull);
  BucketQueue<int> q(1024);
  std::multimap<std::size_t, int> ref;
  int next_val = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.next_below(2) == 0 || ref.empty()) {
      const auto rank = static_cast<std::size_t>(rng.next_below(1024));
      q.push(rank, next_val);
      ref.emplace(rank, next_val);
      ++next_val;
    } else {
      auto it = ref.begin();
      ASSERT_EQ(q.min_rank(), it->first);
      const auto got = q.pop_min();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, it->second);  // FIFO within rank matches multimap order
      ref.erase(it);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketQueueFuzz, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace flowvalve::core
