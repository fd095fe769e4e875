// Tier-1 coverage for the bucketized cuckoo flow table (DESIGN.md §14):
// the splitmix64 mixer's avalanche/distribution lock, constructor capacity
// clamping, the bounded BFS kick path, idle eviction amortized into
// lookups, integrity-tag poison detection, the poison × label-epoch ×
// eviction interleavings, the degraded-mode state machine's determinism,
// a digest of everything a caller observes across one op stream, and the
// million-flow churn soak across every scheduler backend and both batch
// sizes with the cache-coherence checker armed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/fuzzer.h"
#include "check/runner.h"
#include "core/classifier.h"
#include "fault/fault.h"
#include "net/packet.h"
#include "sim/fnv.h"

namespace flowvalve::core {
namespace {

FiveTuple tuple_n(std::uint64_t serial) {
  FiveTuple t;
  t.src_ip = 0x0a000000u + static_cast<std::uint32_t>(serial >> 16);
  t.dst_ip = 0x0a0000ffu;
  t.src_port = static_cast<std::uint16_t>(serial & 0xFFFF);
  t.dst_port = 443;
  t.proto = IpProto::kTcp;
  return t;
}

// ---- splitmix64 mixer (the set-index distribution lock) -------------------

TEST(Mix64, FullAvalancheOnEveryInputBit) {
  // Flipping any single input bit must flip close to half the output bits.
  // The weak pre-cuckoo mix (hash ^ vf * 0x9e37) fails this immediately for
  // high input bits, which is exactly how VFs aliased into the same sets.
  const std::uint64_t bases[] = {0u, 1u, 0xdeadbeefu, 0x0123456789abcdefULL,
                                 ~0ULL};
  double total = 0.0;
  int samples = 0;
  for (std::uint64_t x : bases) {
    for (int bit = 0; bit < 64; ++bit) {
      const int flipped = std::popcount(
          ExactMatchFlowCache::mix64(x) ^
          ExactMatchFlowCache::mix64(x ^ (std::uint64_t{1} << bit)));
      EXPECT_GE(flipped, 12) << "base " << x << " bit " << bit;
      EXPECT_LE(flipped, 52) << "base " << x << " bit " << bit;
      total += flipped;
      ++samples;
    }
  }
  EXPECT_NEAR(total / samples, 32.0, 2.0);
}

TEST(Mix64, SequentialKeysSpreadEvenlyAcrossSets) {
  // Low-entropy sequential inputs (the serial-derived churn tuples) must
  // land uniformly in a power-of-two index space: 4096 keys over 1024
  // buckets should look Poisson(4), not clumped.
  constexpr std::size_t kBuckets = 1024;
  std::vector<std::uint32_t> count(kBuckets, 0);
  for (std::uint64_t i = 0; i < 4 * kBuckets; ++i)
    ++count[ExactMatchFlowCache::mix64(i) & (kBuckets - 1)];
  std::uint32_t worst = 0, empty = 0;
  for (std::uint32_t c : count) {
    worst = std::max(worst, c);
    empty += c == 0;
  }
  EXPECT_LE(worst, 20u);   // P(Poisson(4) > 20) ~ 1e-10 per bucket
  EXPECT_LE(empty, 60u);   // expected e^-4 * 1024 ~ 19 empty buckets
}

// ---- constructor capacity clamping ----------------------------------------

TEST(FlowTable, CapacityClampHandlesZeroAndOddSizes) {
  for (std::size_t requested : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{3000}, std::size_t{4096}}) {
    ExactMatchFlowCache cache(
        ExactMatchFlowCache::Options{.capacity = requested});
    EXPECT_GE(cache.bucket_count(), 2u) << "requested " << requested;
    EXPECT_TRUE(std::has_single_bit(cache.bucket_count()))
        << "requested " << requested;
    EXPECT_EQ(cache.capacity(),
              cache.bucket_count() * ExactMatchFlowCache::kSlots);
    EXPECT_GE(cache.capacity(), requested) << "requested " << requested;
    // The clamped table must actually work, even when 0 was requested.
    cache.insert(1, tuple_n(7), 42, 1);
    EXPECT_EQ(cache.peek(1, tuple_n(7)), std::optional<ClassLabelId>(42));
  }
}

// ---- kick path ------------------------------------------------------------

TEST(FlowTable, KickPathRelocatesResidentsWithoutLoss) {
  // 16 buckets x 4 slots at load 0.875: direct slots run out, the BFS kick
  // path must relocate residents — and every key stays findable.
  ExactMatchFlowCache cache(ExactMatchFlowCache::Options{.capacity = 64});
  constexpr std::uint64_t kKeys = 56;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto out = cache.insert(0, tuple_n(i), static_cast<ClassLabelId>(i), i);
    ASSERT_TRUE(out.inserted) << "key " << i;
  }
  EXPECT_GT(cache.stats().kicks, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i)
    EXPECT_EQ(cache.peek(0, tuple_n(i)),
              std::optional<ClassLabelId>(static_cast<ClassLabelId>(i)))
        << "key " << i;
}

TEST(FlowTable, FullTablePressureEvictsStalestButNeverDegrades) {
  // 2 buckets x 4 slots, 64 inserts: kick failures at high load are honest
  // capacity pressure — stalest-entry eviction, no degraded transition.
  ExactMatchFlowCache cache(ExactMatchFlowCache::Options{.capacity = 8});
  for (std::uint64_t i = 0; i < 64; ++i)
    cache.insert(0, tuple_n(i), static_cast<ClassLabelId>(i), /*now_tick=*/i);
  EXPECT_GT(cache.stats().kick_failures, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.health(), ExactMatchFlowCache::Health::kHealthy);
  EXPECT_EQ(cache.stats().degraded_transitions, 0u);
  // The most recent insert survived the eviction fallback.
  EXPECT_TRUE(cache.peek(0, tuple_n(63)).has_value());
}

// ---- idle eviction --------------------------------------------------------

TEST(FlowTable, IdleEntriesReclaimedByAmortizedLookupSweep) {
  ExactMatchFlowCache cache(
      ExactMatchFlowCache::Options{.capacity = 64, .idle_timeout_ticks = 100});
  constexpr std::uint64_t kKeys = 16;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    cache.insert(0, tuple_n(i), 1, /*now_tick=*/0);
  EXPECT_EQ(cache.size(), kKeys);
  // Each lookup sweeps one bucket; a full cursor revolution at a tick past
  // the timeout reclaims every idle entry without any explicit flush call.
  for (std::uint64_t i = 0; i < cache.bucket_count(); ++i)
    cache.lookup(9, tuple_n(1000 + i), /*now_tick=*/500);
  EXPECT_EQ(cache.stats().idle_evictions, kKeys);
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t i = 0; i < kKeys; ++i)
    EXPECT_FALSE(cache.peek(0, tuple_n(i)).has_value());
}

TEST(FlowTable, RecentlyTouchedEntriesSurviveTheSweep) {
  ExactMatchFlowCache cache(
      ExactMatchFlowCache::Options{.capacity = 64, .idle_timeout_ticks = 100});
  cache.insert(0, tuple_n(0), 1, /*now_tick=*/0);
  cache.insert(0, tuple_n(1), 2, /*now_tick=*/0);
  EXPECT_TRUE(cache.lookup(0, tuple_n(0), /*now_tick=*/450).has_value());
  for (std::uint64_t i = 0; i < cache.bucket_count(); ++i)
    cache.lookup(9, tuple_n(1000 + i), /*now_tick=*/500);
  EXPECT_TRUE(cache.peek(0, tuple_n(0)).has_value());   // touched at 450
  EXPECT_FALSE(cache.peek(0, tuple_n(1)).has_value());  // idle since 0
}

TEST(FlowTable, ProbeNeverSweepsItsOwnHit) {
  // Two buckets: each of the two lookups sweeps one, so whichever bucket
  // holds the key is swept by a lookup that finds the key idle. The lookup
  // refreshes its hit before sweeping, so the hit it returns stays resident.
  ExactMatchFlowCache cache(
      ExactMatchFlowCache::Options{.capacity = 8, .idle_timeout_ticks = 100});
  ASSERT_EQ(cache.bucket_count(), 2u);
  cache.insert(0, tuple_n(0), 1, /*now_tick=*/0);
  for (std::uint64_t tick : {500u, 1000u}) {
    EXPECT_TRUE(cache.lookup(0, tuple_n(0), tick).has_value()) << "tick " << tick;
    EXPECT_EQ(cache.size(), 1u) << "tick " << tick;
    EXPECT_TRUE(cache.peek(0, tuple_n(0)).has_value()) << "tick " << tick;
  }
  EXPECT_EQ(cache.stats().idle_evictions, 0u);
}

// ---- integrity tags and poison × epoch × eviction interleavings -----------

TEST(FlowTable, PoisonDetectedByIntegrityTagOnNextLookup) {
  ExactMatchFlowCache cache(1024);
  constexpr std::uint64_t kKeys = 8;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    cache.insert(0, tuple_n(i), static_cast<ClassLabelId>(i % 4), 1);
  ASSERT_EQ(cache.poison(/*stride=*/1, /*label_count=*/4), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i)
    EXPECT_FALSE(cache.lookup(0, tuple_n(i), 2).has_value())
        << "poisoned entry " << i << " served a label";
  EXPECT_EQ(cache.stats().corruption_detected, kKeys);
  // The slots were invalidated; reinsertion restores the fast path.
  cache.insert(0, tuple_n(0), 0, 3);
  EXPECT_EQ(cache.lookup(0, tuple_n(0), 4), std::optional<ClassLabelId>(0));
}

TEST(FlowTable, SilentPoisonServesWrongLabel) {
  // fix_tag recomputes the integrity tag over the corrupted label — the
  // undetectable case that exists to validate the cache-coherence checker.
  ExactMatchFlowCache cache(1024);
  cache.insert(0, tuple_n(0), 1, 1);
  ASSERT_EQ(cache.poison(1, /*label_count=*/4, /*fix_tag=*/true), 1u);
  const auto hit = cache.lookup(0, tuple_n(0), 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2u);  // (1 + 1) % 4 — silently wrong
  EXPECT_EQ(cache.stats().corruption_detected, 0u);
}

TEST(FlowTable, PoisonedEntryNeverSurvivesEpochBumpAsFreshHit) {
  // Interleaving: poison (silent, fix_tag) then a label-epoch bump. The
  // stale-epoch check must invalidate the entry before its (corrupted)
  // label can be served under the new epoch.
  ExactMatchFlowCache cache(1024);
  cache.insert(0, tuple_n(0), 1, 1, /*epoch=*/0);
  ASSERT_EQ(cache.poison(1, 4, /*fix_tag=*/true), 1u);
  EXPECT_FALSE(cache.lookup(0, tuple_n(0), 2, /*epoch=*/1).has_value());
  EXPECT_EQ(cache.stats().stale_invalidations, 1u);
  // And the other order — detectable poison, then bump: still never a hit.
  cache.insert(0, tuple_n(1), 1, 3, /*epoch=*/1);
  ASSERT_EQ(cache.poison(1, 4, /*fix_tag=*/false), 1u);
  EXPECT_FALSE(cache.lookup(0, tuple_n(1), 4, /*epoch=*/2).has_value());
  EXPECT_FALSE(cache.peek(0, tuple_n(1), /*epoch=*/2).has_value());
  // Re-inserting under the new epoch restores a correct fresh hit.
  cache.insert(0, tuple_n(1), 3, 5, /*epoch=*/2);
  EXPECT_EQ(cache.lookup(0, tuple_n(1), 6, /*epoch=*/2),
            std::optional<ClassLabelId>(3));
}

TEST(FlowTable, MutationStampAdvancesOnEveryMutationClass) {
  ExactMatchFlowCache cache(
      ExactMatchFlowCache::Options{.capacity = 64, .idle_timeout_ticks = 100});
  std::uint64_t stamp = cache.mutation_stamp();
  const auto advanced = [&] {
    const bool moved = cache.mutation_stamp() != stamp;
    stamp = cache.mutation_stamp();
    return moved;
  };
  cache.insert(0, tuple_n(0), 1, 1);
  EXPECT_TRUE(advanced()) << "insertion";
  cache.lookup(0, tuple_n(0), 2, /*epoch=*/1);  // stale-epoch invalidation
  EXPECT_TRUE(advanced()) << "stale invalidation";
  cache.insert(0, tuple_n(1), 1, 3);
  cache.poison(1, 4, /*fix_tag=*/false);
  stamp = cache.mutation_stamp();
  cache.lookup(0, tuple_n(1), 4);  // corruption detection
  EXPECT_TRUE(advanced()) << "corruption detection";
  cache.insert(0, tuple_n(2), 1, 5);
  stamp = cache.mutation_stamp();
  cache.invalidate_all();  // eviction storm
  EXPECT_TRUE(advanced()) << "eviction";
  cache.insert(0, tuple_n(3), 1, 6);
  stamp = cache.mutation_stamp();
  for (std::uint64_t i = 0; i < cache.bucket_count(); ++i)
    cache.lookup(9, tuple_n(1000 + i), /*now_tick=*/500);  // idle sweep
  EXPECT_TRUE(advanced()) << "idle eviction";
  cache.clear();
  EXPECT_TRUE(advanced()) << "clear";
  // clear() zeroes the stats the stamp sums: one insert then a clear must
  // still land on a stamp never seen before.
  ExactMatchFlowCache fresh(ExactMatchFlowCache::Options{.capacity = 64});
  const std::uint64_t before = fresh.mutation_stamp();
  fresh.insert(0, tuple_n(0), 1, 1);
  const std::uint64_t inserted = fresh.mutation_stamp();
  fresh.clear();
  EXPECT_GT(fresh.mutation_stamp(), inserted) << "insert then clear";
  EXPECT_GT(inserted, before);
}

// ---- degraded-mode state machine ------------------------------------------
// These run the shipped thresholds (ExactMatchFlowCache::kDegradeThreshold
// and friends). Storm keys are pinned to one bucket pair, so after its
// 2 × kSlots slots fill, every admitted key is one kick failure.

using Cache = ExactMatchFlowCache;

/// Storm keys that fill the pinned bucket pair and then fail `failures`
/// kicks, when one key in `admit_every` gets past the admission gate.
std::size_t storm_keys(std::uint32_t failures, std::uint32_t admit_every = 1) {
  return std::size_t{admit_every} * (2 * Cache::kSlots + failures);
}

/// Drive one full degrade → recover → heal lifecycle and return the stats.
ExactMatchFlowCache::Stats run_degrade_lifecycle() {
  ExactMatchFlowCache cache(ExactMatchFlowCache::Options{.capacity = 1024});

  // Collision storm at low load: kick failures raise the pressure score
  // past the threshold and the admission gate closes; the rest of the
  // storm is suppressed.
  cache.fault_collision_storm(/*seed=*/42,
                              2 * storm_keys(Cache::kDegradeThreshold),
                              /*now_tick=*/1);
  EXPECT_EQ(cache.health(), ExactMatchFlowCache::Health::kDegraded);
  EXPECT_EQ(cache.stats().degraded_transitions, 1u);

  // All inserts are suppressed while degraded — and lookups still work.
  EXPECT_FALSE(cache.insert(0, tuple_n(0), 1, 2).inserted);
  EXPECT_GT(cache.stats().suppressed_inserts, 0u);

  // The lookup stream decays the score and serves the dwell: after
  // kMinDegradedDwell quiet lookups (by which time the score, one step per
  // kDecayIntervalLookups, is back to zero) the gate reopens partially.
  static_assert(Cache::kDegradeThreshold * Cache::kDecayIntervalLookups <=
                Cache::kMinDegradedDwell);
  std::uint64_t tick = 10;
  std::uint64_t lookups = 0;
  while (cache.health() == ExactMatchFlowCache::Health::kDegraded) {
    cache.lookup(0, tuple_n(9999), tick++);
    if (++lookups > 2 * Cache::kMinDegradedDwell) {
      ADD_FAILURE() << "degraded mode never released";
      break;
    }
  }
  EXPECT_EQ(lookups, Cache::kMinDegradedDwell);
  EXPECT_EQ(cache.health(), ExactMatchFlowCache::Health::kRecovering);

  // Recovering admits 1-in-kRecoveryAdmitEvery inserts (hysteresis, not a
  // reopened floodgate).
  std::uint64_t admitted = 0;
  for (std::uint64_t i = 0; i < 2 * Cache::kRecoveryAdmitEvery; ++i)
    admitted += cache.insert(0, tuple_n(100 + i), 1, tick++).inserted;
  EXPECT_EQ(admitted, 2u);

  // A clean lookup run completes the recovery; admission is full again.
  lookups = 0;
  while (cache.health() == ExactMatchFlowCache::Health::kRecovering) {
    cache.lookup(0, tuple_n(9999), tick++);
    if (++lookups > 2 * Cache::kRecoveryCleanLookups) {
      ADD_FAILURE() << "recovery never completed";
      break;
    }
  }
  EXPECT_EQ(lookups, Cache::kRecoveryCleanLookups);
  EXPECT_EQ(cache.health(), ExactMatchFlowCache::Health::kHealthy);
  EXPECT_TRUE(cache.insert(0, tuple_n(200), 1, tick).inserted);
  // No flush anywhere in the lifecycle: entries survived degradation.
  EXPECT_GT(cache.size(), 0u);
  return cache.stats();
}

TEST(FlowTable, DegradedLifecycleEngagesAndDisengagesDeterministically) {
  const ExactMatchFlowCache::Stats a = run_degrade_lifecycle();
  const ExactMatchFlowCache::Stats b = run_degrade_lifecycle();
  EXPECT_EQ(a.degraded_transitions, b.degraded_transitions);
  EXPECT_EQ(a.degraded_dwell_lookups, b.degraded_dwell_lookups);
  EXPECT_EQ(a.recovering_dwell_lookups, b.recovering_dwell_lookups);
  EXPECT_EQ(a.suppressed_inserts, b.suppressed_inserts);
  EXPECT_EQ(a.kick_failures, b.kick_failures);
  EXPECT_EQ(a.kicks, b.kicks);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_GT(a.degraded_dwell_lookups, 0u);
  EXPECT_GT(a.recovering_dwell_lookups, 0u);
}

TEST(FlowTable, RelapseDuringRecoveryReclosesTheGate) {
  ExactMatchFlowCache cache(ExactMatchFlowCache::Options{.capacity = 1024});
  cache.fault_collision_storm(42, storm_keys(Cache::kDegradeThreshold), 1);
  ASSERT_EQ(cache.health(), ExactMatchFlowCache::Health::kDegraded);
  std::uint64_t tick = 10;
  while (cache.health() == ExactMatchFlowCache::Health::kDegraded)
    cache.lookup(0, tuple_n(9999), tick++);
  ASSERT_EQ(cache.health(), ExactMatchFlowCache::Health::kRecovering);
  // The storm resumes: the lower relapse threshold closes the gate again
  // after kRelapseThreshold failures, fewer than the kDegradeThreshold it
  // took from healthy. While recovering, the admission gate swallows all
  // but one in kRecoveryAdmitEvery storm keys before they can fail.
  static_assert(Cache::kRelapseThreshold < Cache::kDegradeThreshold);
  cache.fault_collision_storm(
      43, storm_keys(Cache::kRelapseThreshold, Cache::kRecoveryAdmitEvery),
      tick);
  EXPECT_EQ(cache.health(), ExactMatchFlowCache::Health::kDegraded);
  EXPECT_EQ(cache.stats().degraded_transitions, 2u);
  EXPECT_EQ(cache.failure_score(), Cache::kRelapseThreshold);
}

// ---- observable-behaviour trace -------------------------------------------
// One op stream covering every path of the table (direct slots, kick
// chains, kick failures, stalest eviction, epoch invalidation, both poison
// kinds, both storms through the whole health lifecycle, idle sweeps,
// invalidate_all and clear), with everything a caller can observe folded
// into a digest after every op. A change to the table's layout must leave
// both digests as they are; a deliberate change to what the table does
// must re-record them.

std::uint16_t vf_n(std::uint64_t serial) { return static_cast<std::uint16_t>(serial % 3); }

struct OpStream {
  std::uint64_t digest = 0;
  ExactMatchFlowCache::Stats after_lifecycle;  // before the eviction storm
  ExactMatchFlowCache::Health health_after_lifecycle{};
};

OpStream run_op_stream(std::size_t capacity) {
  ExactMatchFlowCache cache(ExactMatchFlowCache::Options{
      .capacity = capacity, .idle_timeout_ticks = 500});
  sim::Fnv1a d;
  const auto state = [&] {
    const ExactMatchFlowCache::Stats& s = cache.stats();
    for (std::uint64_t v :
         {s.hits, s.misses, s.insertions, s.evictions, s.stale_invalidations,
          s.idle_evictions, s.kicks, s.kick_failures, s.corruption_detected,
          s.suppressed_inserts, s.degraded_transitions, s.degraded_dwell_lookups,
          s.recovering_dwell_lookups})
      d.mix(v);
    d.mix(static_cast<std::uint64_t>(cache.health()));
    d.mix(cache.failure_score());
    d.mix(cache.size());
    d.mix(cache.mutation_stamp());
    for (std::uint64_t n : cache.occupancy_histogram()) d.mix(n);
  };
  const auto label = [&](std::optional<ClassLabelId> l) {
    d.mix(l ? *l : std::uint64_t{1} << 40);  // no label id reaches 2^40
    state();
  };
  const auto count = [&](std::size_t n) {
    d.mix(n);
    state();
  };
  std::uint64_t tick = 0;
  const auto lookup = [&](std::uint64_t serial, std::uint32_t epoch = 0) {
    label(cache.lookup(vf_n(serial), tuple_n(serial), tick++, epoch));
  };
  const auto insert = [&](std::uint64_t serial, ClassLabelId l, std::uint32_t epoch = 0) {
    const auto out = cache.insert(vf_n(serial), tuple_n(serial), l, tick++, epoch);
    d.mix(out.inserted);
    d.mix(out.kicks);
    state();
  };

  // Past the direct slots: kicks, BFS chains, kick failures at high load
  // and stalest eviction; then refreshes with a new label.
  for (std::uint64_t i = 0; i < 96; ++i) insert(i, static_cast<ClassLabelId>(i % 7));
  for (std::uint64_t i = 90; i < 96; ++i) insert(i, static_cast<ClassLabelId>(i % 7 + 1));
  // Hits and misses, then a label-epoch bump.
  for (std::uint64_t i = 0; i < 128; ++i) lookup(i);
  for (std::uint64_t i = 60; i < 128; ++i) lookup(i, /*epoch=*/1);
  for (std::uint64_t i = 100; i < 120; ++i) insert(i, static_cast<ClassLabelId>(i % 5), 1);
  for (std::uint64_t i = 96; i < 124; ++i) lookup(i, 1);
  // Detectable poison, then silent poison seen through peek.
  count(cache.poison(/*stride=*/3, /*label_count=*/7, /*fix_tag=*/false));
  for (std::uint64_t i = 96; i < 124; ++i) lookup(i, 1);
  count(cache.poison(2, 7, /*fix_tag=*/true));
  for (std::uint64_t i = 0; i < 128; ++i) label(cache.peek(vf_n(i), tuple_n(i), 1));
  for (std::uint64_t i = 0; i < 8; ++i) label(cache.peek(vf_n(i), tuple_n(i), 0));
  // A churn storm, then idle sweeps past the timeout.
  count(cache.fault_churn_storm(/*seed=*/7, /*n=*/40, tick++));
  tick += 1000;
  for (std::uint64_t i = 0; i < 64; ++i) lookup(1000 + i);
  // A collision storm degrades the table; lookups (with inserts mixed in)
  // carry it through recovering back to healthy.
  for (std::uint64_t i = 200; i < 216; ++i) insert(i, 3);
  count(cache.fault_collision_storm(/*seed=*/42, /*n=*/64, tick++));
  for (std::uint64_t i = 0; i < 2400; ++i) {
    if (i % 97 == 0) insert(300 + i, 4);
    lookup(200 + i % 24);
  }
  OpStream out;
  out.after_lifecycle = cache.stats();
  out.health_after_lifecycle = cache.health();
  // An eviction storm, then a clear.
  count(cache.invalidate_all());
  for (std::uint64_t i = 200; i < 216; ++i) lookup(i);
  for (std::uint64_t i = 0; i < 12; ++i) insert(i, 2);
  cache.clear();
  state();
  for (std::uint64_t i = 0; i < 12; ++i) lookup(i);
  for (std::uint64_t i = 0; i < 12; ++i) insert(i, 6);
  out.digest = d.value();
  return out;
}

TEST(FlowTableTrace, SmallTableKeepsItsDigest) {
  const OpStream run = run_op_stream(64);
  // The stream reaches every path it claims to on the small table.
  const ExactMatchFlowCache::Stats& s = run.after_lifecycle;
  EXPECT_GT(s.kicks, 0u);
  EXPECT_GT(s.kick_failures, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.stale_invalidations, 0u);
  EXPECT_GT(s.corruption_detected, 0u);
  EXPECT_GT(s.idle_evictions, 0u);
  EXPECT_GT(s.suppressed_inserts, 0u);
  EXPECT_EQ(s.degraded_transitions, 1u);
  EXPECT_GT(s.recovering_dwell_lookups, 0u);
  EXPECT_EQ(run.health_after_lifecycle, ExactMatchFlowCache::Health::kHealthy);
  EXPECT_EQ(run.digest, 0x62e2265321ed9f82ull);
}

TEST(FlowTableTrace, LargeTableKeepsItsDigest) {
  const OpStream run = run_op_stream(std::size_t{1} << 16);
  EXPECT_EQ(run.after_lifecycle.degraded_transitions, 1u);
  EXPECT_EQ(run.health_after_lifecycle, ExactMatchFlowCache::Health::kHealthy);
  EXPECT_EQ(run.digest, 0x41e7c5ee9c10a60eull);
}

}  // namespace
}  // namespace flowvalve::core

// ---- million-flow churn soak ----------------------------------------------

namespace flowvalve::check {
namespace {

/// The acceptance soak: a fuzz scenario carrying a 10^6-concurrently-live
/// churn workload, both storm kinds over the middle half, every scheduler
/// backend, batch 1 and 32 — all invariant checkers armed, including the
/// cache-coherence checker (every EMC hit replayed against the rule walk).
/// run_scenario arms only opts.faults, so the storms go in there, with
/// admission control on as resolve_seed turns it on for any fault run.
TEST(ChurnSoak, MillionLiveFlowsSurviveStormsOnEveryBackendAndBatch) {
  FuzzScenario sc = generate_scenario(0x50AC);
  sc.nic.emc_capacity = std::size_t{1} << 21;
  FuzzFlow churn;
  churn.kind = FuzzFlow::Kind::kChurn;
  churn.live_flows = 1'000'000;
  churn.rate = sc.link_rate * 0.3;
  churn.frame_bytes = 1518;
  churn.start = 0;
  churn.stop = sc.horizon;
  sc.flows.push_back(churn);

  for (core::BackendKind backend :
       {core::BackendKind::kFlowValve, core::BackendKind::kStfq,
        core::BackendKind::kEiffel}) {
    for (unsigned batch : {1u, 32u}) {
      FuzzScenario run = sc;
      run.nic.backend = backend;
      run.nic.batch_size = batch;
      run.nic.recovery.admission_enabled = true;
      RunOptions opts;
      for (fault::FaultKind kind : {fault::FaultKind::kHashCollisionStorm,
                                    fault::FaultKind::kChurnStorm}) {
        const fault::FaultSchedule storm =
            fault::single_fault(kind, run.horizon / 4, run.horizon / 2, run.nic);
        opts.faults.insert(opts.faults.end(), storm.begin(), storm.end());
      }
      const CheckReport report = run_scenario(run, opts);
      EXPECT_TRUE(report.ok())
          << core::backend_kind_name(backend) << " batch " << batch << ": "
          << report.summary() << "\n"
          << (report.violations.empty()
                  ? std::string("(none stored)")
                  : report.violations.front().to_string());
      EXPECT_GT(report.delivered, 0u)
          << core::backend_kind_name(backend) << " batch " << batch;
      EXPECT_EQ(report.faults_injected, 2u)
          << core::backend_kind_name(backend) << " batch " << batch;
      EXPECT_EQ(report.faults_recovered, 2u)
          << core::backend_kind_name(backend) << " batch " << batch;
    }
  }
}

}  // namespace
}  // namespace flowvalve::check
