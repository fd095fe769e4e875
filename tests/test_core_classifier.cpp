// Unit tests for the labeling function: filter rules, the exact-match flow
// cache, and the combined classifier.
#include <gtest/gtest.h>

#include "core/classifier.h"

namespace flowvalve::core {
namespace {

FiveTuple make_tuple(std::uint32_t src_ip = 0x0a000001, std::uint16_t dport = 80) {
  FiveTuple t;
  t.src_ip = src_ip;
  t.dst_ip = 0x0a000002;
  t.src_port = 1234;
  t.dst_port = dport;
  t.proto = IpProto::kTcp;
  return t;
}

net::Packet make_packet(std::uint16_t vf, FiveTuple t) {
  net::Packet p;
  p.vf_port = vf;
  p.tuple = t;
  p.wire_bytes = 200;
  return p;
}

// ---- FilterRule -----------------------------------------------------------

TEST(FilterRule, WildcardMatchesEverything) {
  FilterRule r;
  EXPECT_TRUE(r.matches(0, make_tuple()));
  EXPECT_TRUE(r.matches(7, make_tuple(0x01020304, 9999)));
}

TEST(FilterRule, VfPortExact) {
  FilterRule r;
  r.vf_port = 3;
  EXPECT_TRUE(r.matches(3, make_tuple()));
  EXPECT_FALSE(r.matches(4, make_tuple()));
}

TEST(FilterRule, ProtocolMatch) {
  FilterRule r;
  r.proto = IpProto::kUdp;
  FiveTuple t = make_tuple();
  EXPECT_FALSE(r.matches(0, t));
  t.proto = IpProto::kUdp;
  EXPECT_TRUE(r.matches(0, t));
}

TEST(FilterRule, PrefixMatching) {
  FilterRule r;
  r.src_ip = 0x0a000000;  // 10.0.0.0/8
  r.src_prefix_len = 8;
  EXPECT_TRUE(r.matches(0, make_tuple(0x0a123456)));
  EXPECT_FALSE(r.matches(0, make_tuple(0x0b000001)));
  r.src_prefix_len = 32;
  r.src_ip = 0x0a000001;
  EXPECT_TRUE(r.matches(0, make_tuple(0x0a000001)));
  EXPECT_FALSE(r.matches(0, make_tuple(0x0a000002)));
}

TEST(FilterRule, PortsMatchExactly) {
  FilterRule r;
  r.dst_port = 443;
  EXPECT_FALSE(r.matches(0, make_tuple(0x0a000001, 80)));
  EXPECT_TRUE(r.matches(0, make_tuple(0x0a000001, 443)));
  r.src_port = 1234;  // make_tuple's source port
  EXPECT_TRUE(r.matches(0, make_tuple(0x0a000001, 443)));
  r.src_port = 1235;
  EXPECT_FALSE(r.matches(0, make_tuple(0x0a000001, 443)));
}

// ---- LabelTable -----------------------------------------------------------

TEST(LabelTableTest, InternAndGet) {
  LabelTable table;
  QosLabel l1;
  l1.path = {0, 1, 2};
  const auto id1 = table.intern(l1);
  QosLabel l2;
  l2.path = {0, 3};
  const auto id2 = table.intern(l2);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(table.get(id1).path, (std::vector<ClassId>{0, 1, 2}));
  EXPECT_EQ(table.get(id2).path, (std::vector<ClassId>{0, 3}));
  EXPECT_EQ(table.size(), 2u);
}

// ---- ExactMatchFlowCache ----------------------------------------------------

TEST(FlowCache, MissThenHit) {
  ExactMatchFlowCache cache(1024);
  const FiveTuple t = make_tuple();
  EXPECT_FALSE(cache.lookup(1, t, 1).has_value());
  cache.insert(1, t, 42, 2);
  auto hit = cache.lookup(1, t, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FlowCache, VfIsPartOfTheKey) {
  ExactMatchFlowCache cache(1024);
  const FiveTuple t = make_tuple();
  cache.insert(1, t, 42, 1);
  EXPECT_FALSE(cache.lookup(2, t, 2).has_value());
}

TEST(FlowCache, ReinsertUpdatesLabel) {
  ExactMatchFlowCache cache(1024);
  const FiveTuple t = make_tuple();
  cache.insert(1, t, 42, 1);
  cache.insert(1, t, 43, 2);
  EXPECT_EQ(*cache.lookup(1, t, 3), 43u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FlowCache, EvictsStalestUnderPressure) {
  // Tiny cache: 1 set × 4 ways.
  ExactMatchFlowCache cache(4);
  for (std::uint32_t i = 0; i < 64; ++i)
    cache.insert(0, make_tuple(0x0a000000 + i), i, i);
  EXPECT_GT(cache.stats().evictions, 0u);
  // Most recently inserted entry must still be there.
  EXPECT_TRUE(cache.lookup(0, make_tuple(0x0a000000 + 63), 100).has_value());
}

TEST(FlowCache, ClearResets) {
  ExactMatchFlowCache cache(64);
  cache.insert(0, make_tuple(), 1, 1);
  cache.clear();
  EXPECT_FALSE(cache.lookup(0, make_tuple(), 2).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// ---- Classifier -------------------------------------------------------------

Classifier make_classifier() {
  Classifier c;
  FilterRule r1;
  r1.pref = 10;
  r1.vf_port = 0;
  r1.label = 100;
  c.add_rule(r1);
  FilterRule r2;
  r2.pref = 20;
  r2.dst_port = 80;
  r2.label = 200;
  c.add_rule(r2);
  FilterRule r3;
  r3.pref = 30;
  r3.label = 300;  // catch-all
  c.add_rule(r3);
  return c;
}

TEST(ClassifierTest, FirstMatchWinsByPref) {
  Classifier c = make_classifier();
  net::Packet on_vf0 = make_packet(0, make_tuple(0x0a000001, 80));
  EXPECT_EQ(c.classify(on_vf0, 1).label, 100u);  // vf rule wins over dport rule
  net::Packet web = make_packet(3, make_tuple(0x0a000001, 80));
  EXPECT_EQ(c.classify(web, 2).label, 200u);
  net::Packet other = make_packet(3, make_tuple(0x0a000001, 22));
  EXPECT_EQ(c.classify(other, 3).label, 300u);
}

TEST(ClassifierTest, PrefOrderIndependentOfInsertionOrder) {
  Classifier c;
  FilterRule catchall;
  catchall.pref = 50;
  catchall.label = 1;
  c.add_rule(catchall);
  FilterRule specific;
  specific.pref = 5;
  specific.dst_port = 80;
  specific.label = 2;
  c.add_rule(specific);  // added later but lower pref
  net::Packet p = make_packet(0, make_tuple(0x0a000001, 80));
  EXPECT_EQ(c.classify(p, 1).label, 2u);
}

TEST(ClassifierTest, CacheHitOnSecondPacket) {
  Classifier c = make_classifier();
  net::Packet p = make_packet(3, make_tuple(0x0a000001, 80));
  const auto first = c.classify(p, 1);
  EXPECT_FALSE(first.cache_hit);
  const auto second = c.classify(p, 2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.label, first.label);
  EXPECT_LT(second.cycles, first.cycles);
}

TEST(ClassifierTest, CacheDisabledAlwaysWalksRules) {
  Classifier c = make_classifier();
  c.set_cache_enabled(false);
  net::Packet p = make_packet(3, make_tuple(0x0a000001, 80));
  const auto first = c.classify(p, 1);
  const auto second = c.classify(p, 2);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.cycles, first.cycles);
}

TEST(ClassifierTest, UnmatchedGetsDefaultLabel) {
  Classifier c;  // no rules
  EXPECT_EQ(c.classify(make_packet(0, make_tuple()), 1).label, net::kUnclassified);
  c.set_default_label(77);
  EXPECT_EQ(c.classify(make_packet(0, make_tuple()), 2).label, 77u);
}

// ---- Epoch-tagged cache entries (live reconfiguration) ----------------------

TEST(FlowCache, StaleEpochEntryInvalidatedInPlace) {
  ExactMatchFlowCache cache(1024);
  const FiveTuple t = make_tuple();
  cache.insert(1, t, 42, 1, /*epoch=*/0);
  // Same tuple, newer label epoch: the entry is stale — miss, invalidate.
  EXPECT_FALSE(cache.lookup(1, t, 2, /*epoch=*/1).has_value());
  EXPECT_EQ(cache.stats().stale_invalidations, 1u);
  // The slot was invalidated, not left to repeat the stale cost: a second
  // lookup is a plain miss, not another stale invalidation.
  EXPECT_FALSE(cache.lookup(1, t, 3, /*epoch=*/1).has_value());
  EXPECT_EQ(cache.stats().stale_invalidations, 1u);
  // Re-inserting under the new epoch restores the fast path.
  cache.insert(1, t, 43, 4, /*epoch=*/1);
  EXPECT_EQ(*cache.lookup(1, t, 5, /*epoch=*/1), 43u);
}

TEST(ClassifierTest, ReplaceRulesWithEpochBumpReclassifiesCachedFlows) {
  Classifier c = make_classifier();
  net::Packet p = make_packet(3, make_tuple(0x0a000001, 80));
  EXPECT_EQ(c.classify(p, 1).label, 200u);
  EXPECT_TRUE(c.classify(p, 2).cache_hit);  // resident under epoch 0

  // Control-plane filter swap: port 80 now maps to label 500. Without the
  // epoch bump the cached 200 would keep winning.
  std::vector<FilterRule> swapped;
  FilterRule web;
  web.pref = 10;
  web.dst_port = 80;
  web.label = 500;
  swapped.push_back(web);
  c.replace_rules(std::move(swapped));
  c.bump_label_epoch();
  EXPECT_EQ(c.label_epoch(), 1u);

  const auto after = c.classify(p, 3);
  EXPECT_FALSE(after.cache_hit);  // stale entry invalidated, rules re-walked
  EXPECT_EQ(after.label, 500u);
  EXPECT_EQ(c.cache().stats().stale_invalidations, 1u);
  EXPECT_TRUE(c.classify(p, 4).cache_hit);  // re-cached under epoch 1
  EXPECT_EQ(c.classify(p, 5).label, 500u);
}

TEST(ClassifierTest, EpochBumpDoesNotFlushWholeCache) {
  Classifier c = make_classifier();
  // Populate many distinct flows, then bump: insertions survive (lazy
  // invalidation), each paying exactly one re-classification on next use.
  for (std::uint32_t i = 0; i < 32; ++i)
    c.classify(make_packet(3, make_tuple(0x0a000100 + i, 80)), i + 1);
  const std::uint64_t inserted = c.cache().stats().insertions;
  c.bump_label_epoch();
  EXPECT_EQ(c.cache().stats().insertions, inserted);  // nothing evicted eagerly
  std::uint64_t stale = 0;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const auto r = c.classify(make_packet(3, make_tuple(0x0a000100 + i, 80)), 100 + i);
    EXPECT_FALSE(r.cache_hit);
    ++stale;
  }
  EXPECT_EQ(c.cache().stats().stale_invalidations, stale);
}

TEST(ClassifierTest, CycleCostModelOrdering) {
  // A miss walking many rules costs more than a hit; deeper walks cost more.
  Classifier c;
  for (std::uint32_t i = 0; i < 10; ++i) {
    FilterRule r;
    r.pref = i;
    r.dst_port = static_cast<std::uint16_t>(1000 + i);
    r.label = i;
    c.add_rule(r);
  }
  net::Packet deep = make_packet(0, make_tuple(0x0a000001, 1009));
  const auto miss = c.classify(deep, 1);
  EXPECT_GE(miss.cycles,
            Classifier::kCacheMissCycles + 10 * Classifier::kPerRuleCycles);
  const auto hit = c.classify(deep, 2);
  EXPECT_EQ(hit.cycles, Classifier::kCacheHitCycles);
}

}  // namespace
}  // namespace flowvalve::core
