// Unit tests for the scheduling tree: structure, labels, validation, and the
// θ-derivation condition templates (paper Eq. 2/4/5/6 and §IV-C-3).
#include <gtest/gtest.h>

#include <limits>

#include "core/sched_tree.h"

namespace flowvalve::core {
namespace {

using sim::Rate;

constexpr sim::SimTime kT0 = sim::milliseconds(100);

/// Mark a class active and give it a smoothed consumption rate Γ.
void force_gamma(SchedulingTree& tree, ClassId id, Rate gamma, sim::SimTime now) {
  SchedClass& c = tree.at(id);
  c.last_seen = now;
  c.ever_seen = true;
  // Saturate the EWMA with repeated observations.
  for (int i = 0; i < 64; ++i)
    c.gamma_bps.observe(now - sim::milliseconds(64 - i), gamma.bps());
}

struct MotivationTree {
  SchedulingTree tree;
  ClassId root, nc, s1, ws, s2, kvs, ml;

  explicit MotivationTree(FvParams params = {}) : tree(params) {
    root = tree.add_root("root", Rate::gigabits_per_sec(10));
    NodePolicy nc_pol;
    nc_pol.prio = 0;
    nc_pol.ceil = Rate::gigabits_per_sec(7.5);
    nc = tree.add_class("NC", root, nc_pol);
    NodePolicy s1_pol;
    s1_pol.prio = 1;
    s1 = tree.add_class("S1", root, s1_pol);
    NodePolicy ws_pol;  // weight 1
    ws = tree.add_class("WS", s1, ws_pol);
    NodePolicy s2_pol;
    s2_pol.weight = 2.0;
    s2 = tree.add_class("S2", s1, s2_pol);
    NodePolicy kvs_pol;
    kvs_pol.prio = 0;
    kvs = tree.add_class("KVS", s2, kvs_pol);
    NodePolicy ml_pol;
    ml_pol.prio = 1;
    ml_pol.guarantee = Rate::gigabits_per_sec(2);
    ml = tree.add_class("ML", s2, ml_pol);
    tree.finalize();
  }
};

TEST(SchedTree, StructureAndDepths) {
  MotivationTree m;
  EXPECT_EQ(m.tree.size(), 7u);
  EXPECT_TRUE(m.tree.at(m.root).is_root());
  EXPECT_EQ(m.tree.at(m.ml).depth, 3);
  EXPECT_EQ(m.tree.at(m.s1).depth, 1);
  EXPECT_TRUE(m.tree.at(m.ml).is_leaf());
  EXPECT_FALSE(m.tree.at(m.s2).is_leaf());
  EXPECT_EQ(m.tree.find("KVS"), m.kvs);
  EXPECT_EQ(m.tree.find("nope"), kNoClass);
}

TEST(SchedTree, LabelForBuildsRootToLeafPath) {
  MotivationTree m;
  const QosLabel label = m.tree.label_for(m.ml, {m.kvs, m.ws});
  ASSERT_EQ(label.path.size(), 4u);
  EXPECT_EQ(label.path.front(), m.root);
  EXPECT_EQ(label.path[1], m.s1);
  EXPECT_EQ(label.path[2], m.s2);
  EXPECT_EQ(label.path.back(), m.ml);
  EXPECT_EQ(label.borrow, (std::vector<ClassId>{m.kvs, m.ws}));
}

TEST(SchedTree, ValidateAcceptsGoodTree) {
  MotivationTree m;
  EXPECT_EQ(m.tree.validate(), "");
}

TEST(SchedTree, ValidateRejectsGuaranteeAboveCeil) {
  SchedulingTree tree;
  const auto root = tree.add_root("root", Rate::gigabits_per_sec(10));
  NodePolicy p;
  p.guarantee = Rate::gigabits_per_sec(5);
  p.ceil = Rate::gigabits_per_sec(2);
  tree.add_class("bad", root, p);
  EXPECT_NE(tree.validate().find("guarantee exceeds ceil"), std::string::npos);
}

TEST(SchedTree, ValidateRejectsWeightsThatAreNotPositiveAndFinite) {
  // NaN fails every comparison, so a bare `weight <= 0` check let it in.
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    SchedulingTree tree;
    const auto root = tree.add_root("root", Rate::gigabits_per_sec(10));
    NodePolicy p;
    p.weight = weight;
    tree.add_class("bad", root, p);
    EXPECT_EQ(tree.validate(), "class 'bad': weight must be positive and finite")
        << weight;
  }
}

TEST(SchedTree, FinalizeSeedsWeightedShares) {
  MotivationTree m;
  // Static seed: NC and S1 split 10G 1:1 at their level-ignorant seed, but
  // NC's share is capped only by ceil (7.5) — seed gives 5G each.
  EXPECT_NEAR(m.tree.at(m.s1).theta.gbps(), 5.0, 0.01);
  EXPECT_NEAR(m.tree.at(m.ws).theta.gbps(), 5.0 / 3.0, 0.01);
  EXPECT_NEAR(m.tree.at(m.s2).theta.gbps(), 10.0 / 3.0, 0.01);
}

// ---- θ derivation (compute_theta) ----------------------------------------

TEST(SchedTreeTheta, RootIsLinkRate) {
  MotivationTree m;
  EXPECT_NEAR(m.tree.compute_theta(m.root, kT0).gbps(), 10.0, 1e-9);
}

TEST(SchedTreeTheta, PriorityClassGetsFullParentCappedByCeil) {
  MotivationTree m;
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(7.5), kT0);
  // NC is the top priority level: gets everything, capped at 7.5 ceil.
  EXPECT_NEAR(m.tree.compute_theta(m.nc, kT0).gbps(), 7.5, 0.01);
}

TEST(SchedTreeTheta, LowerLevelGetsResidual) {
  MotivationTree m;
  m.tree.at(m.root).theta = Rate::gigabits_per_sec(10);
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(3), kT0);
  // Eq. 4: θ_S1 = θ_root − Γ_NC.
  EXPECT_NEAR(m.tree.compute_theta(m.s1, kT0).gbps(), 7.0, 0.05);
}

TEST(SchedTreeTheta, ResidualSubtractionCapsAtPriorTheta) {
  MotivationTree m;
  // NC consuming more than its ceiling-capped θ (e.g. via borrowing) must
  // not starve S1 below θ_parent − θ_NC.
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(10), kT0);
  EXPECT_NEAR(m.tree.compute_theta(m.s1, kT0).gbps(), 2.5, 0.05);
}

TEST(SchedTreeTheta, ExpiredPriorClassReleasesEverything) {
  FvParams params;
  MotivationTree m(params);
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(7.5), kT0);
  // Move past the expiry threshold with no further packets from NC.
  const sim::SimTime later = kT0 + params.expiry_threshold + sim::milliseconds(1);
  EXPECT_NEAR(m.tree.compute_theta(m.s1, later).gbps(), 10.0, 0.05);
}

TEST(SchedTreeTheta, WeightedSplitFollowsEq5) {
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(1), kT0);
  force_gamma(m.tree, m.s2, Rate::gigabits_per_sec(1), kT0);
  EXPECT_NEAR(m.tree.compute_theta(m.ws, kT0).gbps(), 3.0, 0.05);
  EXPECT_NEAR(m.tree.compute_theta(m.s2, kT0).gbps(), 6.0, 0.05);
}

TEST(SchedTreeTheta, WeightedShareIsStaticWhenSiblingIdle) {
  // Idle siblings do not inflate a weighted class's θ (their share is lent
  // through the shadow bucket instead — the Fig. 11(c) semantics).
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.s2, Rate::gigabits_per_sec(1), kT0);
  // WS never seen → inactive; S2's θ stays its weighted share.
  EXPECT_NEAR(m.tree.compute_theta(m.s2, kT0).gbps(), 6.0, 0.05);
}

TEST(SchedTreeTheta, GuaranteeReservedWhenDemanded) {
  MotivationTree m;
  m.tree.at(m.s2).theta = Rate::gigabits_per_sec(6.33);
  force_gamma(m.tree, m.kvs, Rate::gigabits_per_sec(6), kT0);
  force_gamma(m.tree, m.ml, Rate::gigabits_per_sec(2.5), kT0);
  // ML demands above its guarantee: reservation = min(2, wshare) = 2,
  // KVS gets the rest.
  EXPECT_NEAR(m.tree.compute_theta(m.kvs, kT0).gbps(), 4.33, 0.1);
  EXPECT_NEAR(m.tree.compute_theta(m.ml, kT0).gbps(), 2.0, 0.1);
}

TEST(SchedTreeTheta, GuaranteeCrossoverBelowFourGbps) {
  // Paper §II: when vm1's total is below 4G, KVS and ML share 1:1 instead of
  // the guarantee binding (reservation = min(g, weighted share)).
  MotivationTree m;
  m.tree.at(m.s2).theta = Rate::gigabits_per_sec(3);
  force_gamma(m.tree, m.kvs, Rate::gigabits_per_sec(3), kT0);
  force_gamma(m.tree, m.ml, Rate::gigabits_per_sec(3), kT0);
  EXPECT_NEAR(m.tree.compute_theta(m.ml, kT0).gbps(), 1.5, 0.1);
  EXPECT_NEAR(m.tree.compute_theta(m.kvs, kT0).gbps(), 1.5, 0.1);
}

TEST(SchedTreeTheta, IdleGuaranteeDoesNotStrandBandwidth) {
  MotivationTree m;
  m.tree.at(m.s2).theta = Rate::gigabits_per_sec(6);
  force_gamma(m.tree, m.kvs, Rate::gigabits_per_sec(6), kT0);
  // ML inactive → no reservation → KVS gets everything.
  EXPECT_NEAR(m.tree.compute_theta(m.kvs, kT0).gbps(), 6.0, 0.05);
}

TEST(SchedTreeTheta, PriorClassReleaseFlowsToLowerLevel) {
  MotivationTree m;
  m.tree.at(m.s2).theta = Rate::gigabits_per_sec(6.33);
  force_gamma(m.tree, m.ml, Rate::gigabits_per_sec(2.5), kT0);
  // KVS inactive: ML absorbs the entire subtree rate.
  EXPECT_NEAR(m.tree.compute_theta(m.ml, kT0).gbps(), 6.33, 0.1);
}

// ---- update_class / lendable ----------------------------------------------

TEST(SchedTreeUpdate, ReplenishesBucketAtTheta) {
  MotivationTree m;
  SchedClass& ws = m.tree.at(m.ws);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(1), kT0);
  ws.bucket.reset(0);
  ws.last_update = kT0;
  m.tree.update_class(m.ws, kT0 + sim::microseconds(100));
  // θ_WS ≈ S1's θ/3; bucket gained θ·100µs.
  const double expected = m.tree.at(m.ws).theta.bytes_per_ns() * 100'000.0;
  EXPECT_NEAR(ws.bucket.tokens(), expected, expected * 0.05 + 1.0);
}

TEST(SchedTreeUpdate, GammaEvaluatedFromConsumedBytes) {
  MotivationTree m;
  SchedClass& ws = m.tree.at(m.ws);
  ws.last_update = kT0;
  ws.last_seen = kT0 + sim::microseconds(100);
  ws.ever_seen = true;
  ws.consumed_bytes = 125'000;  // over 100 µs → 10 Gbps instantaneous
  m.tree.update_class(m.ws, kT0 + sim::microseconds(100));
  EXPECT_GT(m.tree.at(m.ws).gamma().gbps(), 0.5);
  EXPECT_DOUBLE_EQ(m.tree.at(m.ws).consumed_bytes, 0.0);
}

TEST(SchedTreeUpdate, ExpiredStatusRestored) {
  FvParams params;
  MotivationTree m(params);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(3), kT0);
  SchedClass& ws = m.tree.at(m.ws);
  ws.last_update = kT0;
  const sim::SimTime later = kT0 + params.expiry_threshold + sim::milliseconds(5);
  m.tree.update_class(m.ws, later);
  EXPECT_DOUBLE_EQ(m.tree.at(m.ws).gamma().bps(), 0.0);  // Subprocedure 3
}

TEST(SchedTreeUpdate, LendableZeroForClassWithLowerPrioSibling) {
  MotivationTree m;
  // NC has the lower-priority sibling S1: its slack is redistributed via
  // Eq. 4, so its shadow must not lend (no double allocation).
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(1), kT0);
  m.tree.at(m.nc).last_update = kT0 - sim::microseconds(100);
  m.tree.update_class(m.nc, kT0);
  EXPECT_DOUBLE_EQ(m.tree.at(m.nc).lendable.bps(), 0.0);
}

TEST(SchedTreeUpdate, LendableEqualsSlackForWeightedClass) {
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(1), kT0);
  m.tree.at(m.ws).last_update = kT0 - sim::microseconds(100);
  m.tree.update_class(m.ws, kT0);
  // θ_WS = 3, Γ ≈ 1 (decaying: no bytes consumed in the closing epoch)
  // → lendable ≈ 2-2.3 (Eq. 6).
  EXPECT_NEAR(m.tree.at(m.ws).lendable.gbps(), 2.15, 0.35);
}

TEST(SchedTreeUpdate, CountForwardedTouchesWholePath) {
  MotivationTree m;
  const QosLabel label = m.tree.label_for(m.ml);
  m.tree.count_forwarded(label.path, 1000);
  EXPECT_DOUBLE_EQ(m.tree.at(m.root).consumed_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(m.tree.at(m.s2).consumed_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(m.tree.at(m.ml).consumed_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(m.tree.at(m.ws).consumed_bytes, 0.0);
  EXPECT_EQ(m.tree.at(m.ml).fwd_packets, 1u);
}

TEST(SchedTreeUpdate, TouchMarksActivity) {
  MotivationTree m;
  const QosLabel label = m.tree.label_for(m.kvs);
  EXPECT_FALSE(m.tree.is_active(m.tree.at(m.kvs), kT0));
  m.tree.touch(label.path, kT0);
  EXPECT_TRUE(m.tree.is_active(m.tree.at(m.kvs), kT0));
  EXPECT_TRUE(m.tree.is_active(m.tree.at(m.s2), kT0));
  EXPECT_FALSE(
      m.tree.is_active(m.tree.at(m.kvs), kT0 + m.tree.params().expiry_threshold + 1));
}

TEST(SchedTreeUpdate, FreezeThetaSkipsRecomputation) {
  FvParams params;
  params.freeze_theta = true;
  MotivationTree m(params);
  const Rate seeded = m.tree.at(m.s1).theta;
  force_gamma(m.tree, m.nc, Rate::gigabits_per_sec(7), kT0);
  m.tree.at(m.s1).last_update = kT0 - sim::milliseconds(1);
  m.tree.update_class(m.s1, kT0);
  EXPECT_EQ(m.tree.at(m.s1).theta, seeded);
}

// Property: across random weights, Eq. 5 shares are proportional and sum to
// the parent rate.
class WeightedSplit : public ::testing::TestWithParam<std::tuple<double, double, double>> {
};

TEST_P(WeightedSplit, SharesAreProportionalAndConservative) {
  auto [w1, w2, w3] = GetParam();
  SchedulingTree tree;
  const auto root = tree.add_root("root", Rate::gigabits_per_sec(30));
  NodePolicy p;
  p.weight = w1;
  const auto a = tree.add_class("a", root, p);
  p.weight = w2;
  const auto b = tree.add_class("b", root, p);
  p.weight = w3;
  const auto c = tree.add_class("c", root, p);
  tree.finalize();
  for (ClassId id : {a, b, c}) force_gamma(tree, id, Rate::gigabits_per_sec(1), kT0);

  const double ta = tree.compute_theta(a, kT0).gbps();
  const double tb = tree.compute_theta(b, kT0).gbps();
  const double tc = tree.compute_theta(c, kT0).gbps();
  EXPECT_NEAR(ta + tb + tc, 30.0, 0.01);
  EXPECT_NEAR(ta / tb, w1 / w2, 0.01 * (w1 / w2));
  EXPECT_NEAR(tb / tc, w2 / w3, 0.01 * (w2 / w3));
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightedSplit,
                         ::testing::Values(std::tuple{1.0, 1.0, 1.0},
                                           std::tuple{1.0, 2.0, 3.0},
                                           std::tuple{5.0, 1.0, 4.0},
                                           std::tuple{0.5, 0.25, 0.25},
                                           std::tuple{10.0, 1.0, 1.0}));

}  // namespace
}  // namespace flowvalve::core

namespace flowvalve::core {
namespace {

TEST(SchedTreeReconfigure, WeightChangeShiftsShares) {
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(1), kT0);
  force_gamma(m.tree, m.s2, Rate::gigabits_per_sec(1), kT0);
  EXPECT_NEAR(m.tree.compute_theta(m.ws, kT0).gbps(), 3.0, 0.05);
  NodePolicy pol = m.tree.at(m.ws).policy;
  pol.weight = 2.0;  // now 2:2 with S2
  ASSERT_TRUE(m.tree.reconfigure(m.ws, pol));
  EXPECT_NEAR(m.tree.compute_theta(m.ws, kT0).gbps(), 4.5, 0.05);
  EXPECT_NEAR(m.tree.compute_theta(m.s2, kT0).gbps(), 4.5, 0.05);
}

TEST(SchedTreeReconfigure, RootRateChangeTakesEffectImmediately) {
  MotivationTree m;
  NodePolicy pol = m.tree.at(m.root).policy;
  pol.ceil = Rate::gigabits_per_sec(5);
  ASSERT_TRUE(m.tree.reconfigure(m.root, pol));
  EXPECT_NEAR(m.tree.at(m.root).theta.gbps(), 5.0, 1e-9);
  EXPECT_NEAR(m.tree.compute_theta(m.nc, kT0).gbps(), 5.0, 0.01);
}

TEST(SchedTreeReconfigure, RejectsInvalidPolicies) {
  MotivationTree m;
  NodePolicy bad;
  bad.weight = -1.0;
  EXPECT_FALSE(m.tree.reconfigure(m.ws, bad));
  NodePolicy bad2;
  bad2.guarantee = Rate::gigabits_per_sec(9);
  bad2.ceil = Rate::gigabits_per_sec(1);
  EXPECT_FALSE(m.tree.reconfigure(m.ws, bad2));
  EXPECT_FALSE(m.tree.reconfigure(9999, NodePolicy{}));
}

TEST(SchedTreeReconfigure, RejectsChildGuaranteesAboveParentCeil) {
  MotivationTree m;
  // NC + S1 guarantees would oversubscribe the root's 10G link ceiling.
  NodePolicy pol = m.tree.at(m.nc).policy;
  pol.guarantee = Rate::gigabits_per_sec(7);
  ASSERT_TRUE(m.tree.reconfigure(m.nc, pol));  // alone it fits under 10G
  NodePolicy pol2 = m.tree.at(m.s1).policy;
  pol2.guarantee = Rate::gigabits_per_sec(4);  // 7 + 4 > 10
  EXPECT_FALSE(m.tree.reconfigure(m.s1, pol2));
  // The rejected policy left the live one untouched.
  EXPECT_FALSE(m.tree.at(m.s1).policy.has_guarantee());
}

TEST(SchedTreeValidate, DeltasReportHumanReadableErrors) {
  MotivationTree m;
  NodePolicy bad = m.tree.at(m.ws).policy;
  bad.weight = -2.0;
  std::string err = m.tree.validate_deltas({{m.ws, bad}});
  EXPECT_NE(err.find("weight"), std::string::npos) << err;

  NodePolicy inverted = m.tree.at(m.ws).policy;
  inverted.guarantee = Rate::gigabits_per_sec(5);
  inverted.ceil = Rate::gigabits_per_sec(1);
  err = m.tree.validate_deltas({{m.ws, inverted}});
  EXPECT_NE(err.find("guarantee exceeds ceil"), std::string::npos) << err;

  // The sum check sees the whole manifest merged, not each delta alone:
  // NC (6G) + S1 (6G) together oversubscribe the root's 10G ceiling.
  NodePolicy g1 = m.tree.at(m.nc).policy;
  g1.guarantee = Rate::gigabits_per_sec(6);
  NodePolicy g2 = m.tree.at(m.s1).policy;
  g2.guarantee = Rate::gigabits_per_sec(6);
  err = m.tree.validate_deltas({{m.nc, g1}, {m.s1, g2}});
  EXPECT_NE(err.find("summing above the parent ceil"), std::string::npos) << err;

  EXPECT_EQ(m.tree.validate_deltas({{m.ws, m.tree.at(m.ws).policy}}), "");
}

TEST(SchedTreeStaging, StagedPolicyInvisibleUntilCommit) {
  MotivationTree m;
  NodePolicy pol = m.tree.at(m.ws).policy;
  pol.weight = 4.0;
  EXPECT_EQ(m.tree.policy_epoch(), 0u);
  EXPECT_FALSE(m.tree.rollout_active());

  const std::uint32_t staged = m.tree.stage({{m.ws, pol}});
  EXPECT_EQ(staged, 1u);
  EXPECT_TRUE(m.tree.rollout_active());
  EXPECT_EQ(m.tree.staged_remaining(), 1u);
  EXPECT_EQ(m.tree.policy_epoch(), 0u);            // committed epoch unchanged
  EXPECT_NEAR(m.tree.at(m.ws).policy.weight, 1.0, 1e-9);  // live policy too

  m.tree.commit_class(m.ws, kT0);
  EXPECT_NEAR(m.tree.at(m.ws).policy.weight, 4.0, 1e-9);
  EXPECT_EQ(m.tree.staged_remaining(), 0u);
  EXPECT_TRUE(m.tree.rollout_active());  // epoch advances only via commit_all

  m.tree.commit_all(kT0);
  EXPECT_EQ(m.tree.policy_epoch(), 1u);
  EXPECT_FALSE(m.tree.rollout_active());
}

TEST(SchedTreeStaging, AbandonStageRetractsCleanly) {
  MotivationTree m;
  NodePolicy pol = m.tree.at(m.ws).policy;
  pol.weight = 4.0;
  m.tree.stage({{m.ws, pol}});
  m.tree.abandon_stage();
  EXPECT_FALSE(m.tree.rollout_active());
  EXPECT_EQ(m.tree.staged_remaining(), 0u);
  EXPECT_EQ(m.tree.staged_epoch(), m.tree.policy_epoch());
  EXPECT_NEAR(m.tree.at(m.ws).policy.weight, 1.0, 1e-9);
  // A commit after abandoning is a no-op for the class.
  m.tree.commit_class(m.ws, kT0);
  EXPECT_NEAR(m.tree.at(m.ws).policy.weight, 1.0, 1e-9);
}

TEST(SchedTreeStaging, EpochsAreMonotonicAcrossRestage) {
  MotivationTree m;
  NodePolicy pol = m.tree.at(m.ws).policy;
  m.tree.stage({{m.ws, pol}});
  m.tree.commit_all(kT0);
  EXPECT_EQ(m.tree.policy_epoch(), 1u);
  // Rollback path: re-stage the prior policy — a NEW epoch, never a reuse.
  m.tree.stage({{m.ws, pol}});
  m.tree.commit_all(kT0);
  EXPECT_EQ(m.tree.policy_epoch(), 2u);
}

TEST(SchedTreeStaging, CommitRefreshesIdleSiblingTheta) {
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(1), kT0);
  force_gamma(m.tree, m.s2, Rate::gigabits_per_sec(1), kT0);
  // Give both siblings a pre-commit θ as the data path would.
  m.tree.at(m.ws).theta = m.tree.compute_theta(m.ws, kT0);
  m.tree.at(m.s2).theta = m.tree.compute_theta(m.s2, kT0);
  EXPECT_NEAR(m.tree.at(m.s2).theta.gbps(), 6.0, 0.05);  // 1:2 split of 9G

  NodePolicy pol = m.tree.at(m.ws).policy;
  pol.weight = 2.0;  // now 2:2
  m.tree.stage({{m.ws, pol}});
  m.tree.commit_class(m.ws, kT0);
  // S2 never ran update_class, yet its θ reflects the committed weights:
  // the commit sweep re-derives θ tree-wide (top-down — S1 itself refreshes
  // to the full 10G with NC idle) so idle siblings cannot keep scheduling
  // against the old split forever. 2:2 split of S1's refreshed 10G → 5G.
  EXPECT_NEAR(m.tree.at(m.s2).theta.gbps(), 5.0, 0.05);
  // And stale lendable can never exceed the freshly shrunk θ.
  EXPECT_LE(m.tree.at(m.s2).lendable.bps(), m.tree.at(m.s2).theta.bps() + 1);
}

TEST(SchedTreeReconfigure, GuaranteeCanBeAddedAtRuntime) {
  MotivationTree m;
  m.tree.at(m.s1).theta = Rate::gigabits_per_sec(9);
  force_gamma(m.tree, m.ws, Rate::gigabits_per_sec(5), kT0);
  force_gamma(m.tree, m.s2, Rate::gigabits_per_sec(5), kT0);
  NodePolicy pol = m.tree.at(m.ws).policy;
  pol.guarantee = Rate::gigabits_per_sec(2);
  ASSERT_TRUE(m.tree.reconfigure(m.ws, pol));
  // WS now reserves min(2, wshare=3): its θ ≥ 2 under contention... and the
  // sibling's available pool shrinks accordingly.
  const double ws_theta = m.tree.compute_theta(m.ws, kT0).gbps();
  EXPECT_GE(ws_theta, 2.0);
}

}  // namespace
}  // namespace flowvalve::core
