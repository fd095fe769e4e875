// Unit tests for the experiment harness itself: policy-script validity,
// TimeSeriesResult math, and scenario plumbing.
#include <gtest/gtest.h>

#include "core/flowvalve.h"
#include "exp/scenarios.h"

namespace flowvalve::exp {
namespace {

TEST(PolicyScripts, MotivationScriptConfigures) {
  core::FlowValveEngine engine;
  EXPECT_EQ(engine.configure(motivation_policy_script(Rate::gigabits_per_sec(10))), "");
  const auto& tree = engine.tree();
  EXPECT_EQ(tree.size(), 7u);  // root, NC, S1, WS, S2, KVS, ML
  for (const char* name : {"NC", "S1", "WS", "S2", "KVS", "ML"})
    EXPECT_NE(tree.find(name), core::kNoClass) << name;
  // NC: prio 0, ceil 7.5.
  const auto& nc = tree.at(tree.find("NC"));
  EXPECT_EQ(nc.policy.prio, 0);
  EXPECT_NEAR(nc.policy.ceil.gbps(), 7.5, 0.01);
  // ML: guarantee 2G, borrows from S2 and KVS.
  const auto& ml_label = engine.frontend().labels().get(engine.frontend().label_of("ML"));
  ASSERT_EQ(ml_label.borrow.size(), 2u);
  EXPECT_EQ(ml_label.borrow[0], tree.find("S2"));
  EXPECT_EQ(ml_label.borrow[1], tree.find("KVS"));
}

TEST(PolicyScripts, FairQueueingScriptScales) {
  for (unsigned n : {2u, 4u, 8u}) {
    core::FlowValveEngine engine;
    EXPECT_EQ(engine.configure(fair_queueing_script(Rate::gigabits_per_sec(40), n)), "");
    EXPECT_EQ(engine.tree().size(), n + 1);
    // Each leaf borrows from the n-1 others.
    const auto& label =
        engine.frontend().labels().get(engine.frontend().label_of("app0"));
    EXPECT_EQ(label.borrow.size(), n - 1);
  }
}

TEST(PolicyScripts, WeightedFqScriptMatchesFig12) {
  core::FlowValveEngine engine;
  EXPECT_EQ(engine.configure(weighted_fq_script(Rate::gigabits_per_sec(40))), "");
  const auto& tree = engine.tree();
  // App0 and S1 are root children 1:1; App1/S2 under S1; App2/App3 under S2.
  const auto app0 = tree.find("App0");
  const auto s1 = tree.find("S1");
  const auto app3 = tree.find("App3");
  ASSERT_NE(app0, core::kNoClass);
  EXPECT_EQ(tree.at(app0).parent, tree.root());
  EXPECT_EQ(tree.at(s1).parent, tree.root());
  EXPECT_EQ(tree.at(app3).depth, 3);
}

TEST(TimeSeriesResultTest, MeanAndTotalMath) {
  TimeSeriesResult r;
  r.horizon = sim::seconds(2);
  auto s = std::make_unique<stats::ThroughputSeries>(sim::milliseconds(100));
  // 1 Gbps over the first second only: 12.5 MB per 100 ms bin.
  for (int bin = 0; bin < 10; ++bin)
    s->add(bin * sim::milliseconds(100) + 1, 12'500'000);
  r.apps.push_back(AppCurve{"x", std::move(s)});
  EXPECT_NEAR(r.mean_rate("x", 0.0, 1.0).gbps(), 1.0, 0.001);
  EXPECT_NEAR(r.mean_rate("x", 1.0, 2.0).gbps(), 0.0, 0.001);
  EXPECT_NEAR(r.mean_rate("x", 0.0, 2.0).gbps(), 0.5, 0.001);
  EXPECT_NEAR(r.total_rate(0.0, 1.0).gbps(), 1.0, 0.001);
  EXPECT_DOUBLE_EQ(r.mean_rate("nope", 0.0, 1.0).bps(), 0.0);
}

TEST(TimeSeriesResultTest, TableAndChartRender) {
  TimeSeriesResult r;
  r.horizon = sim::seconds(1);
  auto s = std::make_unique<stats::ThroughputSeries>(sim::milliseconds(100));
  s->add(1, 125'000'000);
  r.apps.push_back(AppCurve{"x", std::move(s)});
  const std::string table = r.table(sim::milliseconds(500));
  EXPECT_NE(table.find("x(Gbps)"), std::string::npos);
  const std::string chart = r.ascii_chart(Rate::gigabits_per_sec(10));
  EXPECT_NE(chart.find("x |"), std::string::npos);
}

TEST(SuperpacketOptions, ScaleBucketsAndEpochs) {
  const auto opt = superpacket_engine_options(np::agilio_cx_40g());
  EXPECT_GE(opt.params.min_burst_bytes, 2.0 * kSuperPacketBytes);
  EXPECT_GE(opt.params.burst_window, opt.params.update_interval);
  // Lock hold must match the NP clock (320 cycles at 1.2 GHz ≈ 267 ns).
  EXPECT_NEAR(static_cast<double>(opt.lock_hold_ns), 267.0, 2.0);
}

TEST(Fig13Provisioning, CoreRuleMatchesPaper) {
  // floor(offered / 2.25), clamped to [1,4]: 1518→1, 1024→2, 64→4.
  const auto row1518 = [] {
    Fig13Row r;
    r.line_mpps = 3.25;
    return r;
  }();
  (void)row1518;
  EXPECT_EQ(run_fig13_row(1518, 1).dpdk_cores, 1u);
  EXPECT_EQ(run_fig13_row(1024, 1).dpdk_cores, 2u);
}

}  // namespace
}  // namespace flowvalve::exp
