// Robustness and failure-injection tests: connection sweeps, flow churn
// against the flow cache, bursty on/off traffic, ring overflow pressure,
// and mid-run policy stress.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "ctrl/reconfig_manager.h"
#include "exp/scenarios.h"
#include "host/probes.h"
#include "obs/reconfig_tracker.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"
#include "traffic/app.h"
#include "traffic/generators.h"

namespace flowvalve {
namespace {

using sim::Rate;

// The paper varies 4..256 connections per process and reports unchanged
// shares (§V-A). Sweep a few counts and assert the fair split holds.
class Fig11bConnectionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(Fig11bConnectionSweep, SharesIndependentOfConnectionCount) {
  auto r = exp::run_fig11b_fair_queueing(/*seed=*/5, sim::seconds(16), GetParam());
  // Two active apps by t=10: both ≈ 20G regardless of connection count.
  EXPECT_NEAR(r.mean_rate("App0", 13, 16).gbps(), 20.0, 2.0);
  EXPECT_NEAR(r.mean_rate("App1", 13, 16).gbps(), 20.0, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Conns, Fig11bConnectionSweep,
                         ::testing::Values(1u, 4u, 16u, 64u));

// Different processes maintaining *different* connection counts must still
// split by class, not by flow count (multi-queue isolation, Observation 3).
TEST(Robustness, AsymmetricConnectionCountsStillClassFair) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  core::FlowValveEngine engine(exp::superpacket_engine_options(nic));
  ASSERT_EQ(engine.configure(
                exp::fair_queueing_script(Rate::gigabits_per_sec(40), 2)),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  sim::Rng rng(6);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  stats::ThroughputSeries s0(sim::milliseconds(100)), s1(sim::milliseconds(100));
  router.track_app(0, &s0);
  router.track_app(1, &s1);

  traffic::AppConfig a;
  a.name = "many";
  a.app_id = 0;
  a.vf_port = 0;
  a.num_connections = 32;  // 32 flows
  a.wire_bytes = exp::kSuperPacketBytes;
  a.tcp.max_rate = Rate::gigabits_per_sec(56);
  a.tcp.additive_increase = Rate::megabits_per_sec(800);
  a.tcp.md_factor = 0.9;
  traffic::AppConfig b = a;
  b.name = "few";
  b.app_id = 1;
  b.vf_port = 1;
  b.num_connections = 2;  // 2 flows
  traffic::AppProcess app_many(sim, router, ids, a, rng.split("many"));
  traffic::AppProcess app_few(sim, router, ids, b, rng.split("few"));
  app_many.start();
  app_few.start();
  sim.run_until(sim::seconds(6));
  const auto bins = [&](const stats::ThroughputSeries& s) {
    return s.mean_rate(30, 60).gbps();  // 3..6 s
  };
  // 32 flows vs 2 flows: classes still split ~20/20 (±15%).
  EXPECT_NEAR(bins(s0), 20.0, 3.0);
  EXPECT_NEAR(bins(s1), 20.0, 3.0);
}

// Flow churn: thousands of short-lived flows stress the exact-match cache
// (evictions) without breaking classification or scheduling.
TEST(Robustness, FlowChurnThroughTinyCache) {
  core::FlowValveEngine engine;
  // Note: cache capacity is fixed at engine construction; use the default
  // classifier but hammer it with far more flows than one set holds.
  ASSERT_EQ(engine.configure(exp::fair_queueing_script(Rate::gigabits_per_sec(40), 4)),
            "");
  std::uint64_t forwarded = 0;
  sim::Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    net::Packet p;
    p.vf_port = static_cast<std::uint16_t>(i % 4);
    p.wire_bytes = 200;
    p.tuple.src_ip = static_cast<std::uint32_t>(rng.next_below(500000));
    p.tuple.src_port = static_cast<std::uint16_t>(rng.next_below(60000));
    p.tuple.dst_port = 80;
    const auto r = engine.process(p, i * 2000);
    forwarded += r.verdict == core::Verdict::kForward;
  }
  // Low offered rate (0.88 Gbps) → everything forwards despite churn.
  EXPECT_GT(static_cast<double>(forwarded) / 200000.0, 0.99);
  const auto& cache = engine.classifier().cache().stats();
  EXPECT_GT(cache.insertions, 1000u);
}

// Bursty on/off traffic: FlowValve must not leak tokens across long OFF
// gaps (expiry resets) nor starve the burst on return.
TEST(Robustness, OnOffBurstsConformLongRun) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(
                "fv qdisc add dev nic0 root handle 1: htb rate 4gbit\n"
                "fv class add dev nic0 parent 1: classid 1:10 name bursty weight 1\n"
                "fv class add dev nic0 parent 1: classid 1:11 name steady weight 1\n"
                "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
                "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n"),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  sim::Rng rng(8);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  stats::ThroughputSeries sb(sim::milliseconds(50)), ss(sim::milliseconds(50));
  router.track_app(0, &sb);
  router.track_app(1, &ss);

  traffic::FlowSpec bspec;
  bspec.flow_id = ids.next_flow_id();
  bspec.app_id = 0;
  bspec.vf_port = 0;
  bspec.wire_bytes = 1518;
  traffic::OnOffFlow bursty(sim, router, ids, bspec, Rate::gigabits_per_sec(6),
                            sim::milliseconds(20), sim::milliseconds(60), rng.split(1));
  traffic::FlowSpec sspec = bspec;
  sspec.flow_id = ids.next_flow_id();
  sspec.app_id = 1;
  sspec.vf_port = 1;
  traffic::CbrFlow steady(sim, router, ids, sspec, Rate::gigabits_per_sec(1.5),
                          rng.split(2), 0.02);
  bursty.start();
  steady.start();
  sim.run_until(sim::seconds(4));
  // Steady class (under its 2G share) is untouched by the bursts.
  EXPECT_NEAR(ss.mean_rate(10, 80).gbps(), 1.5, 0.1);
  // Bursty class long-run average stays below its share + borrowable slack.
  EXPECT_LT(sb.mean_rate(10, 80).gbps(), 2.6);
}

// VF ring overflow under a hopeless overload does not corrupt accounting.
TEST(Robustness, OverloadAccountingConsistent) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  nic.vf_ring_capacity = 64;
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(exp::fair_queueing_script(nic.wire_rate, 4)), "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  host::SaturationLoad::Config cfg;
  cfg.wire_bytes = 64;
  cfg.offered = Rate::gigabits_per_sec(40);
  host::SaturationLoad load(sim, router, ids, cfg, sim::Rng(9));
  load.start();
  sim.run_until(sim::milliseconds(30));
  load.stop();
  sim.run_until(sim::milliseconds(40));
  const auto& st = pipeline.stats();
  EXPECT_EQ(st.submitted, st.vf_ring_drops + st.scheduler_drops + st.tx_ring_drops +
                              st.forwarded_to_wire);
  EXPECT_EQ(pipeline.in_flight(), 0u);
}

// Live policy reconfiguration under load, with a worker stall injected in
// the middle of the swap: the staged rollout must still commit and the
// delivered shares must converge to the NEW weights — not the old ones and
// not some torn mixture (DESIGN.md §11 degradation guarantees).
TEST(Robustness, LiveSwapUnderFaultConvergesToNewShares) {
  sim::Simulator sim;
  np::NpConfig nic = np::agilio_cx_40g();
  nic.num_workers = 8;
  nic.wire_rate = Rate::gigabits_per_sec(10);
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(
                "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
                "fv class add dev nic0 parent 1: classid 1:10 name gold weight 1\n"
                "fv class add dev nic0 parent 1: classid 1:11 name silver weight 1\n"
                "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
                "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n"),
            "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);
  stats::ThroughputSeries gold_s(sim::milliseconds(100));
  stats::ThroughputSeries silver_s(sim::milliseconds(100));
  router.track_app(0, &gold_s);
  router.track_app(1, &silver_s);

  obs::ReconfigTracker tracker;
  ctrl::ReconfigManager mgr(sim, pipeline, engine, &tracker);

  sim::Rng rng(21);
  std::vector<std::unique_ptr<traffic::CbrFlow>> flows;
  for (unsigned i = 0; i < 2; ++i) {
    traffic::FlowSpec fs;
    fs.flow_id = ids.next_flow_id();
    fs.app_id = i;
    fs.vf_port = static_cast<std::uint16_t>(i);
    fs.wire_bytes = 1500;
    flows.push_back(std::make_unique<traffic::CbrFlow>(
        sim, router, ids, fs, Rate::gigabits_per_sec(8), rng.split(i), 0.05));
  }
  for (auto& f : flows) f->start();

  // Mid-run swap to a 3:1 split, with a worker stalling right as the
  // rollout's cutover waves are in flight.
  sim.schedule_at(sim::seconds(3), [&] {
    ctrl::PolicyDelta d;
    d.class_name = "gold";
    d.weight = 3.0;
    ctrl::PolicyUpdate u;
    u.deltas.push_back(std::move(d));
    EXPECT_EQ(mgr.apply(u), "");
  });
  sim.schedule_at(sim::seconds(3), [&] {
    pipeline.fault_stall_worker(0, sim::milliseconds(5));
  });

  sim.run_until(sim::seconds(6));
  for (auto& f : flows) f->stop();
  sim.run_all();

  EXPECT_EQ(mgr.stats().committed, 1u);
  EXPECT_EQ(mgr.stats().rolled_back, 0u);
  // Before the swap (1..3 s): even split of the 10G link.
  EXPECT_NEAR(gold_s.mean_rate(10, 30).gbps(), 5.0, 0.8);
  EXPECT_NEAR(silver_s.mean_rate(10, 30).gbps(), 5.0, 0.8);
  // After the swap settles (4..6 s): the NEW 3:1 split.
  EXPECT_NEAR(gold_s.mean_rate(40, 60).gbps(), 7.5, 0.8);
  EXPECT_NEAR(silver_s.mean_rate(40, 60).gbps(), 2.5, 0.8);
}

// The same live swap is bit-reproducible: two runs with identical seed and
// schedule produce identical wire traces and reconfiguration timelines.
TEST(Robustness, LiveSwapIsDeterministic) {
  auto run = [] {
    sim::Simulator sim;
    np::NpConfig nic = np::agilio_cx_40g();
    nic.num_workers = 8;
    nic.wire_rate = Rate::gigabits_per_sec(10);
    core::FlowValveEngine engine(np::engine_options_for(nic));
    EXPECT_EQ(engine.configure(
                  "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
                  "fv class add dev nic0 parent 1: classid 1:10 name gold weight 1\n"
                  "fv class add dev nic0 parent 1: classid 1:11 name silver weight 1\n"
                  "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
                  "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n"),
              "");
    np::FlowValveProcessor proc(engine);
    np::NicPipeline pipeline(sim, nic, proc);
    traffic::IdAllocator ids;
    traffic::FlowRouter router(pipeline);
    obs::ReconfigTracker tracker;
    ctrl::ReconfigManager mgr(sim, pipeline, engine, &tracker);
    sim::Rng rng(33);
    std::vector<std::unique_ptr<traffic::CbrFlow>> flows;
    for (unsigned i = 0; i < 2; ++i) {
      traffic::FlowSpec fs;
      fs.flow_id = ids.next_flow_id();
      fs.app_id = i;
      fs.vf_port = static_cast<std::uint16_t>(i);
      fs.wire_bytes = 1500;
      flows.push_back(std::make_unique<traffic::CbrFlow>(
          sim, router, ids, fs, Rate::gigabits_per_sec(8), rng.split(i), 0.05));
    }
    for (auto& f : flows) f->start();
    sim.schedule_at(sim::milliseconds(500), [&] {
      ctrl::PolicyDelta d;
      d.class_name = "silver";
      d.weight = 2.0;
      ctrl::PolicyUpdate u;
      u.deltas.push_back(std::move(d));
      mgr.apply(u);
    });
    sim.run_until(sim::seconds(1));
    for (auto& f : flows) f->stop();
    sim.run_all();
    const auto& r = tracker.records();
    return std::make_tuple(pipeline.stats().forwarded_to_wire,
                           pipeline.stats().wire_bytes, sim.events_executed(),
                           r.empty() ? sim::SimTime(-2) : r[0].committed_at,
                           mgr.stats().mixed_epoch_packets);
  };
  EXPECT_EQ(run(), run());
}

// Determinism under churn: the full robustness scenario is reproducible.
TEST(Robustness, ChurnIsDeterministic) {
  auto run = [] {
    auto r = exp::run_fig11c_weighted_fq(/*seed=*/11, sim::seconds(5));
    std::uint64_t total = 0;
    for (const auto& app : r.apps) total += app.series->total_bytes();
    return total;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace flowvalve
