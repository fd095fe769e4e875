// Unit tests for the traffic sources: AIMD and Reno TCP models, open-loop
// generators, and the AppProcess grouping.
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "traffic/app.h"
#include "traffic/generators.h"
#include "traffic/tcp.h"

namespace flowvalve::traffic {
namespace {

using sim::Rate;

/// Token-bucket bottleneck device: forwards while tokens last, else drops.
/// Gives TCP models a deterministic bottleneck to converge against.
class BottleneckDevice final : public net::EgressDevice {
 public:
  BottleneckDevice(sim::Simulator& sim, Rate rate, sim::SimDuration delivery_delay)
      : sim_(sim), rate_(rate), delay_(delivery_delay), last_(0) {
    tokens_ = burst_ = rate.bytes_per_ns() * 1e6 + 10000.0;  // ~1ms of burst
  }

  bool submit(net::Packet pkt) override {
    const sim::SimTime now = sim_.now();
    tokens_ = std::min(burst_, tokens_ + rate_.bytes_per_ns() *
                                             static_cast<double>(now - last_));
    last_ = now;
    ++offered_;
    if (tokens_ >= pkt.wire_bytes) {
      tokens_ -= pkt.wire_bytes;
      delivered_bytes_ += pkt.wire_bytes;
      sim_.schedule_after(delay_, [this, pkt]() mutable {
        pkt.wire_tx_done = sim_.now();
        pkt.delivered_at = sim_.now();
        deliver(pkt);
      });
      return true;
    }
    ++drops_;
    notify_drop(pkt);
    return false;
  }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t offered() const { return offered_; }
  Rate delivered_rate(sim::SimTime now) const {
    return Rate::bytes_per_sec(static_cast<double>(delivered_bytes_) * 1e9 /
                               static_cast<double>(now));
  }

 private:
  sim::Simulator& sim_;
  Rate rate_;
  sim::SimDuration delay_;
  sim::SimTime last_;
  double tokens_, burst_;
  std::uint64_t drops_ = 0, offered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
};

FlowSpec spec_for(IdAllocator& ids, std::uint32_t app, std::uint32_t bytes = 1518) {
  FlowSpec s;
  s.flow_id = ids.next_flow_id();
  s.app_id = app;
  s.vf_port = static_cast<std::uint16_t>(app);
  s.wire_bytes = bytes;
  s.tuple.src_ip = 0x0a000001;
  s.tuple.dst_ip = 0x0a000002;
  s.tuple.src_port = static_cast<std::uint16_t>(5000 + app);
  s.tuple.dst_port = 80;
  return s;
}

TEST(TcpAimd, IncreasesWithoutLoss) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpAimdConfig cfg;
  cfg.start_rate = Rate::megabits_per_sec(100);
  cfg.additive_increase = Rate::megabits_per_sec(100);
  cfg.max_rate = Rate::gigabits_per_sec(5);
  TcpAimdFlow flow(sim, router, ids, spec_for(ids, 0), cfg, sim::Rng(1));
  flow.start();
  sim.run_until(sim::milliseconds(50));
  // 25 RTTs of +100M from 100M, capped at 5G.
  EXPECT_GT(flow.current_rate().gbps(), 2.0);
  EXPECT_EQ(flow.packets_lost(), 0u);
}

TEST(TcpAimd, RespectsMaxRate) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpAimdConfig cfg;
  cfg.max_rate = Rate::gigabits_per_sec(1);
  cfg.additive_increase = Rate::megabits_per_sec(500);
  TcpAimdFlow flow(sim, router, ids, spec_for(ids, 0), cfg, sim::Rng(1));
  flow.start();
  sim.run_until(sim::milliseconds(100));
  EXPECT_LE(flow.current_rate().gbps(), 1.001);
}

TEST(TcpAimd, BacksOffOnLoss) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(1), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpAimdConfig cfg;
  cfg.start_rate = Rate::gigabits_per_sec(3);  // above the bottleneck
  cfg.md_factor = 0.7;
  TcpAimdFlow flow(sim, router, ids, spec_for(ids, 0), cfg, sim::Rng(1));
  flow.start();
  sim.run_until(sim::milliseconds(20));
  EXPECT_GT(flow.packets_lost(), 0u);
  EXPECT_LT(flow.current_rate().gbps(), 3.0);
}

TEST(TcpAimd, ConvergesToBottleneck) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(2), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpAimdConfig cfg;
  cfg.additive_increase = Rate::megabits_per_sec(80);
  cfg.md_factor = 0.9;
  cfg.max_rate = Rate::gigabits_per_sec(4);
  TcpAimdFlow flow(sim, router, ids, spec_for(ids, 0), cfg, sim::Rng(1));
  flow.start();
  sim.run_until(sim::milliseconds(500));
  EXPECT_NEAR(dev.delivered_rate(sim.now()).gbps(), 2.0, 0.25);
}

TEST(TcpAimd, StopHaltsTraffic) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(10), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpAimdFlow flow(sim, router, ids, spec_for(ids, 0), TcpAimdConfig{}, sim::Rng(1));
  flow.start();
  sim.run_until(sim::milliseconds(10));
  flow.stop();
  const auto sent = flow.packets_sent();
  sim.run_until(sim::milliseconds(30));
  EXPECT_EQ(flow.packets_sent(), sent);
  EXPECT_FALSE(flow.active());
}

TEST(TcpReno, SlowStartGrowsCwndExponentially) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(100));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpRenoConfig cfg;
  cfg.initial_cwnd = 2;
  cfg.ssthresh = 64;
  TcpRenoFlow flow(sim, router, ids, spec_for(ids, 0), cfg);
  flow.start();
  sim.run_until(sim::milliseconds(20));
  EXPECT_GE(flow.cwnd(), 60.0);
}

TEST(TcpReno, FastRecoveryHalvesOnLoss) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::megabits_per_sec(500), sim::microseconds(100));
  IdAllocator ids;
  FlowRouter router(dev);
  TcpRenoConfig cfg;
  TcpRenoFlow flow(sim, router, ids, spec_for(ids, 0), cfg);
  flow.start();
  sim.run_until(sim::milliseconds(300));
  EXPECT_GT(flow.packets_lost(), 0u);
  // Converged goodput close to bottleneck.
  EXPECT_NEAR(flow.goodput(sim.now()).mbps(), 500.0, 150.0);
}

TEST(CbrFlowTest, HoldsConfiguredRate) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  CbrFlow flow(sim, router, ids, spec_for(ids, 0, 1000), Rate::gigabits_per_sec(1),
               sim::Rng(3), 0.0);
  flow.start();
  sim.run_until(sim::milliseconds(100));
  const double expected = 1e9 * 0.1 / 8.0 / 1000.0;  // packets in 100 ms
  EXPECT_NEAR(static_cast<double>(flow.packets_sent()), expected, expected * 0.02);
}

TEST(CbrFlowTest, SetRateTakesEffect) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  CbrFlow flow(sim, router, ids, spec_for(ids, 0, 1000), Rate::gigabits_per_sec(1),
               sim::Rng(3), 0.0);
  flow.start();
  sim.run_until(sim::milliseconds(50));
  const auto before = flow.packets_sent();
  flow.set_rate(Rate::gigabits_per_sec(2));
  sim.run_until(sim::milliseconds(100));
  const auto delta = flow.packets_sent() - before;
  EXPECT_NEAR(static_cast<double>(delta), 2.0 * static_cast<double>(before),
              static_cast<double>(before) * 0.1);
}

TEST(PoissonFlowTest, MeanRateApproximatelyCorrect) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  PoissonFlow flow(sim, router, ids, spec_for(ids, 0, 1000), Rate::gigabits_per_sec(1),
                   sim::Rng(5));
  flow.start();
  sim.run_until(sim::milliseconds(200));
  const double expected = 1e9 * 0.2 / 8.0 / 1000.0;
  EXPECT_NEAR(static_cast<double>(flow.packets_sent()), expected, expected * 0.1);
}

TEST(OnOffFlowTest, DutyCycleScalesRate) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  // 50% duty: mean on == mean off.
  OnOffFlow flow(sim, router, ids, spec_for(ids, 0, 1000), Rate::gigabits_per_sec(2),
                 sim::milliseconds(5), sim::milliseconds(5), sim::Rng(7));
  flow.start();
  sim.run_until(sim::milliseconds(500));
  const double full_rate_pkts = 2e9 * 0.5 / 8.0 / 1000.0;
  EXPECT_NEAR(static_cast<double>(flow.packets_sent()), full_rate_pkts * 0.5,
              full_rate_pkts * 0.2);
}

TEST(AppProcessTest, RunBetweenStartsAndStops) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  AppConfig cfg;
  cfg.name = "app";
  cfg.num_connections = 2;
  AppProcess app(sim, router, ids, cfg, sim::Rng(9));
  app.run_between(sim::milliseconds(10), sim::milliseconds(30));
  sim.run_until(sim::milliseconds(5));
  EXPECT_FALSE(app.active());
  EXPECT_EQ(app.packets_sent(), 0u);
  sim.run_until(sim::milliseconds(20));
  EXPECT_TRUE(app.active());
  EXPECT_GT(app.packets_sent(), 0u);
  sim.run_until(sim::milliseconds(35));
  const auto sent = app.packets_sent();
  sim.run_until(sim::milliseconds(60));
  EXPECT_EQ(app.packets_sent(), sent);
}

TEST(AppProcessTest, SetConnectionsGrowsAndShrinks) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  AppConfig cfg;
  cfg.name = "app";
  cfg.num_connections = 1;
  AppProcess app(sim, router, ids, cfg, sim::Rng(9));
  app.start();
  app.set_connections(4);
  EXPECT_EQ(app.connections(), 4u);
  sim.run_until(sim::milliseconds(10));
  app.set_connections(2);
  EXPECT_EQ(app.connections(), 2u);
  sim.run_until(sim::milliseconds(20));
  EXPECT_GT(app.packets_sent(), 0u);
}

TEST(FlowRouterTest, TracksAppSeries) {
  sim::Simulator sim;
  BottleneckDevice dev(sim, Rate::gigabits_per_sec(100), sim::microseconds(10));
  IdAllocator ids;
  FlowRouter router(dev);
  stats::ThroughputSeries series(sim::milliseconds(10));
  router.track_app(3, &series);
  CbrFlow flow(sim, router, ids, spec_for(ids, 3, 1000), Rate::gigabits_per_sec(1),
               sim::Rng(3), 0.0);
  flow.start();
  sim.run_until(sim::milliseconds(20));
  EXPECT_GT(series.total_bytes(), 0u);
}

}  // namespace
}  // namespace flowvalve::traffic
