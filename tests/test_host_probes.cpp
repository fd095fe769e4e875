// Unit tests for the measurement probes (netperf/pktgen stand-ins).
#include <gtest/gtest.h>

#include "host/probes.h"
#include "sim/simulator.h"

namespace flowvalve::host {
namespace {

/// Device with a fixed, known delay — lets the latency probe be validated
/// against ground truth.
class FixedDelayDevice final : public net::EgressDevice {
 public:
  FixedDelayDevice(sim::Simulator& sim, sim::SimDuration delay, unsigned drop_every = 0)
      : sim_(sim), delay_(delay), drop_every_(drop_every) {}

  bool submit(net::Packet pkt) override {
    ++count_;
    if (drop_every_ != 0 && count_ % drop_every_ == 0) {
      notify_drop(pkt);
      return false;
    }
    sim_.schedule_after(delay_, [this, pkt]() mutable {
      pkt.wire_tx_done = sim_.now();
      pkt.delivered_at = sim_.now();
      deliver(pkt);
    });
    return true;
  }

 private:
  sim::Simulator& sim_;
  sim::SimDuration delay_;
  unsigned drop_every_;
  unsigned count_ = 0;
};

traffic::FlowSpec probe_spec(traffic::IdAllocator& ids) {
  traffic::FlowSpec s;
  s.flow_id = ids.next_flow_id();
  s.app_id = 5;
  s.wire_bytes = 256;
  return s;
}

TEST(LatencyProbeTest, MeasuresFixedDelayExactly) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(123));
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  LatencyProbe probe(sim, router, ids, probe_spec(ids), sim::Rate::megabits_per_sec(10),
                     sim::Rng(1));
  probe.start();
  sim.run_until(sim::milliseconds(100));
  EXPECT_GT(probe.latency().count(), 100u);
  EXPECT_NEAR(probe.latency().mean_us(), 123.0, 0.1);
  EXPECT_NEAR(probe.latency().stddev_us(), 0.0, 0.1);
  EXPECT_EQ(probe.packets_lost(), 0u);
}

TEST(LatencyProbeTest, CountsLosses) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(10), /*drop_every=*/4);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  LatencyProbe probe(sim, router, ids, probe_spec(ids), sim::Rate::megabits_per_sec(10),
                     sim::Rng(1));
  probe.start();
  sim.run_until(sim::milliseconds(50));
  EXPECT_GT(probe.packets_lost(), 0u);
  EXPECT_NEAR(static_cast<double>(probe.packets_lost()),
              static_cast<double>(probe.packets_sent()) / 4.0,
              static_cast<double>(probe.packets_sent()) * 0.05);
}

TEST(LatencyProbeTest, StopHalts) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(10));
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  LatencyProbe probe(sim, router, ids, probe_spec(ids), sim::Rate::megabits_per_sec(10),
                     sim::Rng(1));
  probe.start();
  sim.run_until(sim::milliseconds(10));
  probe.stop();
  const auto sent = probe.packets_sent();
  sim.run_until(sim::milliseconds(30));
  EXPECT_EQ(probe.packets_sent(), sent);
}

TEST(SaturationLoadTest, OffersAtConfiguredAggregateRate) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(5));
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  SaturationLoad::Config cfg;
  cfg.num_flows = 8;
  cfg.wire_bytes = 64;
  cfg.offered = sim::Rate::gigabits_per_sec(10);
  SaturationLoad load(sim, router, ids, cfg, sim::Rng(2));
  load.start();
  sim.run_until(sim::milliseconds(10));
  // 10G at 84 wire bytes → 14.88 Mpps → 148.8k packets in 10 ms.
  EXPECT_NEAR(static_cast<double>(load.packets_sent()), 148800.0, 1500.0);
}

TEST(SaturationLoadTest, MeasuresDeliveredMppsAfterWarmup) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(5));
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  SaturationLoad::Config cfg;
  cfg.num_flows = 4;
  cfg.wire_bytes = 64;
  cfg.offered = sim::Rate::gigabits_per_sec(10);
  SaturationLoad load(sim, router, ids, cfg, sim::Rng(2));
  load.start();
  sim.run_until(sim::milliseconds(5));
  load.begin_measurement();
  sim.run_until(sim::milliseconds(15));
  // Everything is delivered: measured ≈ offered pps = 14.88 Mpps.
  EXPECT_NEAR(load.delivered_mpps(sim::milliseconds(15)), 14.88, 0.3);
}

TEST(SaturationLoadTest, SpreadsFlowsOverVfs) {
  sim::Simulator sim;
  FixedDelayDevice dev(sim, sim::microseconds(5));
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  SaturationLoad::Config cfg;
  cfg.num_flows = 8;
  cfg.num_vfs = 4;
  cfg.offered = sim::Rate::gigabits_per_sec(1);
  SaturationLoad load(sim, router, ids, cfg, sim::Rng(2));
  load.start();
  // Intercept the next layer: count VFs seen.
  std::array<int, 4> seen{};
  dev.set_on_delivered([&](const net::Packet& p) { ++seen[p.vf_port % 4]; });
  sim.run_until(sim::milliseconds(5));
  for (int i = 0; i < 4; ++i) EXPECT_GT(seen[static_cast<std::size_t>(i)], 0);
}

}  // namespace
}  // namespace flowvalve::host
