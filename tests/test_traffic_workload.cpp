// Unit tests for the datacenter flow-level workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/fnv.h"
#include "sim/simulator.h"
#include "traffic/churn.h"
#include "traffic/workload.h"

namespace flowvalve::traffic {
namespace {

using sim::Rate;

/// Sink that accepts everything instantly.
class SinkDevice final : public net::EgressDevice {
 public:
  explicit SinkDevice(sim::Simulator& sim) : sim_(sim) {}
  bool submit(net::Packet pkt) override {
    bytes_ += pkt.wire_bytes;
    pkt.wire_tx_done = sim_.now();
    pkt.delivered_at = sim_.now();
    deliver(pkt);
    return true;
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  sim::Simulator& sim_;
  std::uint64_t bytes_ = 0;
};

TEST(FlowSizeDist, SamplesWithinBounds) {
  FlowSizeDistribution dist(1.2, 1000, 1'000'000);
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto s = dist.sample(rng);
    ASSERT_GE(s, 1000u);
    ASSERT_LE(s, 1'000'000u);
  }
}

TEST(FlowSizeDist, EmpiricalMeanMatchesAnalytic) {
  FlowSizeDistribution dist(1.3, 2000, 10'000'000);
  sim::Rng rng(2);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(dist.sample(rng));
  EXPECT_NEAR(sum / n, dist.mean_bytes(), dist.mean_bytes() * 0.05);
}

TEST(FlowSizeDist, HeavyTailPresent) {
  // With alpha=1.1 most flows are small but a few are huge: the top 10% of
  // samples should carry the majority of the bytes.
  FlowSizeDistribution dist(1.1, 1500, 50'000'000);
  sim::Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(static_cast<double>(dist.sample(rng)));
  std::sort(samples.begin(), samples.end());
  double total = 0, top = 0;
  for (double s : samples) total += s;
  for (std::size_t i = samples.size() * 9 / 10; i < samples.size(); ++i) top += samples[i];
  EXPECT_GT(top / total, 0.5);
  // And the median is well below the mean (mean dragged up by the tail).
  EXPECT_LT(samples[samples.size() / 2],
            0.35 * total / static_cast<double>(samples.size()));
}

TEST(DatacenterWorkloadTest, OfferedLoadMatchesConfig) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 4000;
  cfg.sizes = FlowSizeDistribution(1.5, 3000, 300'000);
  cfg.flow_rate = Rate::gigabits_per_sec(1);
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(4));
  wl.start();
  sim.run_until(sim::seconds(2));
  const double offered_gbps =
      static_cast<double>(wl.bytes_sent()) * 8.0 / sim::seconds(2);
  EXPECT_NEAR(offered_gbps, cfg.offered_load().gbps(), cfg.offered_load().gbps() * 0.25);
  EXPECT_GT(wl.flows_started(), 6000u);
  EXPECT_GT(wl.flows_completed(), 5000u);
}

TEST(DatacenterWorkloadTest, FlowsTerminateAfterTheirSize) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 500;
  cfg.sizes = FlowSizeDistribution(1.5, 3000, 30'000);
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(5));
  wl.start();
  sim.run_until(sim::milliseconds(500));
  wl.stop();
  // Small sizes and a fast flow rate: nearly everything completes.
  EXPECT_GE(wl.flows_completed() + wl.flows_active(), wl.flows_started());
  EXPECT_GT(wl.flows_completed(), wl.flows_started() * 9 / 10);
  EXPECT_EQ(wl.flows_active(), 0u);  // stop() cleared the rest
}

TEST(DatacenterWorkloadTest, StopIsIdempotentAndHalts) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkload wl(sim, router, ids, DatacenterWorkloadConfig{}, sim::Rng(6));
  wl.start();
  sim.run_until(sim::milliseconds(50));
  wl.stop();
  wl.stop();
  const auto sent = wl.packets_sent();
  sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(wl.packets_sent(), sent);
}

TEST(DatacenterWorkloadTest, DeliveriesRouteBack) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  DatacenterWorkloadConfig cfg;
  cfg.flows_per_sec = 1000;
  DatacenterWorkload wl(sim, router, ids, cfg, sim::Rng(7));
  wl.start();
  sim.run_until(sim::milliseconds(200));
  EXPECT_GT(wl.packets_delivered(), 0u);
  EXPECT_EQ(wl.packets_dropped(), 0u);
}

// ---- ChurnWorkload ----------------------------------------------------------

TEST(ChurnWorkloadTest, HoldsTargetLiveFlowsUnderReplacement) {
  sim::Simulator sim;
  SinkDevice sink(sim);
  IdAllocator ids;
  FlowRouter router(sink);
  ChurnWorkloadConfig cfg;
  cfg.target_live_flows = 2048;
  cfg.flows_per_sec = 200'000;  // replacements easily keep up with deaths
  cfg.aggregate_rate = Rate::gigabits_per_sec(20);
  ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(8));
  wl.start();
  sim.run_until(sim::milliseconds(40));
  // Flows die and are replaced, but the live population sits at the target.
  EXPECT_GT(wl.flows_completed(), 100u);
  EXPECT_EQ(wl.flows_live(), cfg.target_live_flows);
  EXPECT_GT(wl.flows_started(), cfg.target_live_flows);
  EXPECT_GT(wl.packets_delivered(), 0u);
  wl.stop();
  EXPECT_EQ(wl.flows_live(), 0u);
}

TEST(ChurnWorkloadTest, AggregateRateIndependentOfLiveFlowCount) {
  // The knob churn turns is how one fixed aggregate rate is spread across
  // flows — 100x the live flows must not change the offered load.
  const auto offered = [](std::size_t live) {
    sim::Simulator sim;
    SinkDevice sink(sim);
    IdAllocator ids;
    FlowRouter router(sink);
    ChurnWorkloadConfig cfg;
    cfg.target_live_flows = live;
    cfg.flows_per_sec = 0;  // no replacement: pure round-robin service
    cfg.min_packets = 1 << 20;  // flows never complete inside the horizon
    cfg.max_packets = 1 << 21;
    cfg.aggregate_rate = Rate::gigabits_per_sec(10);
    ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(9));
    wl.start();
    sim.run_until(sim::milliseconds(50));
    return static_cast<double>(wl.bytes_sent()) * 8.0 / sim::milliseconds(50);
  };
  const double small = offered(64);
  const double large = offered(6400);
  EXPECT_NEAR(small, 10.0, 1.0);
  EXPECT_NEAR(large, small, small * 0.05);
}

TEST(ChurnWorkloadTest, SerialSchemeYieldsUniqueKeysAcrossVfs) {
  // tuple_for/vf_for is the shared contract with bench/scale_sweep's table
  // primer: (vf, tuple) keys must be unique per serial.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (std::uint64_t serial = 0; serial < 200'000; ++serial) {
    const net::FiveTuple t = ChurnWorkload::tuple_for(serial);
    keys.emplace_back(
        (static_cast<std::uint64_t>(t.src_ip) << 16) | t.src_port,
        ChurnWorkload::vf_for(serial, 4));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

/// Sink that folds every packet created up to `horizon` into a digest and
/// counts the distinct instants at which packets were submitted.
class DigestSink final : public net::EgressDevice {
 public:
  DigestSink(sim::Simulator& sim, sim::Fnv1a& digest, sim::SimTime horizon)
      : sim_(sim), digest_(digest), horizon_(horizon) {}
  bool submit(net::Packet pkt) override {
    if (pkt.created_at <= horizon_) {
      digest_.mix(pkt.id);
      digest_.mix(pkt.flow_id);
      digest_.mix(static_cast<std::uint64_t>(pkt.created_at));
      digest_.mix(pkt.seq_in_flow);
      digest_.mix((static_cast<std::uint64_t>(pkt.tuple.src_ip) << 32) |
                  pkt.tuple.dst_ip);
      digest_.mix((static_cast<std::uint64_t>(pkt.tuple.src_port) << 24) |
                  (static_cast<std::uint64_t>(pkt.tuple.dst_port) << 8) |
                  static_cast<std::uint64_t>(pkt.tuple.proto));
      digest_.mix(pkt.vf_port);
    }
    if (instants_ == 0 || sim_.now() != last_) ++instants_;
    last_ = sim_.now();
    pkt.wire_tx_done = sim_.now();
    pkt.delivered_at = sim_.now();
    deliver(pkt);
    return true;
  }
  std::uint64_t instants() const { return instants_; }

 private:
  sim::Simulator& sim_;
  sim::Fnv1a& digest_;
  sim::SimTime horizon_;
  std::uint64_t instants_ = 0;
  sim::SimTime last_ = 0;
};

/// 64 live flows of 2..8 packets whose replacement arrivals far outpace
/// completions, so the population sits at the cap and arrivals often land
/// on the instant of a service event.
ChurnWorkloadConfig at_cap_config(std::uint32_t train, std::uint32_t bytes,
                                  double gbps, double arrivals_per_sec) {
  ChurnWorkloadConfig cfg;
  cfg.target_live_flows = 64;
  cfg.min_packets = 2;
  cfg.max_packets = 8;
  cfg.train_length = train;
  cfg.wire_bytes = bytes;
  cfg.aggregate_rate = Rate::gigabits_per_sec(gbps);
  cfg.flows_per_sec = arrivals_per_sec;
  return cfg;
}

/// Steps the run event by event up to `horizon`, folding every change of
/// flows_started() with its instant and every submitted packet into one
/// digest: a fingerprint of each spawn instant and the packet stream.
std::uint64_t churn_history_digest(const ChurnWorkloadConfig& cfg, sim::Rng rng,
                                   sim::SimTime horizon) {
  sim::Simulator sim;
  sim::Fnv1a digest;
  DigestSink sink(sim, digest, horizon);
  IdAllocator ids;
  FlowRouter router(sink);
  ChurnWorkload wl(sim, router, ids, cfg, rng);
  wl.start();
  std::uint64_t started = wl.flows_started();
  while (sim.step() && sim.now() <= horizon) {
    if (wl.flows_started() == started) continue;
    started = wl.flows_started();
    digest.mix(static_cast<std::uint64_t>(sim.now()));
    digest.mix(started);
  }
  digest.mix(started);
  return digest.value();
}

TEST(ChurnWorkloadTest, ParkedArrivalsKeepEverySpawnInstantAndPacket) {
  // Digests recorded with an arrival event per gap (no parking). In the
  // first run many spawns land on the instant of the service that
  // completed a flow, after it. In the second, gaps also span whole
  // service intervals, so an arrival drawn before a service was scheduled
  // ties with it and fires first. Firing every tied arrival first, or
  // every one second, changes a digest.
  EXPECT_EQ(churn_history_digest(at_cap_config(4, 1518, 10, 5e8), sim::Rng(1),
                                 sim::milliseconds(2)),
            0xe906fad62e181651ull);
  EXPECT_EQ(churn_history_digest(at_cap_config(2, 128, 100, 2e8), sim::Rng(3),
                                 sim::milliseconds(1)),
            0x1c36c186a555a827ull);
}

TEST(ChurnWorkloadTest, AtTheCapArrivalsCostNoEvents) {
  // At the cap an arrival only draws its gap, so it must not cost an
  // event: the run executes one event per service plus one per spawn.
  sim::Simulator sim;
  sim::Fnv1a digest;
  const sim::SimTime horizon = sim::milliseconds(5);
  DigestSink sink(sim, digest, horizon);
  IdAllocator ids;
  FlowRouter router(sink);
  const ChurnWorkloadConfig cfg = at_cap_config(4, 1518, 10, 5e8);
  ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(1));
  wl.start();
  const std::uint64_t events = sim.run_until(horizon);
  const std::uint64_t spawns = wl.flows_started() - cfg.target_live_flows;
  EXPECT_GT(spawns, 100u);
  EXPECT_LE(events, sink.instants() + spawns + 2);
}

TEST(ChurnWorkloadTest, SameSeedSameChurnHistory) {
  const auto run = [] {
    sim::Simulator sim;
    SinkDevice sink(sim);
    IdAllocator ids;
    FlowRouter router(sink);
    ChurnWorkloadConfig cfg;
    cfg.target_live_flows = 512;
    cfg.flows_per_sec = 100'000;
    ChurnWorkload wl(sim, router, ids, cfg, sim::Rng(10));
    wl.start();
    sim.run_until(sim::milliseconds(30));
    return std::tuple{wl.packets_sent(), wl.bytes_sent(), wl.flows_started(),
                      wl.flows_completed()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace flowvalve::traffic
