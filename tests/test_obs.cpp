// Tier-1 coverage for src/obs: histogram bucketing/percentiles, the JSON
// emitter, the latency decomposition against hand-computable pipeline
// timings, windowed throughput accounting, and the MetricsHub counter
// snapshot (utilization bound, reorder occupancy passthrough).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/json_writer.h"
#include "obs/metrics_hub.h"
#include "sim/simulator.h"

namespace flowvalve::obs {
namespace {

// ---- LogHistogram --------------------------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  for (std::uint64_t v = 0; v < 16; ++v)
    EXPECT_EQ(LogHistogram::bucket_mid(LogHistogram::bucket_index(v)), v);
}

TEST(LogHistogram, BucketRelativeErrorBounded) {
  // Any value's representative must be within 1/16 (one sub-bucket) of it.
  for (std::uint64_t v : {17ull, 100ull, 1000ull, 123456ull, 9999999ull,
                          123456789012ull}) {
    const std::uint64_t mid = LogHistogram::bucket_mid(LogHistogram::bucket_index(v));
    const double rel = std::abs(double(mid) - double(v)) / double(v);
    EXPECT_LE(rel, 1.0 / 16.0) << v;
  }
}

TEST(LogHistogram, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < 1 << 20; v = v * 2 + 1) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << v;
    prev = idx;
  }
}

TEST(LogHistogram, PercentilesOnUniformRamp) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(double(h.p50()), 5000.0, 5000.0 / 16.0);
  EXPECT_NEAR(double(h.p90()), 9000.0, 9000.0 / 16.0);
  EXPECT_NEAR(double(h.p99()), 9900.0, 9900.0 / 16.0);
  EXPECT_NEAR(double(h.p999()), 9990.0, 9990.0 / 16.0);
  EXPECT_NEAR(h.mean(), 5000.5, 0.001);
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_EQ(h.percentile(100.0), 10000u);
}

TEST(LogHistogram, MergeAndReset) {
  LogHistogram a, b;
  a.record(10);
  a.record(100);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.percentile(50), 0u);
}

// ---- JsonWriter ----------------------------------------------------------

TEST(JsonWriter, EmitsValidStructure) {
  JsonWriter w;
  w.begin_object()
      .key("name").value("fv")
      .key("n").value(std::uint64_t{42})
      .key("x").value(1.5)
      .key("ok").value(true)
      .key("list").begin_array().value(1).value(2).end_array()
      .key("nested").begin_object().key("a").value("b\"c").end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"fv","n":42,"x":1.5,"ok":true,"list":[1,2],)"
            R"("nested":{"a":"b\"c"}})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(0.0 / 0.0).value(1e308 * 10).end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---- Pipeline-attached pieces --------------------------------------------

/// Fixed-cost forwarding processor (deterministic service time).
class FixedCost final : public np::PacketProcessor {
 public:
  explicit FixedCost(std::uint32_t cycles) : cycles_(cycles) {}
  Outcome process(net::Packet&, sim::SimTime) override { return {true, cycles_}; }

 private:
  std::uint32_t cycles_;
};

net::Packet packet_on(std::uint16_t vf, std::uint64_t id,
                      std::uint32_t bytes = 1000) {
  net::Packet p;
  p.id = id;
  p.vf_port = vf;
  p.flow_id = vf;
  p.wire_bytes = bytes;
  return p;
}

np::NpConfig small_config() {
  np::NpConfig cfg;
  cfg.num_workers = 1;
  cfg.num_vfs = 2;
  cfg.wire_rate = sim::Rate::gigabits_per_sec(10);
  cfg.fixed_pipeline_delay = sim::microseconds(3);
  return cfg;
}

TEST(LatencyRecorder, DecomposesSojournIntoSegments) {
  // One worker, one packet: every segment is hand-computable.
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  FixedCost proc(1000);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe);
  hub.start();

  pipe.submit(packet_on(0, 1));
  hub.stop_sampling();  // the sampling timer would re-arm forever
  sim.run_all();

  const LatencyRecorder& lat = hub.latency();
  EXPECT_EQ(lat.recorded(), 1u);
  EXPECT_EQ(lat.pending(), 0u);
  const auto busy_ns = static_cast<std::uint64_t>(
      cfg.cycles_to_ns(np::kBaseRxCycles + 1000 + np::kBaseTxCycles));
  EXPECT_EQ(lat.segment(Segment::kVfWait).max(), 0u);      // idle worker
  EXPECT_EQ(lat.segment(Segment::kService).max(), busy_ns);
  EXPECT_EQ(lat.segment(Segment::kReorderHold).max(), 0u); // in-order
  // tx_wait = own serialization at 10G (1020 wire bytes → 816 ns).
  const auto ser = static_cast<std::uint64_t>(
      cfg.wire_rate.serialization_delay(1000 + net::kEthernetOverheadBytes));
  EXPECT_EQ(lat.segment(Segment::kTxWait).max(), ser);
  EXPECT_EQ(lat.segment(Segment::kWireFixed).max(),
            static_cast<std::uint64_t>(cfg.fixed_pipeline_delay));
  EXPECT_EQ(lat.segment(Segment::kTotal).max(), busy_ns + ser +
            static_cast<std::uint64_t>(cfg.fixed_pipeline_delay));
  // Per-class total keyed by VF.
  ASSERT_EQ(lat.per_class_total().count(0), 1u);
  EXPECT_EQ(lat.per_class_total().at(0).count(), 1u);
}

TEST(LatencyRecorder, SegmentsSumToTotal) {
  // With 2 workers and jittered arrivals every segment is exercised; for
  // every delivery the five parts must add up to the whole (identically —
  // all segments are integer ns cut from the same timeline).
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  cfg.num_workers = 2;
  FixedCost proc(4000);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe);
  hub.start();

  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto at = static_cast<sim::SimTime>(i * 137);
    sim.schedule_at(at, [&pipe, i] {
      pipe.submit(packet_on(static_cast<std::uint16_t>(i % 2), i));
    });
  }
  hub.stop_sampling();
  sim.run_all();

  const LatencyRecorder& lat = hub.latency();
  EXPECT_EQ(lat.recorded(), 200u);
  EXPECT_EQ(lat.pending(), 0u);
  double parts = 0.0;
  for (Segment s : {Segment::kVfWait, Segment::kService, Segment::kReorderHold,
                    Segment::kTxWait, Segment::kWireFixed})
    parts += lat.segment(s).sum();
  EXPECT_DOUBLE_EQ(parts, lat.segment(Segment::kTotal).sum());
}

TEST(LatencyRecorder, DropsDiscardPendingState) {
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  cfg.tx_ring_capacity = 1;
  cfg.wire_rate = sim::Rate::gigabits_per_sec(1);  // slow drain → Tx overflow
  FixedCost proc(100);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe);
  hub.start();

  for (std::uint64_t i = 0; i < 50; ++i) pipe.submit(packet_on(0, i, 1500));
  hub.stop_sampling();
  sim.run_all();

  EXPECT_GT(pipe.stats().tx_ring_drops, 0u);
  EXPECT_EQ(hub.latency().pending(), 0u);
  EXPECT_EQ(hub.latency().recorded(), pipe.stats().forwarded_to_wire);
}

TEST(LatencyRecorder, PendingShrinksOnDropsMidRun) {
  // pending_ is bounded by live in-flight packets, not by history: every
  // drop notification must ERASE its entry. Sample pending() throughout a
  // run that tail-drops most of a burst — it must rise, stay within the
  // pipeline's physical in-flight bound, and fall back to zero, instead of
  // accumulating one leaked entry per dropped packet.
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  cfg.tx_ring_capacity = 1;
  cfg.wire_rate = sim::Rate::gigabits_per_sec(1);  // slow drain → Tx overflow
  // A worker burst legitimately holds batch_size pending entries; keep the
  // burst small so the ≤10 peak bound still discriminates a leak (~40+
  // entries) from physical in-flight occupancy. Batch-32 pending behavior
  // is pinned in test_np_batch_diff.cpp.
  cfg.batch_size = 2;
  FixedCost proc(100);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe);
  hub.start();

  std::vector<std::size_t> samples;
  sim::EventHandle probe = sim.schedule_periodic(
      sim::microseconds(5), [&] { samples.push_back(hub.latency().pending()); });

  for (std::uint64_t i = 0; i < 50; ++i) pipe.submit(packet_on(0, i, 1500));
  sim.run_until(sim::milliseconds(2));
  probe.cancel();
  hub.stop_sampling();
  sim.run_all();

  ASSERT_GT(pipe.stats().tx_ring_drops, 20u);  // the scenario really tail-drops
  const std::size_t peak = *std::max_element(samples.begin(), samples.end());
  EXPECT_GE(peak, 1u);   // entries appear at dispatch...
  EXPECT_LE(peak, 10u);  // ...but dropped ones are erased, so the set stays
                         // near the worker+ring in-flight count, nowhere near
                         // the ~40+ dropped packets
  EXPECT_EQ(hub.latency().pending(), 0u);  // and drains fully by quiescence
  EXPECT_EQ(hub.latency().recorded(), pipe.stats().forwarded_to_wire);
}

TEST(ThroughputTracker, WindowsAndTotalsPerClass) {
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  FixedCost proc(100);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe, {.window = sim::microseconds(100)});
  hub.start();

  // 10 packets on VF 0, 5 on VF 1, all in the first 100 us window.
  for (std::uint64_t i = 0; i < 15; ++i) {
    const auto at = static_cast<sim::SimTime>(i * 1500);
    sim.schedule_at(at, [&pipe, i] {
      pipe.submit(packet_on(i < 10 ? 0 : 1, i));
    });
  }
  sim.run_until(sim::microseconds(450));
  hub.stop_sampling();
  sim.run_all();

  const auto totals = hub.throughput().totals();
  ASSERT_EQ(totals.count(0), 1u);
  ASSERT_EQ(totals.count(1), 1u);
  EXPECT_EQ(totals.at(0).tx_packets, 10u);
  EXPECT_EQ(totals.at(0).tx_bytes, 10u * 1000u);
  EXPECT_EQ(totals.at(1).tx_packets, 5u);
  EXPECT_EQ(totals.at(0).drops, 0u);

  const auto& wins = hub.throughput().windows();
  ASSERT_GE(wins.size(), 4u);  // 4 full windows + the final partial
  EXPECT_EQ(wins[0].end - wins[0].start, sim::microseconds(100));
  // All traffic landed in the first window; later ones are empty but exist.
  EXPECT_EQ(wins[0].classes.at(0).tx_packets, 10u);
  EXPECT_GT(wins[0].rate(0).gbps(), 0.0);
  EXPECT_TRUE(wins[2].classes.empty());
  // Window totals reconcile with the run totals.
  std::uint64_t windowed = 0;
  for (const auto& w : wins)
    for (const auto& [vf, c] : w.classes) windowed += c.tx_packets;
  EXPECT_EQ(windowed, 15u);
}

TEST(MetricsHub, SnapshotFoldsCountersAndBounds) {
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  FixedCost proc(2000);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe);
  hub.start();

  for (std::uint64_t i = 0; i < 100; ++i) pipe.submit(packet_on(0, i));
  sim.run_until(sim::microseconds(50));  // mid-run: workers still busy
  const CounterSnapshot mid = hub.snapshot();
  EXPECT_GE(mid.worker_utilization, 0.0);
  EXPECT_LE(mid.worker_utilization, 1.0);
  hub.stop_sampling();
  sim.run_all();

  const CounterSnapshot s = hub.snapshot();
  EXPECT_EQ(s.nic.submitted, 100u);
  EXPECT_FALSE(s.have_sched);  // no engine attached
  EXPECT_LE(s.worker_utilization, 1.0);
  EXPECT_EQ(s.reorder_occupancy, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(MetricsHub, JsonExportCarriesAllSections) {
  sim::Simulator sim;
  np::NpConfig cfg = small_config();
  FixedCost proc(500);
  np::NicPipeline pipe(sim, cfg, proc);
  MetricsHub hub(sim, pipe, {.window = sim::microseconds(50)});
  hub.start();
  for (std::uint64_t i = 0; i < 20; ++i) pipe.submit(packet_on(0, i));
  sim.run_until(sim::microseconds(200));
  hub.stop_sampling();
  sim.run_all();

  const std::string json = metrics_to_json(hub);
  for (const char* needle :
       {"\"counters\"", "\"latency\"", "\"throughput\"", "\"vf_wait\"",
        "\"service\"", "\"reorder_hold\"", "\"tx_wait\"", "\"wire_fixed\"",
        "\"total\"", "\"p99_ns\"", "\"worker_utilization\"",
        "\"reorder_occupancy\"", "\"windows\"", "\"totals\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  // Balanced braces/brackets — cheap structural sanity without a parser.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace flowvalve::obs
