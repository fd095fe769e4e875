// Regression tests for NicPipeline's reorder system (paper Fig. 4) —
// specifically the reorder_commit edge cases: a drop in the middle of the
// window must release the later packets it was blocking, and the pipeline
// must always drain back to in_flight == 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "np/nic_pipeline.h"
#include "sim/simulator.h"

namespace flowvalve::np {
namespace {

/// Per-packet-id scripted outcomes; unscripted packets forward at a fixed
/// cost. Lets a test force any completion order across workers.
class ScriptedProcessor final : public PacketProcessor {
 public:
  void script(std::uint64_t id, bool forward, std::uint32_t cycles) {
    script_[id] = Outcome{forward, cycles};
  }

  Outcome process(net::Packet& pkt, sim::SimTime) override {
    if (auto it = script_.find(pkt.id); it != script_.end()) return it->second;
    return {true, 100};
  }

 private:
  std::map<std::uint64_t, Outcome> script_;
};

net::Packet make_packet(std::uint64_t id, std::uint32_t bytes = 1000) {
  net::Packet pkt;
  pkt.id = id;
  pkt.flow_id = 1;
  pkt.vf_port = 0;
  pkt.wire_bytes = bytes;
  pkt.seq_in_flow = id;
  return pkt;
}

NpConfig three_worker_config(bool enforce_reorder = true) {
  NpConfig cfg;
  cfg.num_workers = 3;
  cfg.num_vfs = 1;
  cfg.enforce_reorder = enforce_reorder;
  cfg.fixed_pipeline_delay = sim::microseconds(1);
  return cfg;
}

struct Rig {
  sim::Simulator sim;
  ScriptedProcessor proc;
  NicPipeline pipeline;
  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> dropped;

  explicit Rig(NpConfig cfg) : pipeline(sim, cfg, proc) {
    pipeline.set_on_delivered(
        [this](const net::Packet& pkt) { delivered.push_back(pkt.id); });
    pipeline.set_on_dropped(
        [this](const net::Packet& pkt) { dropped.push_back(pkt.id); });
  }
};

// Three packets grabbed by three workers; the middle one (seq 1) is dropped
// and finishes FIRST. Its hole must not wedge the window: once the slow
// head (seq 0) commits, both survivors go out, in ingress order.
TEST(NpReorder, MidWindowDropReleasesLaterPackets) {
  Rig run(three_worker_config());
  run.proc.script(0, true, 20000);  // head: slowest
  run.proc.script(1, false, 100);   // middle: dropped, completes first
  run.proc.script(2, true, 3000);   // tail: completes second

  for (std::uint64_t id = 0; id < 3; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(run.dropped, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
  EXPECT_EQ(run.pipeline.stats().scheduler_drops, 1u);
  EXPECT_EQ(run.pipeline.stats().forwarded_to_wire, 2u);
}

// A dropped packet at the HEAD of the window must advance the release
// pointer immediately so buffered successors flow out.
TEST(NpReorder, HeadDropAdvancesWindow) {
  Rig run(three_worker_config());
  run.proc.script(0, false, 100);   // head dropped, completes first
  run.proc.script(1, true, 20000);  // slow survivor
  run.proc.script(2, true, 3000);   // fast survivor, must wait for 1

  for (std::uint64_t id = 0; id < 3; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
}

// With the reorder system on, wire order equals ingress order even when
// completion order inverts; with it off, the fast packet overtakes.
TEST(NpReorder, ReorderPreservesIngressOrder) {
  for (bool enforce : {true, false}) {
    Rig run(three_worker_config(enforce));
    run.proc.script(0, true, 20000);
    run.proc.script(1, true, 100);

    EXPECT_TRUE(run.pipeline.submit(make_packet(0)));
    EXPECT_TRUE(run.pipeline.submit(make_packet(1)));
    run.sim.run_all();

    const std::vector<std::uint64_t> expected =
        enforce ? std::vector<std::uint64_t>{0, 1}
                : std::vector<std::uint64_t>{1, 0};
    EXPECT_EQ(run.delivered, expected) << "enforce_reorder=" << enforce;
    EXPECT_EQ(run.pipeline.in_flight(), 0u);
  }
}

// Every-other-packet drops across a burst larger than the worker pool:
// in_flight must return to 0 and the conservation identity must hold
// exactly after the drain.
TEST(NpReorder, BurstWithDropsDrainsToZeroInFlight) {
  constexpr std::uint64_t kPackets = 64;
  Rig run(three_worker_config());
  for (std::uint64_t id = 0; id < kPackets; ++id)
    run.proc.script(id, id % 2 == 0, 100 + 997 * (id % 7));

  std::uint64_t accepted = 0;
  for (std::uint64_t id = 0; id < kPackets; ++id)
    if (run.pipeline.submit(make_packet(id))) ++accepted;
  run.sim.run_all();

  const auto& st = run.pipeline.stats();
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
  EXPECT_EQ(st.submitted, kPackets);
  EXPECT_EQ(st.submitted, st.forwarded_to_wire + st.vf_ring_drops +
                              st.scheduler_drops + st.tx_ring_drops);
  EXPECT_EQ(run.delivered.size(), st.forwarded_to_wire);
  // Survivors come out in ingress order.
  for (std::size_t i = 1; i < run.delivered.size(); ++i)
    EXPECT_LT(run.delivered[i - 1], run.delivered[i]);
}

// The tail of the window dropping (after earlier packets already released)
// must not disturb anything.
TEST(NpReorder, TailDropIsClean) {
  Rig run(three_worker_config());
  run.proc.script(0, true, 100);
  run.proc.script(1, true, 200);
  run.proc.script(2, false, 20000);  // slow tail, dropped

  for (std::uint64_t id = 0; id < 3; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(run.dropped, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
}

// The Tx ring filling up WHILE the reorder system drains its in-order
// prefix: the head admission succeeds, the rest of the prefix tail-drops at
// the FIFO, and nothing wedges or double-counts.
TEST(NpReorder, TxRingFullDuringReorderRelease) {
  NpConfig cfg = three_worker_config();
  cfg.tx_ring_capacity = 1;
  Rig run(cfg);
  run.proc.script(0, true, 20000);  // head: slowest, blocks the window
  run.proc.script(1, true, 100);    // buffered behind the head
  run.proc.script(2, true, 200);    // buffered behind the head

  for (std::uint64_t id = 0; id < 3; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  // When the head finally commits, the whole prefix releases in one instant:
  // packet 0 takes the single Tx slot, 1 and 2 hit a full ring.
  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(run.dropped, (std::vector<std::uint64_t>{1, 2}));
  const auto& st = run.pipeline.stats();
  EXPECT_EQ(st.tx_ring_drops, 2u);
  EXPECT_EQ(st.forwarded_to_wire, 1u);
  EXPECT_EQ(st.submitted, st.forwarded_to_wire + st.vf_ring_drops +
                              st.scheduler_drops + st.tx_ring_drops +
                              st.reorder_flush_drops);
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
}

// A stuck completion (here: merely very slow) must not grow the reorder
// buffer past its cap. Once the cap trips, the hole is declared lost, the
// buffered survivors flow out in order, and the straggler's eventual
// completion is counted as a reorder-flush drop — not delivered out of
// order, not leaked.
TEST(NpReorder, CapFlushSkipsStuckHoleAndDropsLateCompletion) {
  NpConfig cfg = three_worker_config();
  cfg.num_workers = 2;
  cfg.reorder_capacity = 2;
  Rig run(cfg);
  run.proc.script(0, true, 1000000);  // seq 0: stuck for ~833 us
  for (std::uint64_t id = 1; id <= 4; ++id) run.proc.script(id, true, 100);

  for (std::uint64_t id = 0; id <= 4; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  // Survivors 1-3 pile up behind the hole until the cap (2) trips, then all
  // release in ingress order; 4 flows straight through afterwards.
  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(run.dropped, (std::vector<std::uint64_t>{0}));
  const auto& st = run.pipeline.stats();
  EXPECT_GE(st.reorder_flushes, 1u);
  EXPECT_EQ(st.reorder_flush_drops, 1u);
  EXPECT_EQ(st.reorder_occupancy_peak, 3u);
  EXPECT_EQ(st.submitted, st.forwarded_to_wire + st.vf_ring_drops +
                              st.scheduler_drops + st.tx_ring_drops +
                              st.reorder_flush_drops);
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
  EXPECT_EQ(run.pipeline.reorder_occupancy(), 0u);
}

// Drive next_release_seq_ through five full revolutions of the power-of-two
// reorder ring (capacity 16 + 4*3 workers + 64 slack → 128 slots) with a mix
// of scripted drops and slow stragglers, so ring indices wrap while holes are
// open across the boundary. The window must stay order-preserving and
// conservation-exact with zero emergency flushes.
TEST(NpReorder, RingWrapAroundWithHolesStaysOrdered) {
  constexpr std::uint64_t kPackets = 700;
  NpConfig cfg = three_worker_config();
  cfg.reorder_capacity = 16;       // window rounds up to 128 — kPackets wraps it 5x
  cfg.vf_ring_capacity = 1024;     // accept the whole burst up front
  // Per-packet dispatch: this scenario's ≤6-completions-behind-a-hole math
  // (and the 128-slot window) assumes one packet per worker; the batched
  // wrap-around case is covered by test_np_batch_diff.cpp.
  cfg.batch_size = 1;
  Rig run(cfg);

  std::vector<std::uint64_t> expect_delivered, expect_dropped;
  for (std::uint64_t id = 0; id < kPackets; ++id) {
    if (id % 7 == 0) {
      run.proc.script(id, false, 100);   // scheduler drop -> gap in the window
      expect_dropped.push_back(id);
    } else {
      // Every 11th survivor is a straggler: ~9 us vs ~2.4 us service time,
      // so up to ~6 later completions buffer behind its hole (well under the
      // 16 cap) and the hole frequently straddles a ring-boundary crossing.
      run.proc.script(id, true, id % 11 == 0 ? 8000 : 100);
      expect_delivered.push_back(id);
    }
  }

  for (std::uint64_t id = 0; id < kPackets; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  EXPECT_EQ(run.pipeline.reorder_window(), 128u);
  run.sim.run_all();

  EXPECT_EQ(run.delivered, expect_delivered);  // ingress order, nothing skipped
  std::sort(run.dropped.begin(), run.dropped.end());  // drop callbacks fire at
  EXPECT_EQ(run.dropped, expect_dropped);             // completion, not release
  const auto& st = run.pipeline.stats();
  EXPECT_EQ(st.submitted, kPackets);
  EXPECT_EQ(st.forwarded_to_wire, expect_delivered.size());
  EXPECT_EQ(st.scheduler_drops, expect_dropped.size());
  EXPECT_EQ(st.vf_ring_drops, 0u);
  EXPECT_EQ(st.tx_ring_drops, 0u);
  EXPECT_EQ(st.reorder_flushes, 0u);
  EXPECT_EQ(st.reorder_timeout_flushes, 0u);
  EXPECT_EQ(st.watchdog_requeues, 0u);
  EXPECT_GE(st.reorder_occupancy_peak, 2u);  // stragglers really buffered packets
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
  EXPECT_EQ(run.pipeline.reorder_occupancy(), 0u);
}

// A head-of-line hole older than the reorder timeout is flushed past instead
// of wedging the window until the capacity cap: survivors release in order
// and the straggler's eventual completion is dropped, not reordered. The
// timeout is twice the watchdog budget, so the straggler sits in a 4-packet
// burst: the watchdog allows that burst four budgets, and the timeout
// fires first.
TEST(NpReorder, HoleTimeoutFlushReleasesSurvivors) {
  NpConfig cfg = three_worker_config();
  cfg.batch_size = 4;
  Rig run(cfg);
  // 0..2 take one worker each. The first to finish (0) pulls the burst
  // 3..6, the next (1) pulls 7 and 8, which finish behind the hole at 3.
  run.proc.script(0, true, 100);
  run.proc.script(1, true, 200);
  run.proc.script(2, true, 300);
  run.proc.script(3, true, 1000000);  // ~833 us: past the timeout
  const sim::SimDuration straggler = cfg.cycles_to_ns(1000000);
  ASSERT_GT(straggler, run.pipeline.reorder_timeout());
  ASSERT_LT(straggler + sim::microseconds(20), 4 * run.pipeline.watchdog_budget());

  for (std::uint64_t id = 0; id <= 8; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{0, 1, 2, 7, 8}));
  std::sort(run.dropped.begin(), run.dropped.end());
  EXPECT_EQ(run.dropped, (std::vector<std::uint64_t>{3, 4, 5, 6}));
  const auto& st = run.pipeline.stats();
  EXPECT_GE(st.reorder_timeout_flushes, 1u);
  EXPECT_EQ(st.reorder_timeout_drops, 4u);
  EXPECT_EQ(st.reorder_flushes, 0u);  // timeout fired well before the cap
  EXPECT_EQ(st.watchdog_requeues, 0u);
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
  EXPECT_EQ(run.pipeline.reorder_occupancy(), 0u);
}

// A worker stuck past the watchdog budget has its packet salvaged and
// requeued; the retry skips the processor (the verdict stands), so the packet
// still reaches the wire — in ingress order, ahead of everything buffered
// behind its hole.
TEST(NpReorder, WatchdogRequeueDeliversInOrder) {
  NpConfig cfg = three_worker_config();
  Rig run(cfg);
  run.proc.script(0, true, 1000000);  // ~833 us busy
  ASSERT_GT(cfg.cycles_to_ns(1000000), run.pipeline.watchdog_budget());
  for (std::uint64_t id = 1; id <= 4; ++id) run.proc.script(id, true, 100);

  for (std::uint64_t id = 0; id <= 4; ++id)
    EXPECT_TRUE(run.pipeline.submit(make_packet(id)));
  run.sim.run_all();

  EXPECT_EQ(run.delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(run.dropped.empty());
  const auto& st = run.pipeline.stats();
  EXPECT_GE(st.watchdog_requeues, 1u);
  EXPECT_EQ(st.watchdog_drops, 0u);
  EXPECT_EQ(st.forwarded_to_wire, 5u);
  EXPECT_EQ(run.pipeline.in_flight(), 0u);
}

}  // namespace
}  // namespace flowvalve::np
