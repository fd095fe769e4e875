// Differential oracle for the batched NP data path: the burst pipeline at
// NpConfig::batch_size N must be behaviourally equivalent to the same
// pipeline at batch_size 1, where every worker burst and every drain batch
// is one packet long — the per-packet processing the paper's
// run-to-completion micro-engines perform. There is one implementation;
// the oracle checks that burst size alone does not change what it does.
//
// Four tiers of evidence, strongest first:
//   1. EXACT equivalence on a hand-built always-green scenario: leaf rates
//      far above the offered clumped load and deep rings mean no drop path
//      and no token-timing divergence can fire, so every externally visible
//      outcome — per-class delivered packets/bytes, every drop counter,
//      scheduler verdict counters, per-leaf tree counters, and the global
//      delivery ORDER — must be bit-identical across batch {1,2,31,32,33}.
//      (Under backlog, exact equality is impossible in principle: token
//      refills happen at packet-processing instants, which batching
//      legitimately moves. Counters that encode such timing — update runs,
//      lock failures, micro-engine cycles, event counts — are excluded.)
//   2. Zero invariant violations across the fuzz corpus at batch 1 and 32,
//      including chaos (fault schedules) and live-reconfig runs: every
//      checker (conservation, ordering, worker exclusivity, timestamps,
//      epoch confinement) holds at both ends of the burst-size range.
//   3. Tolerance-bounded delivered-throughput agreement between batch 1
//      and 32 on the corpus (closed-loop senders react to latency shifts,
//      so only approximate agreement is expected).
//   4. Exact determinism at a fixed batch size: repeat runs and heap-vs-
//      wheel event-queue backends reproduce identical reports.
//
// Plus the burst-boundary edge cases: short trailing bursts, bursts
// straddling the reorder-ring wrap, watchdog salvage of a whole in-flight
// burst, burst-granular tail drop, reconfig cutovers landing only at burst
// boundaries, and the LatencyRecorder anti-smearing regression (per-packet
// dispatch instants inside a burst, not the burst completion time).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/runner.h"
#include "core/flowvalve.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/latency_recorder.h"
#include "sim/simulator.h"

namespace flowvalve::np {
namespace {

constexpr std::uint32_t kFrameBytes = 1518;
constexpr unsigned kNumClasses = 4;
constexpr std::size_t kNumDropReasons = 7;

/// Flat policy with four equal leaves; on a 40G link each leaf's committed
/// rate (10G) dwarfs the offered clumped load, so every verdict is green.
std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps() << "gbit\n";
  for (unsigned i = 0; i < kNumClasses; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < kNumClasses; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

/// Passive tap collecting the externally visible outcome of a run: what
/// was delivered (per class and in what global order) and what was dropped
/// (by reason). These are exactly the quantities the differential oracle
/// compares.
struct DiffObserver final : public PipelineObserver {
  std::array<std::uint64_t, kNumDropReasons> drops_by_reason{};
  std::map<std::uint16_t, std::uint64_t> delivered_packets;
  std::map<std::uint16_t, std::uint64_t> delivered_bytes;
  std::vector<std::uint64_t> delivery_order;  // packet ids, wire order

  void on_drop(const net::Packet&, DropReason reason, sim::SimTime) override {
    ++drops_by_reason[static_cast<std::size_t>(reason)];
  }
  void on_delivered(const net::Packet& pkt, sim::SimTime) override {
    ++delivered_packets[pkt.vf_port];
    delivered_bytes[pkt.vf_port] += pkt.wire_bytes;
    delivery_order.push_back(pkt.id);
  }
};

struct GreenRun {
  NicPipeline::Stats nic;
  core::SchedulingFunction::Stats sched;
  DiffObserver obs;
  std::uint64_t submitted = 0;
  // Per-leaf tree counters, in class order.
  std::vector<std::uint64_t> leaf_fwd_packets, leaf_fwd_bytes;
  std::vector<std::uint64_t> leaf_drop_packets, leaf_drop_bytes;
};

/// The always-green clumped workload: every 200 µs each class submits a
/// clump of 8 frames (two flows × four back-to-back packets), ~0.5 Gbps
/// per class against a 10 Gbps leaf — token buckets never drain, nothing
/// borrows, nothing drops. Clumps keep the VF rings deep enough that
/// workers pull genuine multi-packet, multi-flow bursts with same-flow
/// repeats for the EMC-amortization path. The spacing is wide enough that
/// every clump fully drains (a 24-packet burst ≈ 60 µs on one worker)
/// before the next arrives: a clump straddling a still-busy worker is a
/// legitimate divergence point (worker availability differs between batch
/// sizes, shifting the round-robin pull order), so it belongs to the
/// tolerance tier below, not the exact tier.
GreenRun run_green_scenario(unsigned batch_size) {
  NpConfig cfg = agilio_cx_40g();
  cfg.num_workers = 8;
  cfg.num_vfs = kNumClasses;
  cfg.batch_size = batch_size;

  sim::Simulator sim;
  core::FlowValveEngine engine(engine_options_for(cfg));
  const std::string err = engine.configure(flat_policy(cfg.wire_rate));
  EXPECT_TRUE(err.empty()) << err;

  FlowValveProcessor processor(engine);
  NicPipeline pipeline(sim, cfg, processor);

  GreenRun run;
  pipeline.set_observer(&run.obs);

  constexpr int kTicks = 100;
  constexpr unsigned kFlowsPerClass = 2;
  constexpr unsigned kPacketsPerFlow = 4;
  std::uint64_t next_id = 1;
  for (int tick = 0; tick < kTicks; ++tick) {
    sim.schedule_at(sim::microseconds(200) * tick, [&pipeline, &run, &next_id] {
      for (std::uint16_t vf = 0; vf < kNumClasses; ++vf) {
        for (unsigned f = 0; f < kFlowsPerClass; ++f) {
          for (unsigned k = 0; k < kPacketsPerFlow; ++k) {
            net::Packet p;
            p.id = next_id++;
            p.vf_port = vf;
            p.flow_id = vf * kFlowsPerClass + f;
            p.wire_bytes = kFrameBytes;
            p.tuple.src_ip = 0x0a000001 + vf;
            p.tuple.dst_ip = 0x0a000100 + f;
            p.tuple.src_port = static_cast<std::uint16_t>(1000 + f);
            p.tuple.dst_port = 80;
            ++run.submitted;
            pipeline.submit(std::move(p));
          }
        }
      }
    });
  }
  sim.run_all();

  run.nic = pipeline.stats();
  run.sched = engine.scheduler().stats();
  const core::SchedulingTree& tree = engine.tree();
  for (unsigned i = 0; i < kNumClasses; ++i) {
    const core::ClassId id = tree.find("C" + std::to_string(i));
    EXPECT_NE(id, core::kNoClass);
    const core::SchedClass& leaf = tree.at(id);
    run.leaf_fwd_packets.push_back(leaf.fwd_packets);
    run.leaf_fwd_bytes.push_back(leaf.fwd_bytes);
    run.leaf_drop_packets.push_back(leaf.drop_packets);
    run.leaf_drop_bytes.push_back(leaf.drop_bytes);
  }
  pipeline.set_observer(nullptr);
  return run;
}

/// Everything timing-independent in an always-green run. Deliberately
/// excludes event counts, cycle totals, update/lock-failure counters and
/// occupancy peaks — those legitimately depend on how work is grouped
/// into events, which is the one thing batching is allowed to change.
std::string green_fingerprint(const GreenRun& r) {
  std::ostringstream s;
  s << "submitted=" << r.nic.submitted << " processed=" << r.nic.processed
    << " wire=" << r.nic.forwarded_to_wire
    << " wire_bytes=" << r.nic.wire_bytes
    << " vf_drops=" << r.nic.vf_ring_drops
    << " sched_drops=" << r.nic.scheduler_drops
    << " tx_drops=" << r.nic.tx_ring_drops
    << " reorder_flush_drops=" << r.nic.reorder_flush_drops
    << " timeout_drops=" << r.nic.reorder_timeout_drops
    << " watchdog_drops=" << r.nic.watchdog_drops
    << " admission_drops=" << r.nic.admission_drops
    << " sched_fwd=" << r.sched.forwarded << " sched_drop=" << r.sched.dropped
    << " sched_borrow=" << r.sched.borrowed;
  for (unsigned i = 0; i < kNumClasses; ++i)
    s << " leaf" << i << "=" << r.leaf_fwd_packets[i] << "/"
      << r.leaf_fwd_bytes[i] << "/" << r.leaf_drop_packets[i] << "/"
      << r.leaf_drop_bytes[i];
  for (const auto& [vf, n] : r.obs.delivered_packets)
    s << " vf" << vf << "=" << n << "/" << r.obs.delivered_bytes.at(vf);
  for (std::size_t i = 0; i < kNumDropReasons; ++i)
    s << " dr" << i << "=" << r.obs.drops_by_reason[i];
  return s.str();
}

TEST(NpBatchDiff, AlwaysGreenScenarioIsExactAcrossBatchSizes) {
  const GreenRun ref = run_green_scenario(1);
  const std::string ref_fp = green_fingerprint(ref);

  // Sanity on the reference itself: the scenario really is lossless — the
  // exact-equality claim is only meaningful if no drop path fired.
  EXPECT_EQ(ref.nic.submitted, ref.submitted);
  EXPECT_EQ(ref.obs.delivery_order.size(), ref.submitted);
  EXPECT_EQ(ref.nic.scheduler_drops, 0u);
  EXPECT_EQ(ref.nic.tx_ring_drops, 0u);
  EXPECT_EQ(ref.nic.vf_ring_drops, 0u);
  EXPECT_EQ(ref.sched.borrowed, 0u);

  // One packet either side of the default 32 exercises exact-fill and
  // short-trailing-burst boundaries; 2 exercises minimal grouping.
  for (unsigned batch : {2u, 31u, 32u, 33u}) {
    const GreenRun got = run_green_scenario(batch);
    EXPECT_EQ(green_fingerprint(got), ref_fp) << "batch " << batch;
    // The wire order itself must match: reorder enforcement keys on
    // ingress sequence, and the burst puller preserves the legacy
    // round-robin pull order packet for packet.
    if (got.obs.delivery_order != ref.obs.delivery_order) {
      std::size_t i = 0;
      while (i < got.obs.delivery_order.size() &&
             i < ref.obs.delivery_order.size() &&
             got.obs.delivery_order[i] == ref.obs.delivery_order[i])
        ++i;
      ADD_FAILURE() << "delivery order diverged at batch " << batch
                    << ", index " << i << ": ref "
                    << (i < ref.obs.delivery_order.size()
                            ? ref.obs.delivery_order[i] : 0)
                    << " vs got "
                    << (i < got.obs.delivery_order.size()
                            ? got.obs.delivery_order[i] : 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzz-corpus tiers: invariants, throughput tolerance, determinism.
// ---------------------------------------------------------------------------

std::string first_violation(const check::CheckReport& r) {
  return r.violations.empty() ? std::string("(none stored)")
                              : r.violations.front().to_string();
}

TEST(NpBatchDiff, FuzzCorpusHoldsInvariantsAtBatch1And32) {
  for (std::uint64_t seed : {1ull, 2ull, 7ull, 11ull, 23ull, 42ull}) {
    for (unsigned batch : {1u, 32u}) {
      check::RunOptions opts;
      opts.batch_size = batch;
      const check::CheckReport r = check::run_seed(seed, opts);
      EXPECT_EQ(r.violation_total, 0u)
          << "seed " << seed << " batch " << batch << ": " << r.summary()
          << "\n" << first_violation(r);
    }
  }
}

TEST(NpBatchDiff, ChaosAndReconfigCorpusHoldsInvariantsAtBatch1And32) {
  for (std::uint64_t seed : {3ull, 5ull}) {
    for (unsigned batch : {1u, 32u}) {
      check::RunOptions chaos;
      chaos.chaos = true;
      chaos.batch_size = batch;
      const check::CheckReport c = check::run_seed(seed, chaos);
      EXPECT_EQ(c.violation_total, 0u)
          << "chaos seed " << seed << " batch " << batch << ": " << c.summary()
          << "\n" << first_violation(c);

      check::RunOptions reconfig;
      reconfig.reconfig_updates = 3;
      reconfig.batch_size = batch;
      const check::CheckReport rc = check::run_seed(seed, reconfig);
      EXPECT_EQ(rc.violation_total, 0u)
          << "reconfig seed " << seed << " batch " << batch << ": "
          << rc.summary() << "\n" << first_violation(rc);
    }
  }
}

TEST(NpBatchDiff, DeliveredThroughputAgreesWithinTolerance) {
  // Batching moves per-packet latency (a packet can wait for its burst
  // peers), and closed-loop senders react to that, so delivered counts are
  // compared with slack rather than exactly. 30% is far tighter than any
  // real batching bug (lost bursts, double commits) and loose enough for
  // TCP's feedback loop.
  for (std::uint64_t seed : {2ull, 7ull, 42ull}) {
    check::RunOptions one, many;
    one.batch_size = 1;
    many.batch_size = 32;
    const check::CheckReport a = check::run_seed(seed, one);
    const check::CheckReport b = check::run_seed(seed, many);
    ASSERT_GT(a.delivered, 0u) << "seed " << seed;
    ASSERT_GT(b.delivered, 0u) << "seed " << seed;
    const double hi = static_cast<double>(std::max(a.delivered, b.delivered));
    const double lo = static_cast<double>(std::min(a.delivered, b.delivered));
    EXPECT_LE((hi - lo) / hi, 0.30)
        << "seed " << seed << ": batch1 delivered " << a.delivered
        << " vs batch32 " << b.delivered;
  }
}

// Full-report fingerprint for the determinism tier — here nothing at all
// may differ, so use the canonical check::report_fingerprint (every
// CheckReport field, hexfloat doubles).
using check::report_fingerprint;

TEST(NpBatchDiff, FixedBatchRunsAreDeterministic) {
  for (std::uint64_t seed : {2ull, 17ull}) {
    check::RunOptions opts;
    opts.batch_size = 32;
    const check::CheckReport first = check::run_seed(seed, opts);
    const check::CheckReport second = check::run_seed(seed, opts);
    EXPECT_EQ(report_fingerprint(first), report_fingerprint(second))
        << "seed " << seed;

    check::RunOptions heap = opts;
    heap.scheduler = sim::SchedulerKind::kHeap;
    const check::CheckReport h = check::run_seed(seed, heap);
    EXPECT_EQ(report_fingerprint(first), report_fingerprint(h))
        << "heap/wheel divergence at batch 32, seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Burst-boundary edge cases.
// ---------------------------------------------------------------------------

net::Packet packet_on(std::uint16_t vf, std::uint64_t id) {
  net::Packet p;
  p.id = id;
  p.vf_port = vf;
  p.flow_id = vf;
  p.wire_bytes = kFrameBytes;
  return p;
}

TEST(NpBatchEdge, ShortTrailingBurstDrainsCompletely) {
  // 5 waiting packets against batch_size 32 on a single worker: the burst
  // puller must hand over a partial burst immediately, not wait to fill.
  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 1;
  cfg.batch_size = 32;
  NullProcessor proc;
  NicPipeline pipe(sim, cfg, proc);
  int delivered = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  for (std::uint64_t i = 0; i < 5; ++i) pipe.submit(packet_on(0, i));
  sim.run_all();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(pipe.stats().processed, 5u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

/// Per-packet service jitter large enough that two workers' bursts finish
/// out of order, forcing real reorder-buffer traffic.
class JitterProcessor final : public PacketProcessor {
 public:
  Outcome process(net::Packet& pkt, sim::SimTime) override {
    return {true, static_cast<std::uint32_t>(
                      500 + (pkt.id * 2654435761u >> 7) % 30000)};
  }
};

TEST(NpBatchEdge, BurstsStraddlingReorderRingWrapStayOrdered) {
  // Reorder ring sized for capacity 16 + burst slack rounds to 512 slots;
  // 2000 packets wrap the ring ~4 times mid-burst. Delivery must remain
  // strictly in ingress order throughout, and every packet must be
  // accounted delivered or dropped.
  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 2;
  cfg.batch_size = 32;
  cfg.enforce_reorder = true;
  cfg.reorder_capacity = 16;
  cfg.vf_ring_capacity = 512;
  JitterProcessor proc;
  NicPipeline pipe(sim, cfg, proc);
  EXPECT_EQ(pipe.reorder_window(), 512u);

  std::vector<std::uint64_t> order;
  std::uint64_t dropped = 0;
  pipe.set_on_delivered([&](const net::Packet& p) { order.push_back(p.id); });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });

  constexpr std::uint64_t kTotal = 2000;
  std::uint64_t next = 0;
  // Feed in 250-packet waves so the VF ring never overflows but the
  // workers always have full bursts to pull.
  for (int wave = 0; wave < 8; ++wave) {
    sim.schedule_at(sim::milliseconds(2) * wave, [&pipe, &next] {
      for (int i = 0; i < 250; ++i) pipe.submit(packet_on(0, next++));
    });
  }
  sim.run_all();

  EXPECT_EQ(order.size() + dropped, kTotal);
  EXPECT_GT(order.size(), kTotal / 2);
  for (std::size_t i = 1; i < order.size(); ++i)
    ASSERT_LT(order[i - 1], order[i]) << "out-of-order delivery at index " << i;
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST(NpBatchEdge, WatchdogSalvagesWholeInFlightBurst) {
  // A single slow worker picks up one packet, then a full 7-packet burst;
  // crashing it mid-burst must requeue every packet of that burst (watchdog
  // salvage is burst-granular), and the repaired worker must then run the
  // all-retry burst to completion with nothing lost.
  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 1;
  cfg.batch_size = 32;
  // ~100 µs per packet: the fixed per-packet cycles at a slowed clock.
  cfg.freq_ghz = (kBaseRxCycles + kBaseTxCycles) / 100'000.0;
  NullProcessor proc;
  NicPipeline pipe(sim, cfg, proc);
  int delivered = 0, dropped = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });
  for (std::uint64_t i = 0; i < 8; ++i) pipe.submit(packet_on(0, i));
  // First submit dispatched a 1-packet burst at t=0; the remaining 7 form
  // the second burst. Crash lands inside that second burst's interval
  // (per-packet service ≈ 100 µs ⇒ burst spans [100 µs, 800 µs]); the
  // watchdog allows that burst 7 budgets, and the repair comes after.
  sim.schedule_at(sim::microseconds(250), [&] { pipe.fault_crash_worker(0); });
  sim.schedule_at(8 * pipe.watchdog_budget(), [&] { pipe.repair_worker(0); });
  sim.run_all();
  EXPECT_EQ(pipe.stats().watchdog_requeues, 7u);
  EXPECT_EQ(pipe.stats().workers_repaired, 1u);
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.hung_workers(), 0u);
}

TEST(NpBatchEdge, TailDropAtBurstCompletionIsAccountedPerPacket) {
  // Tiny Tx FIFO, crawling wire: when a 32-packet burst commits at one
  // completion instant, the ring admits what fits and tail-drops the rest
  // — all at that same instant, each drop individually accounted.
  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 1;
  cfg.batch_size = 32;
  cfg.tx_ring_capacity = 4;
  cfg.wire_rate = sim::Rate::gigabits_per_sec(0.05);

  struct TxDropTap final : public PipelineObserver {
    std::vector<sim::SimTime> tx_drop_times;
    void on_drop(const net::Packet&, DropReason reason,
                 sim::SimTime now) override {
      if (reason == DropReason::kTxRingFull) tx_drop_times.push_back(now);
    }
  } tap;

  NullProcessor proc;
  NicPipeline pipe(sim, cfg, proc);
  pipe.set_observer(&tap);
  int delivered = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  for (std::uint64_t i = 0; i < 33; ++i) pipe.submit(packet_on(0, i));
  sim.run_all();
  pipe.set_observer(nullptr);

  // Burst #2 (32 packets) overflowed the 4-slot ring in one commit sweep.
  ASSERT_FALSE(tap.tx_drop_times.empty());
  for (sim::SimTime t : tap.tx_drop_times)
    EXPECT_EQ(t, tap.tx_drop_times.front())
        << "burst tail drop smeared across instants";
  EXPECT_EQ(pipe.stats().tx_ring_drops, tap.tx_drop_times.size());
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + tap.tx_drop_times.size(),
            33u);
}

TEST(NpBatchEdge, ReconfigCutoversLandOnlyAtBurstBoundaries) {
  // A hook that advances the epoch on EVERY boundary call is the harshest
  // possible cutover schedule — a mid-burst cutover would split one
  // burst's packets across two epochs. Stamps must instead show each
  // boundary's fresh-packet count carrying exactly one epoch.
  struct EpochHook final : public ControlHook {
    std::uint32_t next_epoch = 0;
    std::vector<unsigned> boundary_packets;  // fresh count per call
    Cutover on_packet_boundary(unsigned, sim::SimTime,
                               unsigned packets) override {
      boundary_packets.push_back(packets);
      return {++next_epoch, 0};
    }
  } hook;

  struct EpochTap final : public PipelineObserver {
    std::map<std::uint32_t, unsigned> dispatches_per_epoch;
    void on_dispatch(const net::Packet& pkt, unsigned, std::uint64_t,
                     sim::SimTime, sim::SimDuration) override {
      ++dispatches_per_epoch[pkt.policy_epoch];
    }
  } tap;

  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 2;
  cfg.num_workers = 2;
  cfg.batch_size = 8;
  NullProcessor proc;
  NicPipeline pipe(sim, cfg, proc);
  pipe.set_control_hook(&hook);
  pipe.set_observer(&tap);

  std::uint64_t next = 0;
  for (int wave = 0; wave < 6; ++wave) {
    sim.schedule_at(sim::microseconds(40) * wave, [&pipe, &next] {
      for (int i = 0; i < 11; ++i)
        pipe.submit(packet_on(static_cast<std::uint16_t>(i % 2), next++));
    });
  }
  sim.run_all();
  pipe.set_observer(nullptr);
  pipe.set_control_hook(nullptr);

  // Every boundary saw at least one fresh packet (all-retry bursts skip
  // the hook), and each epoch's dispatch count equals the fresh count the
  // hook was told at that boundary — i.e. no burst mixed epochs and no
  // packet missed its boundary stamp.
  ASSERT_EQ(tap.dispatches_per_epoch.size(), hook.boundary_packets.size());
  std::uint32_t epoch = 1;
  unsigned total = 0;
  for (unsigned fresh : hook.boundary_packets) {
    EXPECT_GE(fresh, 1u);
    ASSERT_TRUE(tap.dispatches_per_epoch.count(epoch)) << "epoch " << epoch;
    EXPECT_EQ(tap.dispatches_per_epoch[epoch], fresh)
        << "epoch " << epoch << " split across bursts";
    total += fresh;
    ++epoch;
  }
  EXPECT_EQ(total, 66u);
}

TEST(NpBatchEdge, LatencyRecorderSeesPerPacketServiceNotBurstTotal) {
  // Satellite regression: with a constant-cost processor every packet's
  // service segment must equal the per-packet busy slice even at batch 32
  // — if dispatch instants smeared to the burst completion event, service
  // would read as the whole burst interval (~32x) and vf_wait would go
  // negative-clamped-to-zero for most of the burst.
  sim::Simulator sim;
  NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 1;
  cfg.batch_size = 32;
  NullProcessor proc;
  NicPipeline pipe(sim, cfg, proc);

  struct LatencyTap final : public PipelineObserver {
    obs::LatencyRecorder rec;
    std::size_t pending_peak = 0;
    void on_dispatch(const net::Packet& pkt, unsigned, std::uint64_t,
                     sim::SimTime now, sim::SimDuration busy) override {
      rec.on_dispatch(pkt, now, busy);
      pending_peak = std::max(pending_peak, rec.pending());
    }
    void on_drop(const net::Packet& pkt, DropReason, sim::SimTime) override {
      rec.on_drop(pkt);
    }
    void on_delivered(const net::Packet& pkt, sim::SimTime) override {
      rec.on_delivered(pkt);
    }
  } tap;
  pipe.set_observer(&tap);

  for (std::uint64_t i = 0; i < 64; ++i) pipe.submit(packet_on(0, i));
  sim.run_all();
  pipe.set_observer(nullptr);

  const std::uint64_t per_packet =
      static_cast<std::uint64_t>(cfg.cycles_to_ns(
          kBaseRxCycles + kBaseTxCycles));
  const auto& service = tap.rec.segment(obs::Segment::kService);
  ASSERT_EQ(service.count(), 64u);
  EXPECT_EQ(service.min(), per_packet);
  EXPECT_EQ(service.max(), per_packet) << "service smeared to burst total";
  // Within a burst, later packets' logical dispatch instants stagger
  // forward, so their vf_wait includes the queueing behind burst peers and
  // strictly grows across the burst; the recorder's own timestamps must
  // never produce a negative segment (clamped or otherwise).
  EXPECT_EQ(tap.rec.segment(obs::Segment::kVfWait).count(), 64u);
  EXPECT_GE(tap.rec.segment(obs::Segment::kVfWait).max(),
            31 * per_packet);
  // No leak: everything dispatched was eventually delivered and retired.
  EXPECT_EQ(tap.rec.recorded(), 64u);
  EXPECT_EQ(tap.rec.pending(), 0u);
  // A full burst's entries are pending together at its dispatch boundary.
  EXPECT_GE(tap.pending_peak, 32u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

}  // namespace
}  // namespace flowvalve::np
