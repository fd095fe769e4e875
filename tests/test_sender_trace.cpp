// Packet-level pins for the six paced senders (CbrFlow, PoissonFlow,
// OnOffFlow, TcpAimdFlow, LatencyProbe, SaturationLoad): every packet each
// one submits across a run with a stop and a restart, plus the simulator's
// event count, folded into one digest per run. A refactor of the send loop
// must leave every digest as it is; a deliberate change to what a sender
// emits must re-record them.
#include <gtest/gtest.h>

#include <memory>

#include "host/probes.h"
#include "sim/fnv.h"
#include "sim/simulator.h"
#include "traffic/generators.h"
#include "traffic/tcp.h"

namespace flowvalve {
namespace {

using sim::Rate;

/// Folds every submitted packet into a digest, drops every `drop_every`-th
/// one (0: none) and delivers the rest 5 µs later.
class TraceDevice final : public net::EgressDevice {
 public:
  TraceDevice(sim::Simulator& sim, sim::Fnv1a& digest, unsigned drop_every)
      : sim_(sim), digest_(digest), drop_every_(drop_every) {}

  bool submit(net::Packet pkt) override {
    digest_.mix(pkt.id);
    digest_.mix(pkt.flow_id);
    digest_.mix(static_cast<std::uint64_t>(pkt.created_at));
    digest_.mix(pkt.seq_in_flow);
    digest_.mix(pkt.vf_port);
    digest_.mix(pkt.wire_bytes);
    digest_.mix((static_cast<std::uint64_t>(pkt.tuple.src_ip) << 32) | pkt.tuple.dst_ip);
    digest_.mix((static_cast<std::uint64_t>(pkt.tuple.src_port) << 24) |
                (static_cast<std::uint64_t>(pkt.tuple.dst_port) << 8) |
                static_cast<std::uint64_t>(pkt.tuple.proto));
    if (drop_every_ != 0 && ++count_ % drop_every_ == 0) {
      notify_drop(pkt);
      return false;
    }
    sim_.schedule_after(sim::microseconds(5), [this, pkt]() mutable {
      pkt.wire_tx_done = sim_.now();
      pkt.delivered_at = sim_.now();
      deliver(pkt);
    });
    return true;
  }

 private:
  sim::Simulator& sim_;
  sim::Fnv1a& digest_;
  unsigned drop_every_;
  std::uint64_t count_ = 0;
};

traffic::FlowSpec trace_spec(traffic::IdAllocator& ids, std::uint32_t bytes) {
  traffic::FlowSpec s;
  s.flow_id = ids.next_flow_id();
  s.app_id = 2;
  s.vf_port = 3;
  s.wire_bytes = bytes;
  s.tuple.src_ip = 0x0a000007;
  s.tuple.dst_ip = 0x0a000002;
  s.tuple.src_port = 40000;
  s.tuple.dst_port = 5201;
  return s;
}

/// Runs the sender `make` builds for 3 ms, stops it for 1 ms, runs it 2 ms
/// more, stops it and drains the deliveries; returns the digest of every
/// submitted packet and the number of events the run executed.
template <class Make>
std::uint64_t trace_digest(Make make, unsigned drop_every = 0) {
  sim::Simulator sim;
  sim::Fnv1a digest;
  TraceDevice dev(sim, digest, drop_every);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(dev);
  auto sender = make(sim, router, ids);
  sender->start();
  sim.run_until(sim::milliseconds(3));
  sender->stop();
  sim.run_until(sim::milliseconds(4));
  sender->start();
  sim.run_until(sim::milliseconds(6));
  sender->stop();
  sim.run_all();
  digest.mix(sim.events_executed());
  return digest.value();
}

std::uint64_t cbr_digest(unsigned clump, double jitter) {
  return trace_digest([&](sim::Simulator& sim, traffic::FlowRouter& router,
                          traffic::IdAllocator& ids) {
    return std::make_unique<traffic::CbrFlow>(sim, router, ids, trace_spec(ids, 1518),
                                              Rate::gigabits_per_sec(2), sim::Rng(11),
                                              jitter, clump);
  });
}

TEST(SenderTrace, CbrFlowAtEveryClumpAndJitter) {
  EXPECT_EQ(cbr_digest(1, 0.0), 0x63ddce6b1e111873ull);
  EXPECT_EQ(cbr_digest(1, 0.05), 0x7a37725f069c4d41ull);
  EXPECT_EQ(cbr_digest(16, 0.0), 0x3a9d8320681fb687ull);
  EXPECT_EQ(cbr_digest(16, 0.05), 0x8340cae852bba46full);
}

TEST(SenderTrace, PoissonFlow) {
  EXPECT_EQ(trace_digest([](sim::Simulator& sim, traffic::FlowRouter& router,
                            traffic::IdAllocator& ids) {
              return std::make_unique<traffic::PoissonFlow>(
                  sim, router, ids, trace_spec(ids, 1000), Rate::gigabits_per_sec(1),
                  sim::Rng(5));
            }),
            0x2c44f37c53259365ull);
}

TEST(SenderTrace, OnOffFlowWithOffPeriodsShorterThanTheBurstGap) {
  // 1518 B at 1 Gbps is a 12.1 µs burst gap; most 4 µs-mean OFF periods end
  // before the pending send would fire.
  EXPECT_EQ(trace_digest([](sim::Simulator& sim, traffic::FlowRouter& router,
                            traffic::IdAllocator& ids) {
              return std::make_unique<traffic::OnOffFlow>(
                  sim, router, ids, trace_spec(ids, 1518), Rate::gigabits_per_sec(1),
                  sim::microseconds(60), sim::microseconds(4), sim::Rng(7));
            }),
            0x404f518f4ee9b571ull);
}

TEST(SenderTrace, TcpAimdFlowBehindALossyDevice) {
  // Every 9th packet dropped and a 200 µs RTT: the rate backs off and
  // climbs again many times within the run.
  EXPECT_EQ(trace_digest(
                [](sim::Simulator& sim, traffic::FlowRouter& router,
                   traffic::IdAllocator& ids) {
                  traffic::TcpAimdConfig cfg;
                  cfg.start_rate = Rate::gigabits_per_sec(1);
                  cfg.min_rate = Rate::megabits_per_sec(100);
                  cfg.max_rate = Rate::gigabits_per_sec(4);
                  cfg.rtt = sim::microseconds(200);
                  cfg.additive_increase = Rate::megabits_per_sec(300);
                  cfg.md_factor = 0.5;
                  return std::make_unique<traffic::TcpAimdFlow>(
                      sim, router, ids, trace_spec(ids, 1518), cfg, sim::Rng(3));
                },
                9),
            0x4f195eb21e3d7d99ull);
}

TEST(SenderTrace, LatencyProbe) {
  EXPECT_EQ(trace_digest([](sim::Simulator& sim, traffic::FlowRouter& router,
                            traffic::IdAllocator& ids) {
              return std::make_unique<host::LatencyProbe>(
                  sim, router, ids, trace_spec(ids, 256), Rate::megabits_per_sec(100),
                  sim::Rng(13));
            }),
            0x79dc26c00b02d09dull);
}

TEST(SenderTrace, SaturationLoad) {
  EXPECT_EQ(trace_digest([](sim::Simulator& sim, traffic::FlowRouter& router,
                            traffic::IdAllocator& ids) {
              host::SaturationLoad::Config cfg;
              cfg.num_flows = 6;
              cfg.wire_bytes = 64;
              cfg.offered = Rate::gigabits_per_sec(1);
              cfg.app_id = 1;
              cfg.vf_base = 2;
              cfg.num_vfs = 3;
              return std::make_unique<host::SaturationLoad>(sim, router, ids, cfg,
                                                            sim::Rng(17));
            }),
            0x3f484b959b359b87ull);
}

}  // namespace
}  // namespace flowvalve
