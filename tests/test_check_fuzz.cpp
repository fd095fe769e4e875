// Tier-1 coverage for src/check: scenario generation is deterministic, the
// standard seed battery runs clean under every invariant checker, the
// differential oracle agrees with the reference HTB, and deliberately
// injected pipeline bugs ARE caught (a checker that never fires is
// worthless).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/fuzzer.h"
#include "check/runner.h"
#include "core/flowvalve.h"
#include "fault/fault.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"

namespace flowvalve::check {
namespace {

// A permanent (never-clearing) injected pipeline bug, armed from t=0 via
// the fault plane — the checker-validation faults.
fault::FaultEvent permanent_bug(fault::FaultKind kind, std::uint64_t every) {
  fault::FaultEvent ev;
  ev.kind = kind;
  ev.at = 0;
  ev.duration = 0;
  ev.period = static_cast<sim::SimDuration>(every);
  return ev;
}

TEST(FuzzScenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
    const FuzzScenario a = generate_scenario(seed);
    const FuzzScenario b = generate_scenario(seed);
    EXPECT_EQ(a.fv_script, b.fv_script);
    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.nic.num_workers, b.nic.num_workers);
    EXPECT_EQ(a.nic.enforce_reorder, b.nic.enforce_reorder);
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      EXPECT_EQ(a.flows[i].kind, b.flows[i].kind);
      EXPECT_EQ(a.flows[i].start, b.flows[i].start);
      EXPECT_DOUBLE_EQ(a.flows[i].rate.bps(), b.flows[i].rate.bps());
    }
    EXPECT_EQ(a.describe(), b.describe());
  }
}

TEST(FuzzScenario, DifferentSeedsDiffer) {
  const FuzzScenario a = generate_scenario(1);
  const FuzzScenario b = generate_scenario(2);
  EXPECT_NE(a.describe(), b.describe());
}

TEST(FuzzScenario, ScenariosAreWellFormed) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FuzzScenario sc = generate_scenario(seed);
    EXPECT_FALSE(sc.leaves.empty());
    EXPECT_FALSE(sc.flows.empty());
    EXPECT_GT(sc.horizon, 0);
    EXPECT_EQ(sc.nic.num_vfs, sc.leaves.size());
    for (const FuzzFlow& f : sc.flows) {
      EXPECT_LT(f.vf, sc.nic.num_vfs);
      EXPECT_LT(f.start, f.stop);
      EXPECT_LE(f.stop, sc.horizon);
      EXPECT_GT(f.rate.bps(), 0.0);
    }
  }
}

TEST(FuzzCheck, StandardSeedsRunClean) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const CheckReport report = run_seed(seed);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                             << (report.violations.empty()
                                     ? std::string()
                                     : report.violations.front().to_string());
    EXPECT_GT(report.nic.submitted, 0u) << report.summary();
    EXPECT_GT(report.nic.forwarded_to_wire, 0u) << report.summary();
  }
}

TEST(FuzzCheck, RunIsDeterministic) {
  const CheckReport a = run_seed(5);
  const CheckReport b = run_seed(5);
  EXPECT_EQ(a.nic.submitted, b.nic.submitted);
  EXPECT_EQ(a.nic.forwarded_to_wire, b.nic.forwarded_to_wire);
  EXPECT_EQ(a.nic.wire_bytes, b.nic.wire_bytes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(FuzzCheck, DifferentialOracleAgreesWithHtb) {
  RunOptions opts;
  opts.differential = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CheckReport report = run_seed(seed, opts);
    EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                             << (report.violations.empty()
                                     ? std::string()
                                     : report.violations.front().to_string());
    ASSERT_FALSE(report.fv_shares.empty());
    EXPECT_LT(report.worst_share_delta, kDifferentialTolerance);
    // And both sides should sit near the closed-form weighted-fair shares.
    for (std::size_t i = 0; i < report.fv_shares.size(); ++i) {
      EXPECT_NEAR(report.fv_shares[i], report.expected_shares[i], 0.1);
      EXPECT_NEAR(report.ref_shares[i], report.expected_shares[i], 0.1);
    }
  }
}

// A pipeline bug that silently leaks packets (worker completes, packet never
// committed, no drop accounted) must be caught — conservation sees the
// missing packets at drain, ordering sees the stalled reorder window.
TEST(FuzzCheck, InjectedLeakIsCaught) {
  RunOptions opts;
  opts.faults.push_back(permanent_bug(fault::FaultKind::kLeakCommit, 97));
  const CheckReport report = run_seed(1, opts);
  ASSERT_FALSE(report.ok());
  bool conservation = false;
  for (const Violation& v : report.violations)
    if (v.checker == "conservation") conservation = true;
  EXPECT_TRUE(conservation) << "expected a conservation violation, got: "
                            << report.violations.front().to_string();
}

// A pipeline bug that lets packets jump the reorder queue must be caught by
// the per-VF ordering checker.
TEST(FuzzCheck, InjectedReorderBypassIsCaught) {
  RunOptions opts;
  opts.faults.push_back(permanent_bug(fault::FaultKind::kBypassReorder, 97));
  const CheckReport report = run_seed(1, opts);
  ASSERT_FALSE(report.ok());
  bool ordering = false;
  for (const Violation& v : report.violations)
    if (v.checker == "ordering") ordering = true;
  EXPECT_TRUE(ordering) << "expected an ordering violation, got: "
                        << report.violations.front().to_string();
}

// Config fuzzing: every generated invalid config must be rejected by
// NpConfig::validate() — and therefore by the NicPipeline constructor —
// before it can wedge or crash the pipeline (num_vfs == 0 used to be a
// modulo-by-zero in submit()).
TEST(FuzzCheck, GeneratedInvalidConfigsAreRejected) {
  sim::Simulator sim;
  np::NullProcessor proc;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const np::NpConfig cfg = generate_invalid_config(seed);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << "seed " << seed;
    EXPECT_THROW(np::NicPipeline(sim, cfg, proc), std::invalid_argument)
        << "seed " << seed;
  }
  // Determinism: the same seed expands to the same rejected config.
  const np::NpConfig a = generate_invalid_config(7);
  const np::NpConfig b = generate_invalid_config(7);
  EXPECT_EQ(a.num_workers, b.num_workers);
  EXPECT_EQ(a.num_vfs, b.num_vfs);
  EXPECT_EQ(a.vf_ring_capacity, b.vf_ring_capacity);
  EXPECT_EQ(a.tx_ring_capacity, b.tx_ring_capacity);
  EXPECT_DOUBLE_EQ(a.wire_rate.bps(), b.wire_rate.bps());
}

TEST(FuzzCheck, FaultFreeRerunOfFaultSeedIsClean) {
  // The failing seed minus the injected fault must be clean — proof the
  // violation came from the fault, not the scenario.
  const CheckReport report = run_seed(1);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// The batched drain and the coalesced delivery queue may report a frame
// late, never early: a wire or delivery hook that fires before the stamp it
// reports is one timestamps violation.
TEST(FuzzCheck, TimestampsFlagFramesReportedEarly) {
  sim::Simulator sim;
  np::NullProcessor proc;
  const np::NpConfig cfg;
  np::NicPipeline pipeline(sim, cfg, proc);
  CheckHarness harness(sim, pipeline, nullptr);
  harness.add_standard_checkers();
  const auto timestamp_violations = [&] {
    std::size_t n = 0;
    for (const Violation& v : harness.sink().violations())
      if (v.checker == "timestamps") ++n;
    return n;
  };

  net::Packet pkt;
  pkt.id = 1;
  pkt.wire_tx_done = sim::microseconds(2);
  pkt.delivered_at = pkt.wire_tx_done + cfg.fixed_pipeline_delay;
  harness.on_wire_tx(pkt, pkt.wire_tx_done);
  harness.on_delivered(pkt, pkt.delivered_at);
  ASSERT_EQ(timestamp_violations(), 0u);

  pkt.id = 2;
  pkt.wire_tx_done = sim::microseconds(4);
  pkt.delivered_at = pkt.wire_tx_done + cfg.fixed_pipeline_delay;
  harness.on_wire_tx(pkt, pkt.wire_tx_done - 1);
  EXPECT_EQ(timestamp_violations(), 1u);
  harness.on_delivered(pkt, pkt.delivered_at - 1);
  EXPECT_EQ(timestamp_violations(), 2u);
}

// ------------------------------------------------------------ hook routing --

// Three checkers that append "<checker>:<hook>" to one log for every hook
// they override: every hook, only on_wire_tx and on_epoch, and no
// per-packet hook (only on_epoch and on_finish, which every checker gets).
using CallLog = std::vector<std::string>;

class EveryHook final : public InvariantChecker {
 public:
  explicit EveryHook(CallLog& log) : log_(log) {}
  std::string_view name() const override { return "every"; }
  void on_submit(const net::Packet&, sim::SimTime) override { note("submit"); }
  void on_dispatch(const net::Packet&, unsigned, std::uint64_t, sim::SimTime,
                   sim::SimDuration) override {
    note("dispatch");
  }
  void on_drop(const net::Packet&, np::DropReason, sim::SimTime) override {
    note("drop");
  }
  void on_wire_tx(const net::Packet&, sim::SimTime) override { note("wire_tx"); }
  void on_delivered(const net::Packet&, sim::SimTime) override {
    note("delivered");
  }
  void on_engine_result(const net::Packet&, const core::FlowValveEngine::Result&,
                        sim::SimTime) override {
    note("engine_result");
  }
  void on_watchdog(const net::Packet&, unsigned, std::uint64_t,
                   sim::SimTime) override {
    note("watchdog");
  }
  void on_epoch(const SystemView&, sim::SimTime) override { note("epoch"); }
  void on_finish(const SystemView&, sim::SimTime) override { note("finish"); }

 private:
  void note(const char* hook) { log_.push_back(std::string("every:") + hook); }
  CallLog& log_;
};

class WireAndEpoch final : public InvariantChecker {
 public:
  explicit WireAndEpoch(CallLog& log) : log_(log) {}
  std::string_view name() const override { return "wire+epoch"; }
  void on_wire_tx(const net::Packet&, sim::SimTime) override {
    log_.push_back("wire+epoch:wire_tx");
  }
  void on_epoch(const SystemView&, sim::SimTime) override {
    log_.push_back("wire+epoch:epoch");
  }

 private:
  CallLog& log_;
};

class NoPacketHook final : public InvariantChecker {
 public:
  explicit NoPacketHook(CallLog& log) : log_(log) {}
  std::string_view name() const override { return "quiet"; }
  void on_epoch(const SystemView&, sim::SimTime) override {
    log_.push_back("quiet:epoch");
  }
  void on_finish(const SystemView&, sim::SimTime) override {
    log_.push_back("quiet:finish");
  }

 private:
  CallLog& log_;
};

// The harness hands each per-packet hook only to the checkers whose type
// overrides it, in registration order, whether the hook fires before or
// after start(); on_epoch and on_finish reach every checker.
TEST(FuzzCheck, HooksReachExactlyTheOverridingCheckersInOrder) {
  sim::Simulator sim;
  np::NullProcessor proc;
  np::NicPipeline pipeline(sim, np::NpConfig{}, proc);
  CheckHarness harness(sim, pipeline, nullptr);
  CallLog log;
  harness.add(std::make_unique<WireAndEpoch>(log));
  harness.add(std::make_unique<NoPacketHook>(log));
  harness.add(std::make_unique<EveryHook>(log));

  const net::Packet pkt;
  const auto fire_each_hook = [&](sim::SimTime now) {
    harness.on_submit(pkt, now);
    harness.on_dispatch(pkt, 0, 0, now, 0);
    harness.on_drop(pkt, np::DropReason::kScheduler, now);
    harness.on_wire_tx(pkt, now);
    harness.on_delivered(pkt, now);
    harness.on_engine_result(pkt, core::FlowValveEngine::Result{}, now);
    harness.on_watchdog(pkt, 0, 0, now);
    return std::exchange(log, {});
  };
  const CallLog per_packet = {"every:submit",        "every:dispatch",
                              "every:drop",          "wire+epoch:wire_tx",
                              "every:wire_tx",       "every:delivered",
                              "every:engine_result", "every:watchdog"};
  EXPECT_EQ(fire_each_hook(0), per_packet);

  harness.start();
  sim.run_until(CheckHarness::kEpoch);
  EXPECT_EQ(std::exchange(log, {}),
            (CallLog{"wire+epoch:epoch", "quiet:epoch", "every:epoch"}));
  EXPECT_EQ(fire_each_hook(CheckHarness::kEpoch), per_packet);

  harness.finish();
  EXPECT_EQ(log, (CallLog{"wire+epoch:epoch", "quiet:epoch", "quiet:finish",
                          "every:epoch", "every:finish"}));
  EXPECT_TRUE(harness.sink().clean());
}

// ---------------------------------------------------------------- ordering --

/// A harness with the standard checkers on a NullProcessor pipeline (reorder
/// on, 8 VFs) whose hooks the test fires by hand; `ordering()` lists the
/// ordering checker's violation texts.
struct OrderingBench {
  sim::Simulator sim;
  np::NullProcessor proc;
  np::NicPipeline pipeline{sim, np::NpConfig{}, proc};
  CheckHarness harness{sim, pipeline, nullptr};
  sim::SimTime now = 0;

  OrderingBench() { harness.add_standard_checkers(); }

  static net::Packet packet(std::uint64_t id, std::uint16_t vf,
                            std::uint32_t flow, std::uint64_t seq) {
    net::Packet pkt;
    pkt.id = id;
    pkt.vf_port = vf;
    pkt.flow_id = flow;
    pkt.seq_in_flow = seq;
    return pkt;
  }
  void submit(const net::Packet& pkt) { harness.on_submit(pkt, ++now); }
  void drop(const net::Packet& pkt) {
    harness.on_drop(pkt, np::DropReason::kTxRingFull, ++now);
  }
  void deliver(const net::Packet& pkt) { harness.on_delivered(pkt, ++now); }

  std::vector<std::string> ordering() const {
    std::vector<std::string> out;
    for (const Violation& v : harness.sink().violations())
      if (v.checker == "ordering") out.push_back(v.detail);
    return out;
  }
};

TEST(OrderingChecker, FlagsAPacketDeliveredAheadOfALiveOne) {
  OrderingBench b;
  const net::Packet first = OrderingBench::packet(1, 3, 1, 0);
  const net::Packet second = OrderingBench::packet(2, 3, 2, 0);
  b.submit(first);
  b.submit(second);
  b.deliver(second);
  EXPECT_EQ(b.ordering(), std::vector<std::string>{
                              "vf 3: packet 2 delivered ahead of live packet 1"});
  // The overtaken packet was consumed with its report: delivering it late
  // raises nothing more.
  b.deliver(first);
  EXPECT_EQ(b.ordering().size(), 1u);
}

TEST(OrderingChecker, SkipsADroppedPacketCleanly) {
  OrderingBench b;
  const net::Packet first = OrderingBench::packet(1, 5, 1, 0);
  const net::Packet second = OrderingBench::packet(2, 5, 1, 1);
  b.submit(first);
  b.submit(second);
  b.drop(first);
  b.deliver(second);
  b.harness.finish();
  EXPECT_TRUE(b.ordering().empty());
}

TEST(OrderingChecker, FlagsAPerFlowSequenceRegression) {
  OrderingBench b;
  // Two VFs, so the per-VF FIFOs stay in order and only the flow's
  // sequence runs backwards.
  const net::Packet later = OrderingBench::packet(1, 0, 9, 5);
  const net::Packet earlier = OrderingBench::packet(2, 1, 9, 3);
  b.submit(later);
  b.submit(earlier);
  b.deliver(later);
  b.deliver(earlier);
  EXPECT_EQ(b.ordering(),
            std::vector<std::string>{"flow 9 delivered seq 3 after seq 5"});
}

TEST(OrderingChecker, TracksPortsAtOrBeyondTheVfCount) {
  OrderingBench b;
  const unsigned vfs = b.pipeline.config().num_vfs;
  const auto at = static_cast<std::uint16_t>(vfs);
  const auto beyond = static_cast<std::uint16_t>(vfs + 200);
  b.submit(OrderingBench::packet(1, at, 1, 0));
  b.submit(OrderingBench::packet(2, beyond, 2, 0));
  b.submit(OrderingBench::packet(3, at, 3, 0));
  b.deliver(OrderingBench::packet(2, beyond, 2, 0));
  b.deliver(OrderingBench::packet(3, at, 3, 0));
  EXPECT_EQ(b.ordering(),
            std::vector<std::string>{"vf " + std::to_string(at) +
                                     ": packet 3 delivered ahead of live packet 1"});
}

TEST(OrderingChecker, FlagsPacketsNeitherDeliveredNorDroppedAtFinish) {
  OrderingBench b;
  b.submit(OrderingBench::packet(1, 2, 1, 0));
  b.submit(OrderingBench::packet(2, 6, 2, 0));
  b.submit(OrderingBench::packet(3, 2, 1, 1));
  b.submit(OrderingBench::packet(4, 6, 2, 1));
  b.drop(OrderingBench::packet(4, 6, 2, 1));
  b.harness.finish();
  std::vector<std::string> got = b.ordering();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{
                     "vf 2: packet 1 neither delivered nor dropped",
                     "vf 2: packet 3 neither delivered nor dropped",
                     "vf 6: packet 2 neither delivered nor dropped"}));
}

// --------------------------------------------------------- tree arithmetic --

TEST(TreeArithmeticChecker, ReportsOverBudgetLevelsInAscendingOrder) {
  // Two prio levels under the root, each summing to twice the 10G budget
  // (every leaf at 10G, well under its default ceil); d's guarantee is
  // prio 2's slack. The prio-0 pair comes first in the tree, an arrangement
  // libstdc++'s unordered_map iterates in reverse, so the test pins the
  // ascending report order on any standard library.
  const std::string script =
      "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
      "fv class add dev nic0 parent 1: classid 1:10 name a prio 0\n"
      "fv class add dev nic0 parent 1: classid 1:11 name b prio 2\n"
      "fv class add dev nic0 parent 1: classid 1:12 name c prio 0\n"
      "fv class add dev nic0 parent 1: classid 1:13 name d prio 2 guarantee 1gbit\n"
      "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n";
  sim::Simulator sim;
  const np::NpConfig nic;
  core::FlowValveEngine engine(np::engine_options_for(nic));
  ASSERT_EQ(engine.configure(script), "");
  np::FlowValveProcessor proc(engine);
  np::NicPipeline pipeline(sim, nic, proc);
  CheckHarness harness(sim, pipeline, &engine);
  harness.add_standard_checkers();
  core::SchedulingTree& tree = engine.tree();
  for (core::ClassId id = 0; id < tree.size(); ++id)
    if (tree.at(id).is_leaf()) tree.at(id).theta = sim::Rate::gigabits_per_sec(10);

  harness.start();
  sim.run_until(CheckHarness::kEpoch + CheckHarness::kEpoch / 2);  // one epoch
  std::vector<std::string> got;
  for (const Violation& v : harness.sink().violations())
    if (v.checker == "tree-arithmetic") got.push_back(v.detail);
  EXPECT_EQ(got, (std::vector<std::string>{
                     "children of 'root' at prio 0 sum to 20.000Gbps > parent "
                     "budget 10.000Gbps + guarantee slack 0.0bps",
                     "children of 'root' at prio 2 sum to 20.000Gbps > parent "
                     "budget 10.000Gbps + guarantee slack 1.000Gbps"}));
}

}  // namespace
}  // namespace flowvalve::check
