// Tier-1 coverage for src/check: scenario generation is deterministic, the
// standard seed battery runs clean under every invariant checker, the
// differential oracle agrees with the reference HTB, and deliberately
// injected pipeline bugs ARE caught (a checker that never fires is
// worthless).
#include <gtest/gtest.h>

#include "check/checker.h"
#include "check/fuzzer.h"
#include "check/runner.h"
#include "fault/fault.h"
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

}  // namespace
}  // namespace flowvalve::check
