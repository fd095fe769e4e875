// Tier-1 coverage for the SchedulerBackend seam: every promoted discipline
// (FlowValve tree, PIFO/STFQ valve, Eiffel calendar) must pass the
// discipline-generic invariant checkers under fuzz and chaos, hold the
// FV-vs-HTB weighted-share oracle, agree with itself across batch sizes,
// and replay deterministically. Engine-level tests pin the rank valves'
// discipline semantics (weighted shares, calendar activity) that the
// scenario battery can't observe directly.
#include <gtest/gtest.h>

#include <string>

#include "check/fuzzer.h"
#include "check/runner.h"
#include "core/flowvalve.h"
#include "core/rank_backends.h"

namespace flowvalve::check {
namespace {

using core::BackendKind;

constexpr BackendKind kAllBackends[] = {
    BackendKind::kFlowValve, BackendKind::kStfq, BackendKind::kEiffel};

RunOptions with_backend(BackendKind kind) {
  RunOptions opts;
  opts.backend = kind;
  return opts;
}

TEST(BackendKindNames, RoundTripAndAliases) {
  for (BackendKind kind : kAllBackends) {
    BackendKind parsed = BackendKind::kFlowValve;
    ASSERT_TRUE(core::parse_backend_kind(core::backend_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  BackendKind k = BackendKind::kFlowValve;
  EXPECT_TRUE(core::parse_backend_kind("flowvalve", k));
  EXPECT_EQ(k, BackendKind::kFlowValve);
  EXPECT_TRUE(core::parse_backend_kind("pifo", k));
  EXPECT_EQ(k, BackendKind::kStfq);
  EXPECT_FALSE(core::parse_backend_kind("fifo", k));
  EXPECT_EQ(k, BackendKind::kStfq);  // untouched on failure
}

TEST(BackendFuzz, SeedsDeriveEveryBackend) {
  // The seed-derived backend draw must actually reach every discipline so
  // the default corpus soaks all of them (weighted toward FlowValve).
  unsigned counts[3] = {0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    ++counts[static_cast<unsigned>(generate_scenario(seed).nic.backend)];
  for (unsigned c : counts) EXPECT_GT(c, 0u);
  EXPECT_GT(counts[0], counts[1]);  // FlowValve keeps the plurality
}

TEST(BackendFuzz, StandardBatteryCleanPerBackend) {
  for (BackendKind kind : kAllBackends) {
    const RunOptions opts = with_backend(kind);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const CheckReport report = run_seed(seed, opts);
      EXPECT_TRUE(report.ok())
          << core::backend_kind_name(kind) << ": " << report.summary();
      EXPECT_EQ(report.backend, kind);
      EXPECT_GT(report.delivered, 0u);
    }
  }
}

TEST(BackendFuzz, DifferentialShareOracleHoldsPerBackend) {
  // Saturated classes must converge to the same weighted-fair shares the
  // reference HTB produces — for the rank valves that is the STFQ
  // guarantee (a saturated class admits at w · link), for FlowValve it is
  // the paper's Eq. 1 machinery. Same oracle, same tolerance.
  for (BackendKind kind : kAllBackends) {
    RunOptions opts = with_backend(kind);
    opts.differential = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CheckReport report = run_seed(seed, opts);
      EXPECT_TRUE(report.ok())
          << core::backend_kind_name(kind) << ": " << report.summary();
      EXPECT_LE(report.worst_share_delta, check::kDifferentialTolerance);
    }
  }
}

TEST(BackendFuzz, ChaosBatteryCleanPerBackend) {
  for (BackendKind kind : kAllBackends) {
    RunOptions opts = with_backend(kind);
    opts.chaos = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const CheckReport report = run_seed(seed, opts);
      EXPECT_TRUE(report.ok())
          << core::backend_kind_name(kind) << ": " << report.summary();
    }
  }
}

TEST(BackendFuzz, BatchOneVsThirtyTwoAgreePerBackend) {
  // The batching path must not change what a discipline admits. FlowValve
  // replays are exact by construction (test_np_batch_diff pins the full
  // fingerprint); the rank valves run the complete discipline per packet,
  // so both batch sizes must stay invariant-clean and land on the same
  // aggregate admission behavior (burst timestamps shift slightly between
  // batch sizes, so the comparison is a tight tolerance, not bit equality).
  for (BackendKind kind : kAllBackends) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RunOptions opts = with_backend(kind);
      opts.batch_size = 1;
      const CheckReport one = run_seed(seed, opts);
      opts.batch_size = 32;
      const CheckReport batched = run_seed(seed, opts);
      EXPECT_TRUE(one.ok())
          << core::backend_kind_name(kind) << ": " << one.summary();
      EXPECT_TRUE(batched.ok())
          << core::backend_kind_name(kind) << ": " << batched.summary();
      EXPECT_EQ(one.nic.submitted, batched.nic.submitted);
      const double a = static_cast<double>(one.delivered);
      const double b = static_cast<double>(batched.delivered);
      ASSERT_GT(a, 0.0);
      EXPECT_NEAR(b / a, 1.0, 0.02)
          << core::backend_kind_name(kind) << " seed " << seed << ": batch1 "
          << one.delivered << " vs batch32 " << batched.delivered;
    }
  }
}

TEST(BackendFuzz, SameSeedReplaysIdenticallyPerBackend) {
  for (BackendKind kind : kAllBackends) {
    const RunOptions opts = with_backend(kind);
    const CheckReport a = run_seed(5, opts);
    const CheckReport b = run_seed(5, opts);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.nic.forwarded_to_wire, b.nic.forwarded_to_wire);
  }
}

TEST(BackendFuzz, RankBackendsDivergeFromFlowValve) {
  // The strategies must actually be different disciplines, not relabeled
  // FlowValve: on a contended scenario the admission pattern differs.
  const CheckReport fv = run_seed(8, with_backend(BackendKind::kFlowValve));
  const CheckReport stfq = run_seed(8, with_backend(BackendKind::kStfq));
  ASSERT_TRUE(fv.ok() && stfq.ok());
  EXPECT_EQ(fv.nic.submitted, stfq.nic.submitted);
  EXPECT_NE(fv.nic.forwarded_to_wire, stfq.nic.forwarded_to_wire);
}

// ---------------------------------------------------------------------------
// Engine-level discipline semantics.

core::FlowValveEngine make_engine(BackendKind kind) {
  core::FlowValveEngine::Options opt;
  opt.backend = kind;
  core::FlowValveEngine engine(opt);
  const std::string err = engine.configure(
      "fv qdisc add dev nic0 root handle 1: htb rate 8gbit\n"
      "fv class add dev nic0 parent 1: classid 1:10 name a weight 3\n"
      "fv class add dev nic0 parent 1: classid 1:11 name b weight 1\n"
      "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
      "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n");
  EXPECT_EQ(err, "");
  EXPECT_EQ(engine.backend_kind(), kind);
  return engine;
}

net::Packet packet_on(std::uint16_t vf, std::uint32_t bytes = 1000) {
  net::Packet p;
  p.vf_port = vf;
  p.wire_bytes = bytes;
  p.tuple.src_ip = 0x0a000001u + vf;
  p.tuple.dst_ip = 0x0a000002;
  p.tuple.src_port = static_cast<std::uint16_t>(1000 + vf);
  p.tuple.dst_port = 80;
  return p;
}

/// Offer both classes far above the link rate; returns forwarded bytes per
/// class over `duration`.
void saturate(core::FlowValveEngine& engine, sim::SimDuration duration,
              std::uint64_t fwd_bytes[2]) {
  fwd_bytes[0] = fwd_bytes[1] = 0;
  const double gap_ns = 400.0;  // 2 × 1000B / 400ns ≈ 40 Gbps offered total
  for (double t = 0; t < static_cast<double>(duration); t += gap_ns) {
    for (std::uint16_t vf = 0; vf < 2; ++vf) {
      net::Packet p = packet_on(vf);
      const auto r = engine.process(p, static_cast<sim::SimTime>(t));
      if (r.verdict == core::Verdict::kForward) fwd_bytes[vf] += p.wire_bytes;
    }
  }
}

TEST(RankValves, StfqConvergesToWeightedShares) {
  auto engine = make_engine(BackendKind::kStfq);
  std::uint64_t fwd[2];
  saturate(engine, sim::milliseconds(50), fwd);
  ASSERT_GT(fwd[1], 0u);
  // weight 3 vs 1 → 3:1 split of the saturated link.
  EXPECT_NEAR(static_cast<double>(fwd[0]) / static_cast<double>(fwd[1]), 3.0,
              0.25);
  const auto& st = engine.backend().stats();
  EXPECT_GT(st.rank_admissions, 0u);
  EXPECT_GT(st.rank_lead_drops, 0u);
  EXPECT_EQ(st.forwarded, st.rank_admissions);
}

TEST(RankValves, EiffelCalendarTracksAdmissionsAndRebases) {
  auto engine = make_engine(BackendKind::kEiffel);
  std::uint64_t fwd[2];
  saturate(engine, sim::milliseconds(50), fwd);
  EXPECT_NEAR(static_cast<double>(fwd[0]) / static_cast<double>(fwd[1]), 3.0,
              0.25);
  const auto& st = engine.backend().stats();
  EXPECT_GT(st.rank_admissions, 0u);
  // 50 ms of a saturated 8G link sweeps virtual time across the wheel many
  // times over: the calendar must have rebased rather than overflowed, and
  // drained entries must keep the backlog bounded by the wheel size.
  EXPECT_GT(st.calendar_rebases, 0u);
  auto& eiffel = static_cast<core::EiffelBackend&>(engine.backend());
  EXPECT_LE(eiffel.calendar_backlog(), core::EiffelBackend::kWheelBuckets);
}

TEST(RankValves, SchedulerAccessorValidOnlyUnderFlowValve) {
  auto fv = make_engine(BackendKind::kFlowValve);
  EXPECT_EQ(&fv.scheduler(), &fv.backend());  // same object, two views
#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
  auto stfq = make_engine(BackendKind::kStfq);
  EXPECT_DEATH(stfq.scheduler(), "FlowValve backend");
#endif
}

}  // namespace
}  // namespace flowvalve::check
