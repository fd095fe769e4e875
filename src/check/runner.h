// Scenario runner: expands a seed, assembles the full FlowValve NP stack
// (engine + pipeline + traffic) under a CheckHarness, runs to quiescence,
// and returns a verdict. This is the engine behind both the fuzz_check CLI
// and the tier-1 test_check_fuzz test.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/fuzzer.h"
#include "fault/fault.h"
#include "np/nic_pipeline.h"

namespace flowvalve::check {

/// Max |fv_share - htb_share| tolerated by the differential oracle. Both
/// systems approximate weighted fairness with different mechanisms (token
/// borrowing vs DRR), so exact agreement is not expected.
inline constexpr double kDifferentialTolerance = 0.1;

struct RunOptions {
  /// Use the differential scenario family and compare FlowValve's per-class
  /// shares against the reference HTB.
  bool differential = false;
  /// Fault schedule armed via a FaultPlane against the running pipeline
  /// (empty ⇒ no plane). Permanent leak/bypass events are the old
  /// checker-validation faults; timed events exercise the recovery layer.
  fault::FaultSchedule faults;
  /// Also derive a seed-specific chaos schedule (generate_fault_schedule)
  /// and arm it alongside `faults`.
  bool chaos = false;
  /// Derive a seed-specific compound campaign (generate_campaign_schedule:
  /// overlapping episodes over disjoint islands — blackout, flapping, ctrl
  /// partition, plus global kinds) and arm it alongside `faults`. Campaign
  /// runs also arm the RecoverySloChecker: every cleared episode must probe
  /// healthy within RecoverySloChecker::kRecoveryBound, and (differential
  /// runs) per-VF shares must reconverge to fair within a horizon-scaled
  /// bound.
  bool campaign = false;
  /// Arm a default-intensity kHashCollisionStorm (same-bucket cuckoo keys)
  /// over the middle half of the run, on top of `faults`/chaos.
  bool storm_collision = false;
  /// Arm a default-intensity kChurnStorm (synthetic flow arrival spike)
  /// over the middle half of the run, on top of `faults`/chaos.
  bool storm_churn = false;
  /// If > 0, overrides the generated scenario horizon.
  sim::SimDuration horizon_override = 0;
  /// Number of live policy updates submitted mid-run through a
  /// ctrl::ReconfigManager (0 ⇒ no control plane armed). Update instants,
  /// targeted classes, and one control-plane fault (torn-update /
  /// stale-epoch / update-storm / none) are all derived from the scenario
  /// seed, so a seed reproduces its full reconfiguration history. The
  /// epoch-confinement and swap-conservation checkers ride along.
  unsigned reconfig_updates = 0;
  /// If > 0, resolve_seed overrides the scenario's NpConfig::batch_size
  /// (run_scenario runs sc.nic as given) — the knob the
  /// burst-size differential oracle turns: the same seed run at batch_size
  /// 1 (one-packet bursts) and 32 must agree on every invariant and on its
  /// delivery/drop accounting.
  unsigned batch_size = 0;
  /// If set, resolve_seed overrides the scenario's seed-derived scheduling
  /// discipline (NpConfig::backend) — the knob behind `fuzz_check --backend`: the same
  /// seed can be pinned to FlowValve, STFQ, or Eiffel and must
  /// pass every discipline-generic invariant under each.
  std::optional<core::BackendKind> backend;
  /// Event-queue backend for the run. The wheel is the production default;
  /// kHeap pins the reference implementation so fuzz findings can be
  /// reproduced (and the two backends differentially compared) under every
  /// invariant checker.
  sim::SchedulerKind scheduler = sim::SchedulerKind::kWheel;
};

struct CheckReport {
  std::uint64_t seed = 0;
  bool differential = false;
  core::BackendKind backend = core::BackendKind::kFlowValve;  // as run
  np::NicPipeline::Stats nic;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;

  std::uint64_t violation_total = 0;   // all violations (may exceed the cap)
  std::vector<Violation> violations;   // first N, capped

  // Differential-mode extras (empty otherwise).
  std::vector<double> fv_shares;
  std::vector<double> ref_shares;
  std::vector<double> expected_shares;
  double worst_share_delta = 0.0;

  // Fault-plane extras (zero when no schedule was armed).
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t packets_lost_to_faults = 0;
  sim::SimDuration worst_recovery = 0;  // longest clear→healthy interval
  /// Campaign extras: post-quiet share-reconvergence time measured by the
  /// RecoverySloChecker (-1 when the SLO share half was not armed).
  sim::SimDuration share_reconvergence = -1;

  // Reconfiguration extras (zero when reconfig_updates == 0).
  std::uint64_t reconfigs_applied = 0;
  std::uint64_t reconfigs_committed = 0;
  std::uint64_t reconfigs_rolled_back = 0;
  std::uint64_t mixed_epoch_packets = 0;

  bool ok() const { return violation_total == 0; }
  std::string summary() const;  // one line
};

/// Run one already-expanded scenario; the fault schedule (if any) comes
/// from opts.faults — opts.chaos, the storms, batch_size and backend are
/// resolved by run_seed (resolve_seed), not here.
CheckReport run_scenario(const FuzzScenario& sc, const RunOptions& opts = {});

/// Expand `seed` (standard or differential family per opts), apply option
/// overrides, and run it.
CheckReport run_seed(std::uint64_t seed, const RunOptions& opts = {});

/// Everything run_seed derives before handing off to run_scenario: the
/// expanded scenario (with every fault-driven config mutation, the forced
/// batch size and backend, and the horizon override already applied) and
/// the options with the full resolved fault schedule (chaos + campaign +
/// storms + explicit events) in `.faults`. run_scenario(sc, opts) on the
/// result reproduces run_seed exactly.
struct ResolvedSeed {
  FuzzScenario sc;
  RunOptions opts;

  /// The scenario and the fault list exactly as run_seed runs them — what
  /// `fuzz_check -v` prints.
  std::string describe() const;
};
ResolvedSeed resolve_seed(std::uint64_t seed, const RunOptions& opts = {});

/// Delta-debugging for `fuzz_check --minimize`: greedily re-run `resolved.sc`
/// with one fault event removed at a time, keeping every removal after which
/// the run still fails (any violation, or an escaped exception), until no
/// single removal preserves the failure. The scenario config stays fixed as
/// resolved for the ORIGINAL schedule — the point is a smaller trigger for
/// the same run, not a re-derivation. Returns the minimal failing subset
/// (empty if the failure does not depend on the schedule at all).
fault::FaultSchedule minimize_schedule(const ResolvedSeed& resolved);

/// One corpus entry as merged by run_corpus: either the seed's CheckReport
/// or — if the scenario escaped with an exception — a structured crash
/// record. A crash never kills the batch: the remaining seeds complete and
/// merge normally.
struct SeedOutcome {
  std::uint64_t seed = 0;
  bool crashed = false;
  std::string crash_what;  // exception text; empty unless crashed
  CheckReport report;      // default-constructed when crashed
  bool ok() const { return !crashed && report.ok(); }
};

/// Canonical byte-exact serialization of every CheckReport field (doubles
/// rendered as hexfloat, so no precision is lost). Two reports are
/// "bit-identical" iff their fingerprints compare equal — this is the
/// currency of the parallel-vs-sequential equivalence oracle.
std::string report_fingerprint(const CheckReport& r);

/// 64-bit digest of a corpus: every outcome's report_fingerprint (for a
/// crash record, its seed and exception text), in seed order. Outcomes come
/// back in seed order at any job count, so the digest does not depend on
/// `--jobs`; equal digests from two builds mean the corpus behaved byte for
/// byte the same. fuzz_check prints it on its closing line.
std::uint64_t corpus_digest(const std::vector<SeedOutcome>& outcomes);

/// Run every seed under `opts` across `jobs` threads (0 = all host cores,
/// 1 = inline sequential — the oracle's reference). One Simulator +
/// pipeline + seed-derived Rng per task, nothing shared; outcomes are
/// returned in seed order regardless of completion order, so the merged
/// result is bit-identical at any job count.
std::vector<SeedOutcome> run_corpus(const std::vector<std::uint64_t>& seeds,
                                    const RunOptions& opts, unsigned jobs);

/// run_corpus with a custom per-seed body (tests use this to inject a
/// deliberately-throwing scenario among real ones).
std::vector<SeedOutcome> run_corpus_with(
    const std::vector<std::uint64_t>& seeds,
    const std::function<CheckReport(std::uint64_t)>& body, unsigned jobs);

}  // namespace flowvalve::check
