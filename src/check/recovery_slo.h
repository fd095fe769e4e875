// Recovery-SLO oracle for compound-fault campaigns (DESIGN.md §16).
//
// ShareConvergenceChecker asserts shares are fair over ONE window opened
// after the last fault clears; under a compound campaign that is necessary
// but not sufficient — the SLO is that the system *reconverges within a
// bounded time* of the campaign going quiet, and that every episode the
// fault plane cleared actually probed healthy again. RecoverySloChecker
// closes both gaps:
//
//   * Episode MTTR: every FaultRecord the attached RecoveryTracker holds
//     that was cleared must have recovered, and its clear→healthy interval
//     (measured from the campaign's quiet instant, since an episode cannot
//     probe healthy while a later one is still active) must sit within
//     kRecoveryBound.
//   * Share reconvergence: post-quiet wire traffic is bucketed into fixed
//     windows (an eighth of the post-quiet span, at least 500 µs); the
//     reconvergence time is the start of the first window from which EVERY
//     subsequent complete window keeps all expected VF shares within
//     kConvergenceTolerance. Taking longer than half the post-quiet span
//     (at least 10 ms) — or never reconverging, or shipping nothing at all
//     post-quiet — fails the run.
//
// The measured reconvergence time is exposed for CheckReport/fingerprint
// and for bench/recovery_sweep's committed MTTR percentiles.
#pragma once

#include <vector>

#include "check/checker.h"
#include "fault/fault_plane.h"
#include "obs/recovery_tracker.h"

namespace flowvalve::check {

class RecoverySloChecker final : public InvariantChecker {
 public:
  /// Bound on each episode's max(cleared, quiet)→healthy interval: the
  /// fault plane's probe deadline plus 10 ms of slack.
  static constexpr sim::SimDuration kRecoveryBound =
      fault::FaultPlane::kProbeDeadline + sim::milliseconds(10);

  struct Options {
    /// Instant the campaign goes quiet (last scheduled fault clearing);
    /// MTTR and reconvergence are measured from here.
    sim::SimTime quiet_at = 0;
    /// End of the measurable run (traffic stop); windows past it are
    /// incomplete and ignored.
    sim::SimTime horizon = 0;
    /// Fair per-VF wire-byte fractions (empty ⇒ the share half of the SLO
    /// is off — e.g. non-differential runs, where no fair expectation
    /// exists).
    std::vector<double> expected_fractions;
  };

  /// `tracker` may be null (the MTTR half is skipped). Not owned; must
  /// outlive finish().
  RecoverySloChecker(const obs::RecoveryTracker* tracker, Options options);

  std::string_view name() const override { return "recovery-slo"; }

  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override;
  void on_finish(const SystemView& v, sim::SimTime now) override;

  /// Measured share-reconvergence time (quiet→first stable window), valid
  /// after on_finish; -1 when the share half was off or never reconverged.
  sim::SimDuration share_reconvergence() const { return reconvergence_; }

 private:
  const obs::RecoveryTracker* tracker_;
  Options options_;
  sim::SimDuration span_ = 0;    // quiet_at → horizon
  sim::SimDuration window_ = 0;
  sim::SimDuration reconvergence_ = -1;
  // per_window_[w][vf] = wire bytes of window w (w = (now − quiet)/window).
  std::vector<std::vector<std::uint64_t>> per_window_;
};

}  // namespace flowvalve::check
