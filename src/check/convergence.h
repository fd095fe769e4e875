// Post-fault share re-convergence checker.
//
// The robustness acceptance bar (ISSUE 3 / DESIGN.md §8) is not just "the
// pipeline survives a fault" but "after the fault clears, the scheduler's
// per-class shares return to the fair allocation within a bounded window".
// ShareConvergenceChecker asserts exactly that: over a configured window
// [from, to] — opened by the runner a settling interval after the last
// fault clears — each VF's fraction of wire bytes must sit within
// kConvergenceTolerance of its expected weighted-fair share, and the window must not
// be silent (a wedged pipeline that ships nothing is a failure, not a
// vacuous pass).
#pragma once

#include <vector>

#include "check/checker.h"

namespace flowvalve::check {

/// Max |VF share − fair share| of a run that has reconverged after its
/// faults: ShareConvergenceChecker's window and RecoverySloChecker's
/// post-quiet windows hold every VF to it.
inline constexpr double kConvergenceTolerance = 0.10;

class ShareConvergenceChecker final : public InvariantChecker {
 public:
  /// `expected_fractions[vf]` is the VF's fair fraction of wire bytes (0 for
  /// VFs with no leaf). Fractions should sum to ~1 over the active VFs.
  ShareConvergenceChecker(std::vector<double> expected_fractions,
                          sim::SimTime from, sim::SimTime to);

  std::string_view name() const override { return "share-convergence"; }

  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override;
  void on_finish(const SystemView& v, sim::SimTime now) override;

 private:
  std::vector<double> expected_;
  std::vector<std::uint64_t> bytes_;
  sim::SimTime from_;
  sim::SimTime to_;
};

}  // namespace flowvalve::check
