#include "check/recovery_slo.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "check/convergence.h"

namespace flowvalve::check {

RecoverySloChecker::RecoverySloChecker(const obs::RecoveryTracker* tracker,
                                       Options options)
    : tracker_(tracker),
      options_(options),
      span_(std::max<sim::SimDuration>(0, options_.horizon - options_.quiet_at)),
      window_(std::max<sim::SimDuration>(sim::microseconds(500), span_ / 8)) {}

void RecoverySloChecker::on_wire_tx(const net::Packet& pkt, sim::SimTime now) {
  if (options_.expected_fractions.empty()) return;
  if (now < options_.quiet_at || now > options_.horizon) return;
  const auto w = static_cast<std::size_t>((now - options_.quiet_at) / window_);
  if (w >= per_window_.size())
    per_window_.resize(w + 1,
                       std::vector<std::uint64_t>(
                           options_.expected_fractions.size(), 0));
  if (pkt.vf_port < per_window_[w].size())
    per_window_[w][pkt.vf_port] += pkt.wire_bytes;
}

void RecoverySloChecker::on_finish(const SystemView&, sim::SimTime now) {
  // --- Episode MTTR ------------------------------------------------------
  if (tracker_) {
    for (const obs::FaultRecord& r : tracker_->records()) {
      if (!r.cleared()) continue;  // permanent by design; not an SLO miss
      if (!r.recovered()) {
        fail(now, r.kind + " cleared at " + std::to_string(r.cleared_at) +
                      "ns but the pipeline never probed healthy again");
        continue;
      }
      // Measured from the campaign's quiet instant: an early-clearing
      // episode cannot probe healthy while a later one is still active.
      const sim::SimTime basis = std::max(r.cleared_at, options_.quiet_at);
      const sim::SimDuration mttr = r.recovered_at - basis;
      if (mttr > kRecoveryBound)
        fail(now, r.kind + " recovery took " + std::to_string(mttr) +
                      "ns > SLO bound " + std::to_string(kRecoveryBound) + "ns");
    }
  }

  // --- Share reconvergence ------------------------------------------------
  if (options_.expected_fractions.empty()) return;
  // Only complete windows count; the tail window is truncated by horizon.
  const std::size_t complete = static_cast<std::size_t>(span_ / window_);
  const std::size_t n = std::min(per_window_.size(), complete);
  if (n == 0 || per_window_.empty()) {
    fail(now, "no complete post-quiet window — the run left no room to "
              "measure reconvergence in");
    return;
  }
  auto window_fair = [&](std::size_t w) {
    if (w >= per_window_.size()) return false;  // silent window
    std::uint64_t total = 0;
    for (std::uint64_t b : per_window_[w]) total += b;
    if (total == 0) return false;
    for (std::size_t vf = 0; vf < options_.expected_fractions.size(); ++vf) {
      const double want = options_.expected_fractions[vf];
      if (want <= 0.0) continue;
      const double frac =
          static_cast<double>(per_window_[w][vf]) / static_cast<double>(total);
      if (std::abs(frac - want) > kConvergenceTolerance) return false;
    }
    return true;
  };
  // First window from which every later complete window stays fair: scan
  // backwards so the suffix property is one pass.
  std::size_t first_stable = n;  // n = never
  for (std::size_t w = n; w-- > 0;) {
    if (!window_fair(w)) break;
    first_stable = w;
  }
  if (first_stable == n) {
    fail(now, "shares never reconverged: the final post-quiet window is "
              "silent or unfair (window " +
                  std::to_string(window_) + "ns, tolerance " +
                  std::to_string(kConvergenceTolerance) + ")");
    return;
  }
  reconvergence_ = static_cast<sim::SimDuration>(first_stable) * window_;
  const sim::SimDuration bound =
      std::max<sim::SimDuration>(sim::milliseconds(10), span_ / 2);
  if (reconvergence_ > bound)
    fail(now, "share reconvergence took " + std::to_string(reconvergence_) +
                  "ns > SLO bound " + std::to_string(bound) + "ns");
}

}  // namespace flowvalve::check
