#include "check/convergence.h"

#include <cmath>
#include <string>

namespace flowvalve::check {

ShareConvergenceChecker::ShareConvergenceChecker(
    std::vector<double> expected_fractions, sim::SimTime from, sim::SimTime to)
    : expected_(std::move(expected_fractions)),
      bytes_(expected_.size(), 0),
      from_(from),
      to_(to) {}

void ShareConvergenceChecker::on_wire_tx(const net::Packet& pkt,
                                         sim::SimTime now) {
  if (now < from_ || now > to_) return;
  if (pkt.vf_port < bytes_.size()) bytes_[pkt.vf_port] += pkt.wire_bytes;
}

void ShareConvergenceChecker::on_finish(const SystemView&, sim::SimTime now) {
  std::uint64_t total = 0;
  for (std::uint64_t b : bytes_) total += b;
  if (total == 0) {
    fail(now, "no wire traffic inside the convergence window [" +
                  std::to_string(from_) + ", " + std::to_string(to_) +
                  "]ns — pipeline never recovered");
    return;
  }
  for (std::size_t vf = 0; vf < expected_.size(); ++vf) {
    if (expected_[vf] <= 0.0) continue;
    const double frac =
        static_cast<double>(bytes_[vf]) / static_cast<double>(total);
    const double delta = std::abs(frac - expected_[vf]);
    if (delta > kConvergenceTolerance)
      fail(now, "vf " + std::to_string(vf) + " share " + std::to_string(frac) +
                    " vs fair " + std::to_string(expected_[vf]) +
                    " (|delta| " + std::to_string(delta) + " > tolerance " +
                    std::to_string(kConvergenceTolerance) + ") over window [" +
                    std::to_string(from_) + ", " + std::to_string(to_) + "]ns");
  }
}

}  // namespace flowvalve::check
