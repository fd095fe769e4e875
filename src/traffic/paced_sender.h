// The paced send loop shared by the open-loop senders: CbrFlow,
// PoissonFlow, OnOffFlow and TcpAimdFlow here, LatencyProbe and
// SaturationLoad in src/host. Each firing submits the sender's packets,
// then draws the gap to the next firing from the sender's gap law and
// re-arms, so an active sender always has exactly one send pending and a
// stopped (or gated-off) one has none.
//
// Gaps are whole nanoseconds: a sender computes its gap in double
// precision (frame time, then jitter or an exponential draw) and truncates
// it once, with a 1 ns floor. Rate::serialization_delay rounds to nearest
// instead, so it must not stand in for frame_time_ns here: every packet
// instant would move.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/rng.h"
#include "traffic/source.h"

namespace flowvalve::traffic {

/// Unrounded time to put `bytes` on the wire at `rate`, in ns. Rates under
/// 1 kb/s pace as 1 kb/s.
inline double frame_time_ns(std::uint64_t bytes, Rate rate) {
  return static_cast<double>(bytes) * 8e9 / std::max(rate.bps(), 1e3);
}

/// A gap of `ns` truncated to whole nanoseconds, at least 1 ns.
inline SimDuration whole_gap(double ns) {
  return std::max<SimDuration>(1, static_cast<SimDuration>(ns));
}

class PacedSender : public TrafficSource {
 public:
  ~PacedSender() override;

  void start() final;
  void stop() final;
  bool active() const { return active_; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_lost() const { return lost_; }

  void on_delivered(const net::Packet&) override { ++delivered_; }
  void on_dropped(const net::Packet&) override { ++lost_; }

 protected:
  /// Registers every flow in `flows` with the router; packets of all of
  /// them share one sequence counter.
  PacedSender(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
              std::vector<FlowSpec> flows, sim::Rng rng);

  /// The gap law: time from this firing to the next, drawn after the
  /// firing's packets were submitted.
  virtual SimDuration next_gap() = 0;
  /// One firing's packets; one frame of the first flow unless overridden.
  virtual void fire() { submit(flows_.front()); }
  /// Runs when start() activates the sender; fires at once unless
  /// overridden.
  virtual void on_start() { send_now(); }
  /// Runs when stop() deactivates the sender, after the pending send is
  /// cancelled.
  virtual void on_stop() {}

  /// `ns` scaled by a uniform factor in [1 - frac/2, 1 + frac/2), as a
  /// whole gap. Draws from the sender's rng only when frac is nonzero.
  SimDuration jittered_gap(double ns, double frac);

  void submit(const FlowSpec& flow);
  /// Replaces the pending send (if any) by a firing now.
  void send_now();
  /// Cancels the pending send; the next send_now() resumes.
  void pause() { send_event_.cancel(); }

  const FlowSpec& spec() const { return flows_.front(); }
  const std::vector<FlowSpec>& flows() const { return flows_; }

  sim::Simulator& sim_;
  sim::Rng rng_;

 private:
  void send_next();

  FlowRouter& router_;
  IdAllocator& ids_;
  std::vector<FlowSpec> flows_;
  bool active_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  sim::EventHandle send_event_;
};

}  // namespace flowvalve::traffic
