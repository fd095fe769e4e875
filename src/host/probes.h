// Measurement probes mirroring the paper's tooling:
//  - LatencyProbe  — netperf-style one-way delay sampler (Fig. 14)
//  - SaturationLoad — fixed-size full-speed injector for the maximum
//    throughput sweeps (Fig. 13), measuring delivered Mpps over a window.
#pragma once

#include "stats/stats.h"
#include "traffic/paced_sender.h"

namespace flowvalve::host {

using sim::Rate;
using sim::SimDuration;
using sim::SimTime;

/// Sends small probe packets at a modest rate and records the one-way delay
/// (created → delivered) of every probe that survives.
class LatencyProbe final : public traffic::PacedSender {
 public:
  LatencyProbe(sim::Simulator& sim, traffic::FlowRouter& router, traffic::IdAllocator& ids,
               traffic::FlowSpec spec, Rate rate, sim::Rng rng);

  const stats::LatencyStats& latency() const { return latency_; }

  void on_delivered(const net::Packet& pkt) override;

 private:
  SimDuration next_gap() override;

  Rate rate_;
  stats::LatencyStats latency_;
};

/// Open-loop saturation load: `num_flows` flows of fixed-size frames with an
/// aggregate offered rate, spread over VF ports. Counts deliveries after a
/// warmup mark to compute achieved Mpps, mirroring how the paper stresses
/// each scheduler with fixed-length packets at full speed.
class SaturationLoad final : public traffic::PacedSender {
 public:
  struct Config {
    unsigned num_flows = 16;
    std::uint32_t wire_bytes = 64;
    Rate offered = Rate::gigabits_per_sec(40);
    std::uint32_t app_id = 0;
    std::uint16_t vf_base = 0;
    unsigned num_vfs = 4;
  };

  SaturationLoad(sim::Simulator& sim, traffic::FlowRouter& router,
                 traffic::IdAllocator& ids, Config config, sim::Rng rng);

  void begin_measurement() { measure_from_ = sim_.now(); counted_ = 0; }
  double delivered_mpps(SimTime until) const;
  std::uint64_t counted() const { return counted_; }

  void on_delivered(const net::Packet& pkt) override;

 private:
  /// One frame per firing, the flows taking turns.
  void fire() override;
  SimDuration next_gap() override;

  Config config_;
  std::size_t rr_ = 0;
  SimTime measure_from_ = 0;
  std::uint64_t counted_ = 0;
};

}  // namespace flowvalve::host
