#include "host/probes.h"

#include <vector>

namespace flowvalve::host {

// ---------------------------------------------------------- LatencyProbe --

LatencyProbe::LatencyProbe(sim::Simulator& sim, traffic::FlowRouter& router,
                           traffic::IdAllocator& ids, traffic::FlowSpec spec, Rate rate,
                           sim::Rng rng)
    : PacedSender(sim, router, ids, {spec}, rng), rate_(rate) {}

// Slightly jittered so probes do not phase-lock with poll loops.
SimDuration LatencyProbe::next_gap() {
  return jittered_gap(traffic::frame_time_ns(spec().wire_bytes, rate_), 0.2);
}

void LatencyProbe::on_delivered(const net::Packet& pkt) {
  PacedSender::on_delivered(pkt);
  latency_.add(pkt.delivered_at - pkt.created_at);
}

// -------------------------------------------------------- SaturationLoad --

namespace {

std::vector<traffic::FlowSpec> saturation_flows(traffic::IdAllocator& ids,
                                                const SaturationLoad::Config& config) {
  std::vector<traffic::FlowSpec> flows;
  flows.reserve(config.num_flows);
  for (unsigned i = 0; i < config.num_flows; ++i) {
    traffic::FlowSpec spec;
    spec.flow_id = ids.next_flow_id();
    spec.app_id = config.app_id + i % 4;  // spread over apps/classes
    spec.vf_port = static_cast<std::uint16_t>(config.vf_base + i % config.num_vfs);
    spec.wire_bytes = config.wire_bytes;
    spec.tuple.src_ip = 0x0a000100 + i;
    spec.tuple.dst_ip = 0x0a000002;
    spec.tuple.src_port = static_cast<std::uint16_t>(30000 + i);
    spec.tuple.dst_port = 5201;
    spec.tuple.proto = net::IpProto::kUdp;
    flows.push_back(spec);
  }
  return flows;
}

}  // namespace

SaturationLoad::SaturationLoad(sim::Simulator& sim, traffic::FlowRouter& router,
                               traffic::IdAllocator& ids, Config config, sim::Rng rng)
    : PacedSender(sim, router, ids, saturation_flows(ids, config), rng), config_(config) {}

void SaturationLoad::fire() {
  const traffic::FlowSpec& spec = flows()[rr_];
  rr_ = (rr_ + 1) % flows().size();
  submit(spec);
}

// Aggregate pacing across all flows.
SimDuration SaturationLoad::next_gap() {
  return traffic::whole_gap(traffic::frame_time_ns(
      config_.wire_bytes + net::kEthernetOverheadBytes, config_.offered));
}

void SaturationLoad::on_delivered(const net::Packet& pkt) {
  PacedSender::on_delivered(pkt);
  if (pkt.wire_tx_done >= measure_from_ && measure_from_ > 0) ++counted_;
}

double SaturationLoad::delivered_mpps(SimTime until) const {
  const SimDuration window = until - measure_from_;
  if (window <= 0 || measure_from_ == 0) return 0.0;
  return static_cast<double>(counted_) / sim::to_seconds(window) / 1e6;
}

}  // namespace flowvalve::host
