// Adapter plugging the FlowValve engine into the NP pipeline's worker loop.
#pragma once

#include "core/flowvalve.h"
#include "np/nic_pipeline.h"

namespace flowvalve::np {

/// Engine options whose virtual-time lock hold matches the NP clock and
/// whose scheduling discipline follows the NIC's configured backend.
inline core::FlowValveEngine::Options engine_options_for(const NpConfig& cfg) {
  core::FlowValveEngine::Options opt;
  opt.lock_hold_ns = cfg.cycles_to_ns(core::SchedulerBackend::kUpdateCycles);
  opt.backend = cfg.backend;
  opt.emc.capacity = cfg.emc_capacity;
  opt.emc.idle_timeout_ticks = static_cast<std::uint64_t>(cfg.emc_idle_timeout);
  return opt;
}

class FlowValveProcessor final : public PacketProcessor {
 public:
  explicit FlowValveProcessor(core::FlowValveEngine& engine) : engine_(engine) {}

  /// A burst reaches the engine one packet at a time, through the default
  /// PacketProcessor::process_batch loop.
  Outcome process(net::Packet& pkt, sim::SimTime now) override {
    const auto r = engine_.process(pkt, now);
    return {r.verdict == core::Verdict::kForward, r.cycles};
  }

 private:
  core::FlowValveEngine& engine_;
};

}  // namespace flowvalve::np
