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

  Outcome process(net::Packet& pkt, sim::SimTime now) override {
    const auto r = engine_.process(pkt, now);
    return {r.verdict == core::Verdict::kForward, r.cycles};
  }

  /// Burst path: hand the whole burst to the engine so it can amortize
  /// EMC lookups across same-flow packets (exact per the batch-1
  /// differential oracle).
  void process_batch(BatchSlot* slots, std::size_t n, sim::SimTime now) override {
    entries_.clear();
    for (std::size_t i = 0; i < n; ++i)
      entries_.push_back({slots[i].pkt, {}});
    engine_.process_batch(entries_.data(), n, now);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = entries_[i].result;
      slots[i].out = {r.verdict == core::Verdict::kForward, r.cycles};
    }
  }

 private:
  core::FlowValveEngine& engine_;
  std::vector<core::FlowValveEngine::BatchEntry> entries_;  // scratch
};

}  // namespace flowvalve::np
