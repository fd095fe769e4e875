// Flow-level datacenter workload generator: Poisson flow arrivals with
// heavy-tailed (bounded-Pareto) flow sizes — the traffic mix behind the
// paper's motivating cloud scenario (§I/§II), where many short RPC-ish
// flows (KVS) coexist with long bulk transfers (ML training).
#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "sim/rng.h"
#include "traffic/source.h"

namespace flowvalve::traffic {

/// Bounded Pareto flow-size sampler (classic web-search/data-mining shape).
class FlowSizeDistribution {
 public:
  /// alpha < 2 gives the heavy tail; sizes clamped to [min_bytes, max_bytes].
  FlowSizeDistribution(double alpha, std::uint64_t min_bytes, std::uint64_t max_bytes);

  std::uint64_t sample(sim::Rng& rng) const;
  double mean_bytes() const;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double lo_, hi_;
  double la_, ha_;  // lo_^alpha_ and hi_^alpha_, constant per distribution
};

struct DatacenterWorkloadConfig {
  /// Mean flow arrival rate.
  double flows_per_sec = 2000.0;
  FlowSizeDistribution sizes{1.2, 2 * 1460, 30 * 1024 * 1024};
  /// Rate each flow sends at while alive (host burst rate / per-flow cap).
  Rate flow_rate = Rate::gigabits_per_sec(5);
  std::uint32_t wire_bytes = 1518;
  std::uint32_t app_id = 0;
  std::uint16_t vf_port = 0;
  /// Offered load = flows_per_sec × mean flow size (bits/s).
  Rate offered_load() const {
    return Rate::bits_per_sec(flows_per_sec * sizes.mean_bytes() * 8.0);
  }
};

/// Spawns short-lived flows per a Poisson process; each flow transmits its
/// sampled size at `flow_rate` and then terminates. Loss feedback is
/// ignored (flows are open-loop), which stresses the scheduler the hardest.
class DatacenterWorkload final : public TrafficSource {
 public:
  DatacenterWorkload(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                     DatacenterWorkloadConfig config, sim::Rng rng);
  ~DatacenterWorkload() override;

  void start() override;
  void stop() override;

  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::size_t flows_active() const { return active_.size(); }
  std::uint64_t largest_flow_bytes() const { return largest_flow_; }

  void on_delivered(const net::Packet&) override { ++packets_delivered_; }
  void on_dropped(const net::Packet&) override { ++packets_dropped_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

 private:
  struct LiveFlow {
    FlowSpec spec;
    std::uint64_t remaining_bytes;
    std::uint64_t seq = 0;
    sim::EventHandle next_send;
  };

  void arm_arrival();
  void spawn_flow();
  void send_from(std::list<LiveFlow>::iterator it);

  sim::Simulator& sim_;
  FlowRouter& router_;
  IdAllocator& ids_;
  DatacenterWorkloadConfig config_;
  sim::Rng rng_;
  bool active_flag_ = false;
  std::list<LiveFlow> active_;
  sim::EventHandle arrival_event_;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t largest_flow_ = 0;
  std::uint16_t next_port_ = 10000;
};

}  // namespace flowvalve::traffic
