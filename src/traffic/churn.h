// Flow-churn workload: the million-flow stressor behind the scale-out
// ROADMAP item. Holds a configurable number of concurrently live flows
// (heavy-tailed lengths, Poisson arrivals replacing deaths) and services
// them round-robin with short packet trains from ONE pending simulator
// event — so 10^6 live flows cost 10^6 small structs, not 10^6 timers.
//
// While the population sits at its cap an arrival can only draw the gap to
// the next one, so the arrival process parks instead of firing: the next
// service event draws those gaps in order, and the service that completes
// a flow re-arms the pending arrival. The rng sees the same draws in the
// same order, so every spawn instant and packet is what an arrival event
// per gap would give; only the simulator's event count differs.
//
// The aggregate send rate is fixed; what churn varies is how that rate is
// spread across flows. More live flows ⇒ longer revisit period per flow ⇒
// colder EMC entries ⇒ the flow cache, not the scheduler, becomes the
// bottleneck under test (bench/scale_sweep.cpp plots exactly that).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "traffic/source.h"
#include "traffic/workload.h"

namespace flowvalve::traffic {

struct ChurnWorkloadConfig {
  /// Live-flow ceiling: arrivals spawn nothing while at it (the arrival
  /// process parks until a flow completes).
  std::size_t target_live_flows = 65536;
  /// Flows spawned immediately at start(). Defaults to the target so the
  /// sweep measures steady state, not ramp-up.
  std::size_t initial_flows = 0;  // 0 ⇒ target_live_flows
  /// Poisson arrival rate of replacement flows (the churn itself).
  double flows_per_sec = 100000.0;
  /// Heavy-tailed flow length in packets (bounded Pareto) — short RPC-ish
  /// flows dominate, the tail carries the bytes.
  double size_alpha = 1.2;
  std::uint64_t min_packets = 2;
  std::uint64_t max_packets = 256;
  /// Aggregate offered load across all live flows.
  Rate aggregate_rate = Rate::gigabits_per_sec(30);
  std::uint32_t wire_bytes = 1518;
  std::uint32_t app_id = 0;
  /// Flows are spread round-robin over VF ports [0, vf_count).
  unsigned vf_count = 4;
  /// Packets submitted back-to-back when a flow is serviced (one simulator
  /// event per train, matching the batched data path's burst shape).
  std::uint32_t train_length = 32;
};

class ChurnWorkload final : public TrafficSource {
 public:
  ChurnWorkload(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                ChurnWorkloadConfig config, sim::Rng rng);
  ~ChurnWorkload() override;

  void start() override;
  void stop() override;

  /// The deterministic serial→flow mapping spawn_flow() uses: the i-th flow
  /// ever spawned gets this five-tuple and VF. Exposed so a bench can
  /// pre-populate a flow table with exactly the initial live population
  /// (bench/scale_sweep.cpp primes the EMC this way — a sweep horizon at
  /// wire rate cannot cycle 10^6 flows cold).
  static net::FiveTuple tuple_for(std::uint64_t serial);
  static std::uint16_t vf_for(std::uint64_t serial, unsigned vf_count);

  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  std::size_t flows_live() const { return flows_.size(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  void on_delivered(const net::Packet&) override { ++packets_delivered_; }
  void on_dropped(const net::Packet&) override { ++packets_dropped_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

 private:
  struct Flow {
    FlowSpec spec;
    std::uint64_t remaining_packets = 0;
    std::uint64_t seq = 0;
  };

  void spawn_flow();
  /// Draws the gap to the next arrival and schedules it, or parks it while
  /// the population is at the cap.
  void arm_arrival();
  void schedule_arrival();
  void draw_arrival_gap();
  /// Draws the gaps of the parked arrivals an arrival event per gap would
  /// have fired before the current service event.
  void replay_parked_arrivals();
  void arm_service();
  void service_next();

  sim::Simulator& sim_;
  FlowRouter& router_;
  IdAllocator& ids_;
  ChurnWorkloadConfig config_;
  FlowSizeDistribution sizes_;
  sim::Rng rng_;
  bool active_flag_ = false;

  std::vector<Flow> flows_;   // live flows; round-robin cursor below
  std::size_t cursor_ = 0;
  std::uint64_t serial_ = 0;  // unique five-tuple source
  sim::EventHandle arrival_event_;
  sim::EventHandle service_event_;
  /// Instant of the pending arrival, scheduled or parked.
  sim::SimTime next_arrival_ = 0;
  bool arrival_parked_ = false;
  /// Whether the pending arrival was drawn before the pending service was
  /// scheduled, i.e. whether it fires first when both share an instant.
  bool arrival_precedes_service_ = false;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

}  // namespace flowvalve::traffic
