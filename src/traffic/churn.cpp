#include "traffic/churn.h"

#include <algorithm>
#include <stdexcept>

namespace flowvalve::traffic {

ChurnWorkload::ChurnWorkload(sim::Simulator& sim, FlowRouter& router,
                             IdAllocator& ids, ChurnWorkloadConfig config,
                             sim::Rng rng)
    : sim_(sim),
      router_(router),
      ids_(ids),
      config_(config),
      sizes_(config.size_alpha,
             std::max<std::uint64_t>(1, config.min_packets),
             std::max<std::uint64_t>(config.min_packets + 1, config.max_packets)),
      rng_(rng) {
  if (config_.min_packets >= ChurnWorkloadConfig::kMaxPackets ||
      config_.max_packets > ChurnWorkloadConfig::kMaxPackets)
    throw std::invalid_argument("ChurnWorkload: flow length past 2^32 - 1 packets");
  if (config_.target_live_flows == 0) config_.target_live_flows = 1;
  if (config_.initial_flows == 0) config_.initial_flows = config_.target_live_flows;
  config_.initial_flows = std::min(config_.initial_flows, config_.target_live_flows);
  if (config_.vf_count == 0) config_.vf_count = 1;
  if (config_.train_length == 0) config_.train_length = 1;
}

ChurnWorkload::~ChurnWorkload() { stop(); }

net::FiveTuple ChurnWorkload::tuple_for(std::uint64_t serial) {
  // Serial-derived five-tuples: unique for up to 2^48 flows (the rng draws
  // stay reserved for sizes and arrival gaps).
  net::FiveTuple t;
  t.src_ip = 0x0a000000u + static_cast<std::uint32_t>(serial >> 16);
  t.dst_ip = 0x0a000002u;
  t.src_port = static_cast<std::uint16_t>(serial & 0xFFFF);
  t.dst_port = 80;
  t.proto = net::IpProto::kUdp;
  return t;
}

std::uint16_t ChurnWorkload::vf_for(std::uint64_t serial, unsigned vf_count) {
  return static_cast<std::uint16_t>(serial % std::max(1u, vf_count));
}

void ChurnWorkload::start() {
  if (active_flag_) return;
  active_flag_ = true;
  flows_.reserve(config_.target_live_flows);
  for (std::size_t i = 0; i < config_.initial_flows; ++i) spawn_flow();
  next_arrival_ = sim_.now();
  if (config_.flows_per_sec > 0.0) arm_arrival();
  arm_service();
}

void ChurnWorkload::stop() {
  active_flag_ = false;
  arrival_event_.cancel();
  service_event_.cancel();
  for (const Flow& f : flows_) router_.unregister_flow(f.flow_id);
  flows_.clear();
  cursor_ = 0;
}

void ChurnWorkload::spawn_flow() {
  const Flow f{.serial = serial_++,
               .flow_id = ids_.next_flow_id(),
               // At most kMaxPackets, checked in the constructor.
               .remaining_packets = static_cast<std::uint32_t>(sizes_.sample(rng_)),
               .seq = 0};
  router_.register_flow(f.flow_id, this);
  ++flows_started_;
  flows_.push_back(f);
}

void ChurnWorkload::draw_arrival_gap() {
  const double mean_gap_ns = 1e9 / config_.flows_per_sec;
  next_arrival_ += std::max<sim::SimDuration>(
      1, static_cast<sim::SimDuration>(rng_.exponential(mean_gap_ns)));
  // Drawn now, so scheduled after the pending service: at a shared
  // instant the service fires first.
  arrival_precedes_service_ = false;
}

void ChurnWorkload::arm_arrival() {
  draw_arrival_gap();
  arrival_parked_ = flows_.size() >= config_.target_live_flows;
  if (!arrival_parked_) schedule_arrival();
}

void ChurnWorkload::schedule_arrival() {
  arrival_event_ = sim_.schedule_at(next_arrival_, [this] {
    if (!active_flag_) return;
    spawn_flow();
    arm_arrival();
  });
}

void ChurnWorkload::replay_parked_arrivals() {
  // Each of these arrivals would have found the population at the cap, so
  // all it did was draw the gap to its successor.
  const sim::SimTime now = sim_.now();
  while (arrival_parked_ && (next_arrival_ < now ||
                             (next_arrival_ == now && arrival_precedes_service_)))
    draw_arrival_gap();
}

void ChurnWorkload::arm_service() {
  // One pending event regardless of live-flow count: the aggregate rate is
  // spent train by train, round-robin over whatever is live.
  const double train_bits = static_cast<double>(config_.train_length) *
                            static_cast<double>(config_.wire_bytes) * 8.0;
  const double gap_ns =
      train_bits * 1e9 / std::max(config_.aggregate_rate.bps(), 1e3);
  service_event_ = sim_.schedule_after(
      std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(gap_ns)),
      [this] {
        if (!active_flag_) return;
        replay_parked_arrivals();
        service_next();
        arm_service();
      });
  arrival_precedes_service_ = true;
}

void ChurnWorkload::service_next() {
  if (flows_.empty()) return;
  if (cursor_ >= flows_.size()) cursor_ = 0;
  Flow& f = flows_[cursor_];
  const FlowSpec spec{.flow_id = f.flow_id,
                      .app_id = config_.app_id,
                      .vf_port = vf_for(f.serial, config_.vf_count),
                      .wire_bytes = config_.wire_bytes,
                      .tuple = tuple_for(f.serial)};
  const std::uint32_t train = std::min(f.remaining_packets, config_.train_length);
  for (std::uint32_t i = 0; i < train; ++i) {
    net::Packet pkt = make_packet(spec, ids_, sim_.now(), f.seq++);
    ++packets_sent_;
    bytes_sent_ += pkt.wire_bytes;
    router_.device().submit(std::move(pkt));
  }
  f.remaining_packets -= train;
  if (f.remaining_packets == 0) {
    router_.unregister_flow(f.flow_id);
    ++flows_completed_;
    // The pending arrival now finds room. It was drawn before this service
    // fired, so scheduling it before arm_service() keeps it ahead of the
    // next service at a shared instant.
    if (arrival_parked_) {
      arrival_parked_ = false;
      schedule_arrival();
    }
    // Swap-remove keeps the vector dense; the cursor stays put so the
    // swapped-in flow is serviced next visit.
    flows_[cursor_] = flows_.back();
    flows_.pop_back();
  } else {
    ++cursor_;
  }
}

}  // namespace flowvalve::traffic
