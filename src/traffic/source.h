// Traffic source framework: sources submit packets to an EgressDevice and
// receive per-flow delivery/drop feedback through the FlowRouter, which
// demultiplexes the device's callbacks by flow id.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/device.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "stats/stats.h"

namespace flowvalve::traffic {

using sim::Rate;
using sim::SimDuration;
using sim::SimTime;

/// Allocates globally unique packet ids and flow ids for a scenario.
class IdAllocator {
 public:
  std::uint64_t next_packet_id() { return ++packet_id_; }
  std::uint32_t next_flow_id() { return ++flow_id_; }

 private:
  std::uint64_t packet_id_ = 0;
  std::uint32_t flow_id_ = 0;
};

/// A source registers its own address with the FlowRouter and captures it
/// in simulator events, so it is neither copied nor moved.
class TrafficSource {
 public:
  TrafficSource() = default;
  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;
  virtual ~TrafficSource() = default;
  virtual void start() = 0;
  virtual void stop() = 0;
  virtual void on_delivered(const net::Packet& pkt) = 0;
  virtual void on_dropped(const net::Packet& pkt) = 0;
};

/// Routes a device's delivery/drop callbacks to the owning sources by
/// flow id, and keeps scenario-wide accounting (per-app throughput series).
class FlowRouter {
 public:
  explicit FlowRouter(net::EgressDevice& device) : device_(device) {
    device.set_on_delivered([this](const net::Packet& pkt) { handle_delivered(pkt); });
    device.set_on_dropped([this](const net::Packet& pkt) { handle_dropped(pkt); });
  }

  void register_flow(std::uint32_t flow_id, TrafficSource* source) {
    flows_[flow_id] = source;
  }
  void unregister_flow(std::uint32_t flow_id) { flows_.erase(flow_id); }

  /// Optional per-app delivered-bytes series (Fig. 3/11 curves).
  void track_app(std::uint32_t app_id, stats::ThroughputSeries* series) {
    app_series_[app_id] = series;
  }

  net::EgressDevice& device() { return device_; }

 private:
  void handle_delivered(const net::Packet& pkt) {
    if (auto it = app_series_.find(pkt.app_id); it != app_series_.end())
      it->second->add(pkt.wire_tx_done, pkt.wire_bytes);
    if (auto it = flows_.find(pkt.flow_id); it != flows_.end())
      it->second->on_delivered(pkt);
  }
  void handle_dropped(const net::Packet& pkt) {
    if (auto it = flows_.find(pkt.flow_id); it != flows_.end())
      it->second->on_dropped(pkt);
  }

  net::EgressDevice& device_;
  std::unordered_map<std::uint32_t, TrafficSource*> flows_;
  std::unordered_map<std::uint32_t, stats::ThroughputSeries*> app_series_;
};

/// Identity shared by all packets of one flow.
struct FlowSpec {
  std::uint32_t flow_id = 0;
  std::uint32_t app_id = 0;
  std::uint16_t vf_port = 0;
  std::uint32_t wire_bytes = 1518;  // frame size (super-packets allowed)
  net::FiveTuple tuple;
};

/// Build a packet for a flow, stamping creation time and sequence.
inline net::Packet make_packet(const FlowSpec& spec, IdAllocator& ids, SimTime now,
                               std::uint64_t seq) {
  net::Packet pkt;
  pkt.id = ids.next_packet_id();
  pkt.flow_id = spec.flow_id;
  pkt.app_id = spec.app_id;
  pkt.vf_port = spec.vf_port;
  pkt.wire_bytes = spec.wire_bytes;
  pkt.seq_in_flow = seq;
  pkt.tuple = spec.tuple;
  pkt.created_at = now;
  return pkt;
}

}  // namespace flowvalve::traffic
