// Packet model.
//
// The simulator moves Packet values (not wire bytes) between components for
// speed: the classifier matches on the FiveTuple a packet carries, never on
// frame bytes. The `wire_bytes` field is the full frame length including
// FCS; per-packet wire occupancy additionally pays kEthernetOverheadBytes
// of preamble + inter-frame gap, matching how 40GbE line rate is computed
// in the paper's Fig. 13 (64B → 59.5 Mpps).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.h"

namespace flowvalve::net {

using sim::SimTime;

/// Preamble (8B) + inter-frame gap (12B): consumed on the wire per frame but
/// not part of the frame itself.
inline constexpr std::uint32_t kEthernetOverheadBytes = 20;

/// Minimum/maximum Ethernet frame sizes (with FCS).
inline constexpr std::uint32_t kMinFrameBytes = 64;
inline constexpr std::uint32_t kMaxFrameBytes = 1518;

enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

/// Classic 5-tuple flow key.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProto proto = IpProto::kTcp;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;

  /// Stable 64-bit hash (used by the exact-match flow cache model).
  std::uint64_t hash() const;

  std::string to_string() const;
};

/// Identifier of a traffic class / QoS label assigned by the classifier.
/// kUnclassified means the labeling function has not matched a filter yet.
using ClassLabelId = std::uint32_t;
inline constexpr ClassLabelId kUnclassified = 0xffffffffu;

/// A simulated packet. Timestamp fields are filled in as the packet moves
/// through the pipeline and feed the one-way delay measurements (Fig. 14).
struct Packet {
  std::uint64_t id = 0;            // globally unique, assigned at creation
  std::uint32_t flow_id = 0;       // application flow identity
  std::uint32_t app_id = 0;        // sending application/process
  std::uint16_t vf_port = 0;       // SR-IOV virtual function of entry
  std::uint32_t wire_bytes = kMinFrameBytes;  // frame length incl. FCS
  std::uint64_t seq_in_flow = 0;
  FiveTuple tuple;

  ClassLabelId label = kUnclassified;

  /// Control-plane policy epoch the dispatching worker had cut over to when
  /// this packet entered its run-to-completion interval (src/ctrl staged
  /// rollout). 0 until a live reconfiguration has ever been staged.
  std::uint32_t policy_epoch = 0;

  SimTime created_at = 0;      // handed to the host NIC driver
  SimTime nic_arrival = 0;     // pulled by a micro-engine / qdisc enqueue
  SimTime dispatched_at = -1;  // start of the worker's run-to-completion
                               // interval; -1 until dispatched. A watchdog
                               // retry overwrites it (last dispatch wins).
  sim::SimDuration service_busy = 0;  // busy interval of that dispatch
  SimTime tx_enqueue = 0;      // accepted into the Tx FIFO
  SimTime wire_tx_done = 0;    // last bit on the wire
  SimTime delivered_at = 0;    // observed at the receiver (incl. pipeline constants)

  /// Wire occupancy of this frame (frame + preamble + IFG).
  std::uint32_t wire_occupancy_bytes() const { return wire_bytes + kEthernetOverheadBytes; }
};

/// Line rate in packets/s for a fixed frame size. 40GbE @64B → ~59.52 Mpps.
double line_rate_pps(sim::Rate line_rate, std::uint32_t frame_bytes);

}  // namespace flowvalve::net

template <>
struct std::hash<flowvalve::net::FiveTuple> {
  std::size_t operator()(const flowvalve::net::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.hash());
  }
};
