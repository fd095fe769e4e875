// Queueing-discipline interface for the kernel baseline models (paper §II-A,
// §III-A): classful schedulers that queue packets *before* scheduling —
// exactly the structure FlowValve inverts.
#pragma once

#include <optional>

#include "net/packet.h"
#include "sim/time.h"

namespace flowvalve::baseline {

using sim::Rate;
using sim::SimDuration;
using sim::SimTime;

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Enqueue; returns false if the packet was dropped (queue limit).
  virtual bool enqueue(net::Packet pkt, SimTime now) = 0;

  /// Pop the next packet the discipline is willing to release at `now`
  /// (shapers return nullopt while throttled even if backlogged).
  virtual std::optional<net::Packet> dequeue(SimTime now) = 0;

  /// Earliest time a dequeue might succeed when currently throttled;
  /// kSimTimeMax when empty, `now` when a packet is ready.
  virtual SimTime next_event(SimTime now) = 0;
};

}  // namespace flowvalve::baseline
