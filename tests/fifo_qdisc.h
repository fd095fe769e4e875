// Tail-drop FIFO (pfifo): the plain root qdisc the KernelHost tests put
// behind the host model when the discipline itself is not under test.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "baseline/qdisc.h"

namespace flowvalve::baseline {

class FifoQdisc final : public Qdisc {
 public:
  explicit FifoQdisc(std::size_t limit_packets) : limit_(limit_packets) {}

  bool enqueue(net::Packet pkt, SimTime) override {
    if (q_.size() >= limit_) {
      ++drops_;
      return false;
    }
    q_.push_back(std::move(pkt));
    return true;
  }

  std::optional<net::Packet> dequeue(SimTime) override {
    if (q_.empty()) return std::nullopt;
    net::Packet pkt = std::move(q_.front());
    q_.pop_front();
    return pkt;
  }

  SimTime next_event(SimTime now) override {
    return q_.empty() ? sim::kSimTimeMax : now;
  }

  std::uint64_t drops() const { return drops_; }

 private:
  std::size_t limit_;
  std::deque<net::Packet> q_;
  std::uint64_t drops_ = 0;
};

}  // namespace flowvalve::baseline
