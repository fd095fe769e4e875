// TCP traffic models.
//
// TcpAimdFlow — a paced, rate-based AIMD sender modeling the mTCP-coupled
// analyzer the paper uses for its 40G experiments: it probes for bandwidth
// additively every RTT and backs off multiplicatively on loss. Rate-based
// pacing keeps the offered load smooth, which is also how mTCP+DPDK senders
// behave (no kernel burst coalescing).
//
// TcpRenoFlow — a window-based NewReno-style sender (slow start, congestion
// avoidance, fast recovery) for tests that need genuine ack-clocked
// dynamics. No bench or scenario builds one, yet it stays: the paper drove
// its hosts with iperf3, a window-based sender, and the two
// test_integration_reno cases are the only check that FlowValve's shares
// hold under ack clocking rather than the rate-paced TcpAimdFlow.
#pragma once

#include <memory>

#include "traffic/paced_sender.h"

namespace flowvalve::traffic {

struct TcpAimdConfig {
  Rate start_rate = Rate::megabits_per_sec(50);
  Rate min_rate = Rate::megabits_per_sec(10);
  Rate max_rate = Rate::gigabits_per_sec(100);  // line-rate cap
  SimDuration rtt = sim::milliseconds(2);
  /// Additive increase per RTT.
  Rate additive_increase = Rate::megabits_per_sec(100);
  /// Multiplicative decrease factor on a lossy RTT.
  double md_factor = 0.8;
  /// Pacing jitter fraction (desynchronizes competing flows).
  double pacing_jitter = 0.05;
};

class TcpAimdFlow final : public PacedSender {
 public:
  TcpAimdFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
              TcpAimdConfig config, sim::Rng rng);

  Rate current_rate() const { return rate_; }

  void on_dropped(const net::Packet& pkt) override {
    PacedSender::on_dropped(pkt);
    ++losses_this_rtt_;
  }

 private:
  SimDuration next_gap() override;
  void on_start() override;
  void on_stop() override { rtt_timer_.reset(); }
  void rtt_tick();

  TcpAimdConfig config_;
  Rate rate_;
  std::uint64_t losses_this_rtt_ = 0;
  std::unique_ptr<sim::PeriodicTimer> rtt_timer_;
};

struct TcpRenoConfig {
  double initial_cwnd = 2.0;   // packets
  double ssthresh = 64.0;      // packets
  double max_cwnd = 4096.0;
  SimDuration rtt = sim::milliseconds(2);
  SimDuration rto = sim::milliseconds(40);
};

class TcpRenoFlow final : public TrafficSource {
 public:
  TcpRenoFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
              TcpRenoConfig config);
  ~TcpRenoFlow() override;

  void start() override;
  void stop() override;

  double cwnd() const { return cwnd_; }
  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_lost() const { return lost_; }
  Rate goodput(SimTime now) const;

  void on_delivered(const net::Packet& pkt) override;
  void on_dropped(const net::Packet& pkt) override;

 private:
  void try_send();

  sim::Simulator& sim_;
  FlowRouter& router_;
  IdAllocator& ids_;
  FlowSpec spec_;
  TcpRenoConfig config_;

  bool active_ = false;
  double cwnd_;
  double ssthresh_;
  std::uint64_t inflight_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t recovery_end_seq_ = 0;  // one MD per window
  std::uint64_t delivered_bytes_ = 0;
  SimTime started_at_ = 0;
};

}  // namespace flowvalve::traffic
