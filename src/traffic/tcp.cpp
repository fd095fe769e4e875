#include "traffic/tcp.h"

#include <algorithm>

namespace flowvalve::traffic {

// ----------------------------------------------------------- TcpAimdFlow --

TcpAimdFlow::TcpAimdFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                         FlowSpec spec, TcpAimdConfig config, sim::Rng rng)
    : PacedSender(sim, router, ids, {spec}, rng),
      config_(config),
      rate_(config.start_rate) {}

void TcpAimdFlow::on_start() {
  rate_ = config_.start_rate;
  losses_this_rtt_ = 0;
  rtt_timer_ = std::make_unique<sim::PeriodicTimer>(sim_, config_.rtt, [this] { rtt_tick(); });
  rtt_timer_->start();
  send_now();
}

// Paced inter-packet gap at the current rate, with a little jitter so
// competing flows do not phase-lock.
SimDuration TcpAimdFlow::next_gap() {
  return jittered_gap(frame_time_ns(spec().wire_bytes, rate_), config_.pacing_jitter);
}

void TcpAimdFlow::rtt_tick() {
  if (losses_this_rtt_ > 0) {
    rate_ = std::max(config_.min_rate, rate_ * config_.md_factor);
  } else {
    rate_ = std::min(config_.max_rate, rate_ + config_.additive_increase);
  }
  losses_this_rtt_ = 0;
}

// ----------------------------------------------------------- TcpRenoFlow --

TcpRenoFlow::TcpRenoFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                         FlowSpec spec, TcpRenoConfig config)
    : sim_(sim),
      router_(router),
      ids_(ids),
      spec_(spec),
      config_(config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.ssthresh) {
  router_.register_flow(spec_.flow_id, this);
}

TcpRenoFlow::~TcpRenoFlow() {
  stop();
  router_.unregister_flow(spec_.flow_id);
}

void TcpRenoFlow::start() {
  if (active_) return;
  active_ = true;
  started_at_ = sim_.now();
  try_send();
}

void TcpRenoFlow::stop() { active_ = false; }

void TcpRenoFlow::try_send() {
  while (active_ && static_cast<double>(inflight_) < cwnd_) {
    net::Packet pkt = make_packet(spec_, ids_, sim_.now(), seq_++);
    ++inflight_;
    router_.device().submit(std::move(pkt));
  }
}

void TcpRenoFlow::on_delivered(const net::Packet& pkt) {
  if (inflight_ > 0) --inflight_;
  ++delivered_;
  delivered_bytes_ += pkt.wire_bytes;
  if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(config_.max_cwnd, cwnd_ + 1.0);  // slow start
  } else {
    cwnd_ = std::min(config_.max_cwnd, cwnd_ + 1.0 / cwnd_);  // CA
  }
  // The ack arrives rtt after transmission; model the ack clock by delaying
  // the window refill half an RTT past delivery (delivery already includes
  // the forward path).
  sim_.schedule_after(config_.rtt / 2, [this] { try_send(); });
}

void TcpRenoFlow::on_dropped(const net::Packet& pkt) {
  if (inflight_ > 0) --inflight_;
  ++lost_;
  if (pkt.seq_in_flow >= recovery_end_seq_) {
    // Fast recovery: halve once per window of data.
    ssthresh_ = std::max(2.0, cwnd_ / 2.0);
    cwnd_ = ssthresh_;
    recovery_end_seq_ = seq_;
  }
  // Retransmission slot opens after an RTO-ish delay.
  sim_.schedule_after(config_.rto, [this] { try_send(); });
}

Rate TcpRenoFlow::goodput(SimTime now) const {
  const SimDuration elapsed = now - started_at_;
  if (elapsed <= 0) return Rate::zero();
  return Rate::bits_per_sec(static_cast<double>(delivered_bytes_) * 8e9 /
                            static_cast<double>(elapsed));
}

}  // namespace flowvalve::traffic
