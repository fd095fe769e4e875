#include "traffic/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "traffic/paced_sender.h"

namespace flowvalve::traffic {

FlowSizeDistribution::FlowSizeDistribution(double alpha, std::uint64_t min_bytes,
                                           std::uint64_t max_bytes)
    : alpha_(alpha), lo_(static_cast<double>(min_bytes)), hi_(static_cast<double>(max_bytes)) {
  assert(alpha > 0.0 && min_bytes > 0 && max_bytes > min_bytes);
}

std::uint64_t FlowSizeDistribution::sample(sim::Rng& rng) const {
  // Bounded Pareto inverse-CDF sampling.
  const double u = std::max(rng.next_double(), 1e-12);
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
  return static_cast<std::uint64_t>(std::clamp(x, lo_, hi_));
}

double FlowSizeDistribution::mean_bytes() const {
  if (std::abs(alpha_ - 1.0) < 1e-9) {
    // α → 1 limit of the bounded Pareto mean.
    return lo_ * hi_ / (hi_ - lo_) * std::log(hi_ / lo_);
  }
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return la / (1.0 - la / ha) * (alpha_ / (alpha_ - 1.0)) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) - 1.0 / std::pow(hi_, alpha_ - 1.0));
}

DatacenterWorkload::DatacenterWorkload(sim::Simulator& sim, FlowRouter& router,
                                       IdAllocator& ids, DatacenterWorkloadConfig config,
                                       sim::Rng rng)
    : sim_(sim), router_(router), ids_(ids), config_(config), rng_(rng) {}

DatacenterWorkload::~DatacenterWorkload() { stop(); }

void DatacenterWorkload::start() {
  if (active_flag_) return;
  active_flag_ = true;
  arm_arrival();
}

void DatacenterWorkload::stop() {
  active_flag_ = false;
  arrival_event_.cancel();
  for (auto& f : active_) {
    f.next_send.cancel();
    router_.unregister_flow(f.spec.flow_id);
  }
  active_.clear();
}

void DatacenterWorkload::arm_arrival() {
  const double mean_gap_ns = 1e9 / config_.flows_per_sec;
  arrival_event_ = sim_.schedule_after(whole_gap(rng_.exponential(mean_gap_ns)), [this] {
    if (!active_flag_) return;
    spawn_flow();
    arm_arrival();
  });
}

void DatacenterWorkload::spawn_flow() {
  LiveFlow f;
  f.spec.flow_id = ids_.next_flow_id();
  f.spec.app_id = config_.app_id;
  f.spec.vf_port = config_.vf_port;
  f.spec.wire_bytes = config_.wire_bytes;
  f.spec.tuple.src_ip = 0x0a010000u + static_cast<std::uint32_t>(rng_.next_below(65536));
  f.spec.tuple.dst_ip = 0x0a000002;
  f.spec.tuple.src_port = next_port_++;
  f.spec.tuple.dst_port = 80;
  f.remaining_bytes = config_.sizes.sample(rng_);
  largest_flow_ = std::max(largest_flow_, f.remaining_bytes);
  router_.register_flow(f.spec.flow_id, this);
  ++flows_started_;
  active_.push_front(std::move(f));
  send_from(active_.begin());
}

void DatacenterWorkload::send_from(std::list<LiveFlow>::iterator it) {
  if (!active_flag_) return;
  LiveFlow& f = *it;
  net::Packet pkt = make_packet(f.spec, ids_, sim_.now(), f.seq++);
  const std::uint64_t payload = std::min<std::uint64_t>(f.remaining_bytes, pkt.wire_bytes);
  ++packets_sent_;
  bytes_sent_ += payload;
  router_.device().submit(std::move(pkt));
  if (f.remaining_bytes <= payload) {
    router_.unregister_flow(f.spec.flow_id);
    active_.erase(it);
    ++flows_completed_;
    return;
  }
  f.remaining_bytes -= payload;
  f.next_send =
      sim_.schedule_after(whole_gap(frame_time_ns(f.spec.wire_bytes, config_.flow_rate)),
                          [this, it] { send_from(it); });
}

}  // namespace flowvalve::traffic
