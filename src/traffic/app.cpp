#include "traffic/app.h"

namespace flowvalve::traffic {

AppProcess::AppProcess(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                       AppConfig config, sim::Rng rng)
    : sim_(sim), router_(router), ids_(ids), config_(std::move(config)), rng_(rng) {
  for (unsigned i = 0; i < config_.num_connections; ++i)
    flows_.push_back(make_flow(i));
}

std::unique_ptr<TcpAimdFlow> AppProcess::make_flow(unsigned index) {
  FlowSpec spec;
  spec.flow_id = ids_.next_flow_id();
  spec.app_id = config_.app_id;
  spec.vf_port = config_.vf_port;
  spec.wire_bytes = config_.wire_bytes;
  spec.tuple.src_ip = config_.src_ip;
  spec.tuple.dst_ip = config_.dst_ip;
  spec.tuple.src_port = static_cast<std::uint16_t>(config_.src_port_base + index);
  spec.tuple.dst_port = config_.dst_port;
  spec.tuple.proto = net::IpProto::kTcp;
  return std::make_unique<TcpAimdFlow>(sim_, router_, ids_, spec, config_.tcp,
                                       rng_.split(index + 1));
}

void AppProcess::start() {
  active_ = true;
  for (auto& f : flows_) f->start();
}

void AppProcess::stop() {
  active_ = false;
  for (auto& f : flows_) f->stop();
}

void AppProcess::run_between(SimTime start_at, SimTime stop_at) {
  sim_.schedule_at(start_at, [this] { start(); });
  sim_.schedule_at(stop_at, [this] { stop(); });
}

void AppProcess::set_connections(unsigned n) {
  while (flows_.size() > n) flows_.pop_back();  // dtor stops + unregisters
  while (flows_.size() < n) {
    auto flow = make_flow(static_cast<unsigned>(flows_.size()));
    if (active_) flow->start();
    flows_.push_back(std::move(flow));
  }
}

std::uint64_t AppProcess::packets_sent() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) n += f->packets_sent();
  return n;
}

std::uint64_t AppProcess::packets_lost() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) n += f->packets_lost();
  return n;
}

}  // namespace flowvalve::traffic
