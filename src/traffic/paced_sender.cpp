#include "traffic/paced_sender.h"

#include <utility>

namespace flowvalve::traffic {

PacedSender::PacedSender(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                         std::vector<FlowSpec> flows, sim::Rng rng)
    : sim_(sim), rng_(rng), router_(router), ids_(ids), flows_(std::move(flows)) {
  for (const FlowSpec& flow : flows_) router_.register_flow(flow.flow_id, this);
}

PacedSender::~PacedSender() {
  send_event_.cancel();
  for (const FlowSpec& flow : flows_) router_.unregister_flow(flow.flow_id);
}

void PacedSender::start() {
  if (active_) return;
  active_ = true;
  on_start();
}

void PacedSender::stop() {
  active_ = false;
  send_event_.cancel();
  on_stop();
}

SimDuration PacedSender::jittered_gap(double ns, double frac) {
  if (frac != 0.0) ns *= 1.0 + frac * (rng_.next_double() - 0.5);
  return whole_gap(ns);
}

void PacedSender::submit(const FlowSpec& flow) {
  ++sent_;
  router_.device().submit(make_packet(flow, ids_, sim_.now(), seq_++));
}

void PacedSender::send_now() {
  send_event_.cancel();
  send_next();
}

void PacedSender::send_next() {
  fire();
  send_event_ = sim_.schedule_after(next_gap(), [this] { send_next(); });
}

}  // namespace flowvalve::traffic
