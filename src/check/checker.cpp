#include "check/checker.h"

#include <sstream>

namespace flowvalve::check {

std::string Violation::to_string() const {
  std::ostringstream s;
  s << "[" << checker << "] t=" << at << "ns: " << detail;
  return s.str();
}

void ViolationSink::report(std::string_view checker, sim::SimTime at,
                           std::string detail) {
  ++total_;
  auto it = stored_per_checker_.find(checker);
  if (it == stored_per_checker_.end())
    it = stored_per_checker_.emplace(std::string(checker), 0).first;
  if (it->second < kCapPerChecker) {
    ++it->second;
    violations_.push_back({std::string(checker), at, std::move(detail)});
  }
}

CheckHarness::CheckHarness(sim::Simulator& sim, np::NicPipeline& pipeline,
                           core::FlowValveEngine* engine)
    : sim_(sim), pipeline_(pipeline), engine_(engine) {}

CheckHarness::~CheckHarness() {
  if (started_) pipeline_.set_observer(nullptr);
  if (engine_ && started_) engine_->set_process_observer(nullptr);
}

SystemView CheckHarness::view() const {
  return SystemView{&pipeline_, engine_, delivered_};
}

void CheckHarness::clock_went_backwards(sim::SimTime now) {
  sink_.report("virtual-time", now,
               "clock went backwards: observed " + std::to_string(now) +
                   " after " + std::to_string(last_event_time_));
}

void CheckHarness::start() {
  started_ = true;
  pipeline_.set_observer(this);
  if (engine_) {
    engine_->set_process_observer(
        [this](const net::Packet& pkt, const core::FlowValveEngine::Result& r,
               sim::SimTime now) { on_engine_result(pkt, r, now); });
  }
  epoch_timer_ = std::make_unique<sim::PeriodicTimer>(sim_, kEpoch, [this] {
    observe_clock(sim_.now());
    const SystemView v = view();
    for (auto& c : checkers_) c->on_epoch(v, sim_.now());
  });
  epoch_timer_->start();
}

void CheckHarness::stop_sampling() {
  if (epoch_timer_) epoch_timer_->stop();
}

void CheckHarness::finish() {
  if (finished_) return;
  finished_ = true;
  if (epoch_timer_) epoch_timer_->stop();
  const SystemView v = view();
  for (auto& c : checkers_) {
    c->on_epoch(v, sim_.now());
    c->on_finish(v, sim_.now());
  }
}

void CheckHarness::on_submit(const net::Packet& pkt, sim::SimTime now) {
  observe_clock(now);
  for (InvariantChecker* c : hooked_.submit) c->on_submit(pkt, now);
}

void CheckHarness::on_dispatch(const net::Packet& pkt, unsigned worker,
                               std::uint64_t seq, sim::SimTime now,
                               sim::SimDuration busy) {
  // `now` is the packet's logical start within its worker's burst window —
  // for the 2nd..Nth packet of a burst it runs AHEAD of the simulator
  // clock by design (the slices tile the busy interval). The kernel-
  // ordering probe must watch the real clock, not the logical one.
  observe_clock(sim_.now());
  for (InvariantChecker* c : hooked_.dispatch)
    c->on_dispatch(pkt, worker, seq, now, busy);
}

void CheckHarness::on_drop(const net::Packet& pkt, np::DropReason reason,
                           sim::SimTime now) {
  observe_clock(now);
  for (InvariantChecker* c : hooked_.drop) c->on_drop(pkt, reason, now);
}

void CheckHarness::on_wire_tx(const net::Packet& pkt, sim::SimTime now) {
  observe_clock(now);
  for (InvariantChecker* c : hooked_.wire_tx) c->on_wire_tx(pkt, now);
}

void CheckHarness::on_delivered(const net::Packet& pkt, sim::SimTime now) {
  observe_clock(now);
  ++delivered_;
  for (InvariantChecker* c : hooked_.delivered) c->on_delivered(pkt, now);
}

void CheckHarness::on_watchdog(const net::Packet& pkt, unsigned worker,
                               std::uint64_t seq, sim::SimTime now) {
  observe_clock(now);
  for (InvariantChecker* c : hooked_.watchdog)
    c->on_watchdog(pkt, worker, seq, now);
}

void CheckHarness::on_engine_result(const net::Packet& pkt,
                                    const core::FlowValveEngine::Result& result,
                                    sim::SimTime now) {
  observe_clock(now);
  for (InvariantChecker* c : hooked_.engine_result)
    c->on_engine_result(pkt, result, now);
}

}  // namespace flowvalve::check
