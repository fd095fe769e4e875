#include "core/flowvalve.h"

#include <cassert>

namespace flowvalve::core {

FlowValveEngine::FlowValveEngine() : FlowValveEngine(Options{}) {}

FlowValveEngine::FlowValveEngine(Options options)
    : options_(options),
      frontend_(options.params, options.emc) {}

std::string FlowValveEngine::configure(std::string_view fv_script, sim::SimTime now) {
  frontend_.apply_script(fv_script);
  if (auto err = frontend_.finalize(now); !err.empty()) return err;
  sched_ = make_backend(options_.backend, frontend_.tree(), frontend_.labels(),
                        options_.lock_hold_ns);
  return {};
}

SchedulingFunction& FlowValveEngine::scheduler() {
  assert(ready() && sched_->kind() == BackendKind::kFlowValve &&
         "scheduler() is only valid under the FlowValve backend");
  return static_cast<SchedulingFunction&>(*sched_);
}

FlowValveEngine::Result FlowValveEngine::process(net::Packet& pkt, sim::SimTime now) {
  assert(ready() && "configure() the engine first");
  const Classifier::Result c =
      frontend_.classifier().classify(pkt, static_cast<std::uint64_t>(now));
  Result r;
  r.cycles = c.cycles;
  r.cache_hit = c.cache_hit;
  pkt.label = c.label;
  if (pkt.label == net::kUnclassified) {
    // No filter matched and no default class configured: drop, as the
    // NIC has no class whose budget could account for this packet.
    r.verdict = Verdict::kDrop;
  } else {
    const SchedDecision d = sched_->schedule(pkt, now);
    r.cycles += d.cycles;
    r.verdict = d.verdict;
    r.borrowed = d.borrowed;
  }
  if (process_observer_) process_observer_(pkt, r, now);
  return r;
}

}  // namespace flowvalve::core
