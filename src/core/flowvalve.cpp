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
  BatchEntry entry{&pkt, {}};
  process_batch(&entry, 1, now);
  return entry.result;
}

void FlowValveEngine::process_batch(BatchEntry* entries, std::size_t n,
                                    sim::SimTime now) {
  assert(ready() && "configure() the engine first");
  Classifier& cls = frontend_.classifier();
  batch_groups_.clear();

  for (std::size_t i = 0; i < n; ++i) {
    net::Packet& pkt = *entries[i].pkt;
    Result r;

    FlowGroup* group = nullptr;
    for (FlowGroup& g : batch_groups_) {
      if (g.vf == pkt.vf_port && g.tuple == pkt.tuple) {
        group = &g;
        break;
      }
    }
    Classifier::Result c;
    if (group != nullptr && cls.repeat_would_hit(group->first) &&
        cls.cache().mutation_stamp() == group->stamp_after) {
      c = cls.classify_repeat(group->first, static_cast<std::uint64_t>(now));
    } else {
      c = cls.classify(pkt, static_cast<std::uint64_t>(now));
      if (group != nullptr) {
        group->first = c;
        group->stamp_after = cls.cache().mutation_stamp();
      } else {
        batch_groups_.push_back(
            {pkt.vf_port, pkt.tuple, c, cls.cache().mutation_stamp()});
      }
    }
    r.cycles += c.cycles;
    r.cache_hit = c.cache_hit;
    pkt.label = c.label;

    if (pkt.label == net::kUnclassified) {
      // No filter matched and no default class configured: drop, as the
      // NIC has no class whose budget could account for this packet.
      r.verdict = Verdict::kDrop;
      entries[i].result = r;
      if (process_observer_) process_observer_(pkt, r, now);
      continue;
    }

    const SchedDecision d = sched_->schedule(pkt, now);
    r.cycles += d.cycles;
    r.verdict = d.verdict;
    r.borrowed = d.borrowed;
    entries[i].result = r;
    if (process_observer_) process_observer_(pkt, r, now);
  }
}

}  // namespace flowvalve::core
