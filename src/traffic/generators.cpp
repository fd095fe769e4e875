#include "traffic/generators.h"

namespace flowvalve::traffic {

// -------------------------------------------------------------- CbrFlow --

CbrFlow::CbrFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
                 Rate rate, sim::Rng rng, double jitter_frac, unsigned clump)
    : PacedSender(sim, router, ids, {spec}, rng),
      rate_(rate),
      jitter_frac_(jitter_frac),
      clump_(clump < 1 ? 1 : clump) {}

void CbrFlow::fire() {
  for (unsigned i = 0; i < clump_; ++i) submit(spec());
}

SimDuration CbrFlow::next_gap() {
  return jittered_gap(frame_time_ns(std::uint64_t{clump_} * spec().wire_bytes, rate_),
                      jitter_frac_);
}

// ----------------------------------------------------------- PoissonFlow --

PoissonFlow::PoissonFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                         FlowSpec spec, Rate mean_rate, sim::Rng rng)
    : PacedSender(sim, router, ids, {spec}, rng), mean_rate_(mean_rate) {}

SimDuration PoissonFlow::next_gap() {
  return whole_gap(rng_.exponential(frame_time_ns(spec().wire_bytes, mean_rate_)));
}

// ------------------------------------------------------------- OnOffFlow --

OnOffFlow::OnOffFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids,
                     FlowSpec spec, Rate burst_rate, SimDuration mean_on,
                     SimDuration mean_off, sim::Rng rng)
    : PacedSender(sim, router, ids, {spec}, rng),
      burst_rate_(burst_rate),
      mean_on_(mean_on),
      mean_off_(mean_off) {}

SimDuration OnOffFlow::next_gap() {
  return whole_gap(frame_time_ns(spec().wire_bytes, burst_rate_));
}

void OnOffFlow::on_start() {
  on_ = true;
  send_now();
  toggle();
}

void OnOffFlow::toggle() {
  const double mean = static_cast<double>(on_ ? mean_on_ : mean_off_);
  toggle_event_ = sim_.schedule_after(whole_gap(rng_.exponential(mean)), [this] {
    on_ = !on_;
    if (on_) {
      send_now();
    } else {
      pause();
    }
    toggle();
  });
}

}  // namespace flowvalve::traffic
