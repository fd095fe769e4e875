// Open-loop traffic generators: constant bit rate, Poisson and on/off
// bursts. The send loop itself is PacedSender's (traffic/paced_sender.h);
// each generator adds its gap law.
#pragma once

#include "traffic/paced_sender.h"

namespace flowvalve::traffic {

/// Constant-bit-rate sender (optionally jittered). Ignores loss feedback —
/// models UDP or a hardware packet generator. `clump` > 1 emits that many
/// back-to-back packets per timer firing with the inter-firing gap scaled
/// to keep the average rate — the arrival shape of a segmentation-offload
/// (TSO/GSO) host, where the NIC sees sender bursts, not paced singles.
class CbrFlow final : public PacedSender {
 public:
  CbrFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
          Rate rate, sim::Rng rng, double jitter_frac = 0.0, unsigned clump = 1);

  void set_rate(Rate rate) { rate_ = rate; }
  Rate rate() const { return rate_; }

 private:
  void fire() override;
  SimDuration next_gap() override;

  Rate rate_;
  double jitter_frac_;
  unsigned clump_;
};

/// Poisson arrivals at a mean rate.
class PoissonFlow final : public PacedSender {
 public:
  PoissonFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
              Rate mean_rate, sim::Rng rng);

 private:
  SimDuration next_gap() override;

  Rate mean_rate_;
};

/// Alternates exponentially-distributed ON bursts (at `burst_rate`) with OFF
/// gaps. Models bursty application traffic for failure-injection tests.
/// OFF cancels the pending send and ON fires at once, so the flow never
/// runs two send chains.
class OnOffFlow final : public PacedSender {
 public:
  OnOffFlow(sim::Simulator& sim, FlowRouter& router, IdAllocator& ids, FlowSpec spec,
            Rate burst_rate, SimDuration mean_on, SimDuration mean_off, sim::Rng rng);
  ~OnOffFlow() override { toggle_event_.cancel(); }

 private:
  SimDuration next_gap() override;
  void on_start() override;
  void on_stop() override { toggle_event_.cancel(); }
  void toggle();

  Rate burst_rate_;
  SimDuration mean_on_;
  SimDuration mean_off_;
  bool on_ = false;
  sim::EventHandle toggle_event_;
};

}  // namespace flowvalve::traffic
