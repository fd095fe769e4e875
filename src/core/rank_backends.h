// Rank-program scheduling backends behind FlowValve's contention structure.
//
// PIFO-style disciplines compute a rank at enqueue and release packets in
// rank order — but they assume queue hardware that can insert anywhere,
// which the paper argues shipping NPs don't have. These backends re-express
// the rank programs as *valves*: the rank a PIFO would insert at becomes an
// admission test, so the discipline still decides who gets the wire while
// the data path stays never-queueing (drop-or-forward, Tx FIFO unchanged).
//
// Shared discipline (STFQ, the canonical PIFO program): a global virtual
// time V advances at the link rate; each leaf keeps a virtual finish tag
// that a forwarded packet pushes forward by wire_bytes / w, where the
// weight w = θ_leaf / θ_root is read live from the scheduling tree — the
// same try-lock update machinery (and therefore the same ctrl-plane epoch
// rollout) that feeds FlowValve's buckets feeds these weights. A packet is
// admitted while its start tag leads V by at most the class's burst
// allowance (the analogue of FlowValve's bucket depth); a saturated class
// therefore forwards at w · link — the same weighted-fair share HTB and
// FlowValve converge to, which is what lets the differential oracle run
// unchanged across backends.
//
//   StfqBackend    exact start-time ranks (PIFO/STFQ valve)
//   EiffelBackend  + an Eiffel FFS bucket-queue calendar tracking admitted
//                    packets by quantized finish tag (bounded rank horizon)
//
// SP-PIFO is deliberately absent: it approximates a PIFO *queue* with
// strict-priority FIFOs, and a valve has no queue for its bands to order,
// so its admission would be exactly StfqBackend's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bucket_queue.h"
#include "core/scheduler_backend.h"

namespace flowvalve::core {

class StfqBackend : public SchedulerBackend {
 public:
  StfqBackend(SchedulingTree& tree, const LabelTable& labels,
              sim::SimDuration lock_hold_ns);

  BackendKind kind() const override { return BackendKind::kStfq; }
  SchedDecision schedule(net::Packet& pkt, sim::SimTime now) override;

 protected:
  /// Admission state for one packet, computed by the shared STFQ prologue.
  struct RankView {
    ClassId leaf = kNoClass;
    double weight = 0.0;        // θ_leaf / θ_root, live
    double start = 0.0;         // max(V, finish[leaf]), virtual bytes
    double deficit_bytes = 0.0; // (start − V) · w: credit consumed ahead of V
    double lead_bytes = 0.0;    // burst allowance (bucket-depth analogue)
  };

  /// Advance V to `now` and rank the packet's class. Returns false when the
  /// class has no live rate (θ == 0) — callers must drop.
  bool rank(const QosLabel& label, sim::SimTime now, RankView& rv);

  /// Forward epilogue: push the finish tag and book the forward. Returns
  /// the new finish tag (virtual bytes).
  double admit(net::Packet& pkt, const QosLabel& label, const RankView& rv,
               SchedDecision& d);

  double vtime_ = 0.0;              // global virtual time, virtual bytes
  sim::SimTime last_advance_ = 0;
  std::vector<double> finish_;      // per-class virtual finish tag
};

class EiffelBackend final : public StfqBackend {
 public:
  static constexpr std::size_t kWheelBuckets = 1024;

  EiffelBackend(SchedulingTree& tree, const LabelTable& labels,
                sim::SimDuration lock_hold_ns);

  BackendKind kind() const override { return BackendKind::kEiffel; }
  SchedDecision schedule(net::Packet& pkt, sim::SimTime now) override;

  /// Admitted-but-not-virtually-finished packets, by quantized finish tag.
  std::size_t calendar_backlog() const { return calendar_.size(); }

 private:
  std::size_t bucket_of(double virtual_bytes) const;
  void drain_calendar();
  void rebase_calendar();

  BucketQueue<ClassId> calendar_{kWheelBuckets};
  double cal_base_ = 0.0;   // virtual-byte origin of bucket 0
  double quantum_ = 0.0;    // virtual bytes per bucket (sized lazily)
};

}  // namespace flowvalve::core
