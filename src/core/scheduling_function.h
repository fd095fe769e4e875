// The FlowValve scheduling function — paper Algorithm 1 — as the default
// SchedulerBackend.
//
// Executed by every (virtual) micro-engine for every packet after labeling:
// walk the hierarchy class label root→leaf, try-locking each class to run
// the update subprocedure (losers only meter — Fig. 8), meter at the leaf,
// and on RED walk the borrowing class label's shadow buckets. The function
// never queues a packet: the decision is FORWARD (into the shared Tx FIFO)
// or DROP (the "specialized tail drop" that assigns buffers conceptually).
//
// The walk/try-lock/commit scaffolding lives in SchedulerBackend (shared
// with the rank backends in rank_backends.h); this class adds what is
// FlowValve-specific — leaf metering and shadow-bucket borrowing.
#pragma once

#include <cstdint>

#include "core/scheduler_backend.h"

namespace flowvalve::core {

class SchedulingFunction final : public SchedulerBackend {
 public:
  SchedulingFunction(SchedulingTree& tree, const LabelTable& labels,
                     sim::SimDuration lock_hold_ns);

  BackendKind kind() const override { return BackendKind::kFlowValve; }

  /// Algorithm 1. `now` is the virtual time at which the worker core runs.
  SchedDecision schedule(net::Packet& pkt, sim::SimTime now) override;
};

}  // namespace flowvalve::core
