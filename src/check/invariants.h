// The standard library of invariant checkers (paper-derived correctness
// properties). Each checker is independent and cheap enough to run on every
// fuzz scenario; together they cover:
//
//   conservation        submitted == wire + vf/scheduler/tx drops (+in
//                       flight while running, exactly 0 of it at drain)
//   ordering            per-VF FIFO delivery and per-flow sequence order
//                       through the reorder system (Fig. 4)
//   timestamps          packet lifecycle timestamps are monotone, the
//                       fixed pipeline delay is honored exactly, and no
//                       frame is reported on the wire or delivered early
//   wire-conformance    cumulative wire bytes never exceed line rate —
//                       the shared FIFO's drain is the paper's F0 budget
//   worker-exclusivity  run-to-completion busy intervals of one micro-
//                       engine never overlap; processed counts reconcile
//   tree-arithmetic     θ ∈ [0, ceil], per-priority-level sibling θ sums
//                       bounded by the parent budget (+ the level's
//                       guarantee reservations, which move between the
//                       siblings' staggered update instants), bucket levels
//                       within [0, capacity], lendable ≤ θ (Eq. 4-6)
//   ceil-conformance    per-leaf non-borrowed (own-bucket) bytes respect
//                       rate+burst over every prefix window (token-bucket
//                       conformance, Eq. 1)
//   cache-coherence     every EMC hit returns exactly the label a fresh
//                       rule walk would assign right now — across poison,
//                       label-epoch bumps, cuckoo kicks/evictions, and
//                       degraded-mode transitions — and the cuckoo table's
//                       occupancy books balance at every epoch
#pragma once

#include <memory>
#include <vector>

#include "check/checker.h"
#include "np/np_config.h"

namespace flowvalve::check {

/// All standard checkers, configured for a pipeline with `config`.
/// `engine` may be null; the cache-coherence checker (which needs to
/// replay rule walks against the live classifier) is only added when it
/// is provided.
std::vector<std::unique_ptr<InvariantChecker>> standard_checkers(
    const np::NpConfig& config, core::FlowValveEngine* engine = nullptr);

}  // namespace flowvalve::check
