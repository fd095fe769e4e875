#include "core/scheduler_backend.h"

#include <cassert>

namespace flowvalve::core {

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kFlowValve: return "fv";
    case BackendKind::kStfq: return "stfq";
    case BackendKind::kEiffel: return "eiffel";
  }
  return "?";
}

bool parse_backend_kind(std::string_view name, BackendKind& out) {
  if (name == "fv" || name == "flowvalve") {
    out = BackendKind::kFlowValve;
  } else if (name == "stfq" || name == "pifo") {
    out = BackendKind::kStfq;
  } else if (name == "eiffel") {
    out = BackendKind::kEiffel;
  } else {
    return false;
  }
  return true;
}

SchedulerBackend::SchedulerBackend(SchedulingTree& tree,
                                   const LabelTable& labels,
                                   sim::SimDuration lock_hold_ns)
    : tree_(tree), labels_(labels), lock_hold_ns_(lock_hold_ns) {
  assert(tree.finalized() && "finalize() the tree before scheduling");
}

std::uint32_t SchedulerBackend::maybe_update(ClassId id, sim::SimTime now,
                                             std::uint32_t pkt_epoch) {
  SchedClass& c = tree_.at(id);
  std::uint32_t cycles = 0;
  const bool wants_commit = tree_.rollout_active() && c.has_staged &&
                            pkt_epoch >= tree_.staged_epoch();
  if (!wants_commit && now - c.last_update < tree_.params().update_interval) return cycles;
  cycles += kLockAttemptCycles;
  if (c.update_lock.try_acquire(now, lock_hold_ns_)) {
    if (wants_commit) {
      // A packet from a cut-over worker pulls the staged policy in under the
      // same lock the update subprocedure already takes (Fig. 8): no extra
      // synchronization, just kCommitCycles more inside the guarded section.
      tree_.commit_class(id, now);
      cycles += kCommitCycles;
      ++stats_.policy_commits;
    }
    tree_.update_class(id, now);
    cycles += kUpdateCycles;
    ++stats_.updates;
  } else {
    // Another core is updating this class right now; we only meter
    // (Fig. 8 — this does not compromise validity).
    ++stats_.lock_failures;
  }
  return cycles;
}

void SchedulerBackend::walk_path(const QosLabel& label, net::Packet& pkt,
                                 sim::SimTime now, SchedDecision& d) {
  // Record activity first: even packets that end up dropped represent
  // demand, which the expiry logic must see.
  tree_.touch(label.path, now);

  // Lines 1-5: walk the hierarchy class label, refreshing token buckets.
  for (ClassId id : label.path) {
    d.cycles += maybe_update(id, now, pkt.policy_epoch);
    d.cycles += kCountCycles;
  }
}

void SchedulerBackend::book_drop(ClassId leaf, const net::Packet& pkt) {
  SchedClass& leaf_cls = tree_.at(leaf);
  ++leaf_cls.drop_packets;
  leaf_cls.drop_bytes += pkt.wire_bytes;
  ++stats_.dropped;
}

}  // namespace flowvalve::core
