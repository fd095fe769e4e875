#include "core/scheduling_function.h"

#include <cassert>

namespace flowvalve::core {

SchedulingFunction::SchedulingFunction(SchedulingTree& tree, const LabelTable& labels,
                                       sim::SimDuration lock_hold_ns)
    : SchedulerBackend(tree, labels, lock_hold_ns) {}

SchedDecision SchedulingFunction::schedule(net::Packet& pkt, sim::SimTime now) {
  SchedDecision d;
  assert(pkt.label != net::kUnclassified && "packet must be labeled first");
  const QosLabel& label = labels_.get(pkt.label);
  assert(!label.path.empty());

  // Lines 1-5: activity touch + update walk (shared contention structure).
  walk_path(label, pkt, now, d);

  // Lines 6-8: meter at the leaf. Tokens are charged for full wire
  // occupancy (frame + preamble + IFG): an on-NIC scheduler meters what the
  // wire actually serializes, which is what keeps the Tx FIFO shallow.
  const ClassId leaf = label.path.back();
  const std::uint32_t charge = pkt.wire_occupancy_bytes();
  d.cycles += kMeterCycles;
  if (tree_.at(leaf).bucket.meter(charge) == MeterColor::kGreen) {
    d.verdict = Verdict::kForward;
    tree_.count_forwarded(label.path, charge);
    ++stats_.forwarded;
    return d;
  }

  // Lines 9-15: borrowing — query each lender's shadow bucket, refreshing
  // the lender's epoch on the way (borrower-driven updates keep idle
  // lenders' lendable rates live).
  for (ClassId lender : label.borrow) {
    d.cycles += maybe_update(lender, now, pkt.policy_epoch);
    d.cycles += kBorrowQueryCycles;
    if (tree_.at(lender).shadow.meter(charge) == MeterColor::kGreen) {
      d.verdict = Verdict::kForward;
      d.borrowed = true;
      tree_.count_forwarded(label.path, charge);
      SchedClass& leaf_cls = tree_.at(leaf);
      ++leaf_cls.borrowed_packets;
      leaf_cls.borrowed_bytes += pkt.wire_bytes;
      ++stats_.forwarded;
      ++stats_.borrowed;
      return d;
    }
  }

  // Line 16: drop.
  d.verdict = Verdict::kDrop;
  book_drop(leaf, pkt);
  return d;
}

}  // namespace flowvalve::core
