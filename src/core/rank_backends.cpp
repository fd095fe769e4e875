#include "core/rank_backends.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/scheduling_function.h"

namespace flowvalve::core {

// ---------------------------------------------------------------------------
// StfqBackend
// ---------------------------------------------------------------------------

StfqBackend::StfqBackend(SchedulingTree& tree, const LabelTable& labels,
                         sim::SimDuration lock_hold_ns)
    : SchedulerBackend(tree, labels, lock_hold_ns), finish_(tree.size(), 0.0) {}

bool StfqBackend::rank(const QosLabel& label, sim::SimTime now,
                       RankView& rv) {
  // V advances at the link (root θ) rate in real time: with normalized
  // weights summing to ~1 over active classes, total admission tracks the
  // wire and the valve stays work-conserving.
  const Rate link = tree_.at(tree_.root()).theta;
  if (now > last_advance_) {
    vtime_ += static_cast<double>(now - last_advance_) * link.bytes_per_ns();
    last_advance_ = now;
  }

  rv.leaf = label.path.back();
  const SchedClass& leaf = tree_.at(rv.leaf);
  if (link.is_zero() || leaf.theta.is_zero()) return false;
  rv.weight = leaf.theta / link;

  // STFQ: start tag = max(virtual time, the class's last finish tag); the
  // finish tag advances by the packet's weighted length (rank_backends.h).
  rv.start = std::max(vtime_, finish_[rv.leaf]);
  rv.deficit_bytes = (rv.start - vtime_) * rv.weight;

  // Burst allowance mirrors FlowValve's bucket sizing: a time window at the
  // class's current rate, floored at two frames.
  rv.lead_bytes = std::max(leaf.theta.bytes_in(tree_.params().burst_window),
                           tree_.params().min_burst_bytes);
  return true;
}

double StfqBackend::admit(net::Packet& pkt, const QosLabel& label,
                          const RankView& rv, SchedDecision& d) {
  const std::uint32_t charge = pkt.wire_occupancy_bytes();
  const double fin = rv.start + static_cast<double>(charge) / rv.weight;
  finish_[rv.leaf] = fin;
  d.verdict = Verdict::kForward;
  tree_.count_forwarded(label.path, charge);
  ++stats_.forwarded;
  ++stats_.rank_admissions;
  return fin;
}

SchedDecision StfqBackend::schedule(net::Packet& pkt, sim::SimTime now) {
  SchedDecision d;
  assert(pkt.label != net::kUnclassified && "packet must be labeled first");
  const QosLabel& label = labels_.get(pkt.label);
  assert(!label.path.empty());

  walk_path(label, pkt, now, d);

  RankView rv;
  d.cycles += kMeterCycles;  // rank computation + admission compare
  if (rank(label, now, rv) && rv.deficit_bytes <= rv.lead_bytes) {
    admit(pkt, label, rv, d);
    return d;
  }
  ++stats_.rank_lead_drops;
  book_drop(label.path.back(), pkt);
  return d;
}

// ---------------------------------------------------------------------------
// EiffelBackend
// ---------------------------------------------------------------------------

EiffelBackend::EiffelBackend(SchedulingTree& tree, const LabelTable& labels,
                             sim::SimDuration lock_hold_ns)
    : StfqBackend(tree, labels, lock_hold_ns) {}

std::size_t EiffelBackend::bucket_of(double virtual_bytes) const {
  const double rel = (virtual_bytes - cal_base_) / quantum_;
  return rel <= 0.0 ? 0 : static_cast<std::size_t>(rel);
}

void EiffelBackend::drain_calendar() {
  // Entries whose finish tag V has passed have received their virtual
  // service; two FFS probes per pop (Eiffel's find-min).
  const std::size_t vbucket = bucket_of(vtime_);
  while (auto min = calendar_.min_rank()) {
    if (*min >= vbucket) break;
    calendar_.pop_min();
  }
}

void EiffelBackend::rebase_calendar() {
  // Shift the wheel origin up to V, preserving relative order: pop the
  // survivors in rank order and reinsert them shifted.
  const std::size_t shift = bucket_of(vtime_);
  std::vector<std::pair<std::size_t, ClassId>> survivors;
  survivors.reserve(calendar_.size());
  while (auto min = calendar_.min_rank()) {
    survivors.emplace_back(*min - std::min(*min, shift), *calendar_.pop_min());
  }
  for (const auto& [rank, leaf] : survivors) calendar_.push(rank, leaf);
  cal_base_ += static_cast<double>(shift) * quantum_;
  ++stats_.calendar_rebases;
}

SchedDecision EiffelBackend::schedule(net::Packet& pkt, sim::SimTime now) {
  SchedDecision d;
  assert(pkt.label != net::kUnclassified && "packet must be labeled first");
  const QosLabel& label = labels_.get(pkt.label);
  assert(!label.path.empty());

  walk_path(label, pkt, now, d);

  RankView rv;
  d.cycles += kMeterCycles;
  const bool rankable = rank(label, now, rv);

  // Size the wheel on first use: span ≈ 8 burst windows at link rate, so a
  // class's legitimate lead (≤ ~1 burst window at link rate) always fits
  // with headroom for the half-wheel rebase hysteresis.
  if (quantum_ == 0.0) {
    const Rate link = tree_.at(tree_.root()).theta;
    quantum_ = std::max(
        64.0, link.bytes_in(tree_.params().burst_window) * 8.0 /
                  static_cast<double>(kWheelBuckets));
    cal_base_ = vtime_;
  }
  if (bucket_of(vtime_) >= kWheelBuckets / 2) rebase_calendar();
  d.cycles += kCountCycles;  // calendar probe/insert
  drain_calendar();

  if (!rankable || rv.deficit_bytes > rv.lead_bytes) {
    ++stats_.rank_lead_drops;
    book_drop(label.path.back(), pkt);
    return d;
  }

  // Eiffel's bounded integer-rank horizon: a finish tag beyond the wheel
  // cannot be represented, so the packet is dropped rather than aliased
  // into a wrong bucket (the never-queueing analogue of Eiffel's overflow
  // saturation).
  const double fin =
      rv.start + static_cast<double>(pkt.wire_occupancy_bytes()) / rv.weight;
  const std::size_t idx = bucket_of(fin);
  if (idx >= kWheelBuckets) {
    ++stats_.rank_horizon_drops;
    book_drop(label.path.back(), pkt);
    return d;
  }

  admit(pkt, label, rv, d);
  calendar_.push(idx, rv.leaf);
  return d;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<SchedulerBackend> make_backend(BackendKind kind,
                                               SchedulingTree& tree,
                                               const LabelTable& labels,
                                               sim::SimDuration lock_hold_ns) {
  switch (kind) {
    case BackendKind::kFlowValve:
      return std::make_unique<SchedulingFunction>(tree, labels, lock_hold_ns);
    case BackendKind::kStfq:
      return std::make_unique<StfqBackend>(tree, labels, lock_hold_ns);
    case BackendKind::kEiffel:
      return std::make_unique<EiffelBackend>(tree, labels, lock_hold_ns);
  }
  return nullptr;
}

}  // namespace flowvalve::core
