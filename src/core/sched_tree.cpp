#include "core/sched_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace flowvalve::core {

SchedulingTree::SchedulingTree(FvParams params) : params_(params) {}

ClassId SchedulingTree::add_root(std::string name, Rate link_rate) {
  assert(nodes_.empty() && "root must be the first class");
  SchedClass c;
  c.name = std::move(name);
  c.id = 0;
  c.policy.ceil = link_rate;
  c.theta = link_rate;
  c.gamma_bps.set_half_life(params_.gamma_half_life);
  nodes_.push_back(std::move(c));
  return 0;
}

ClassId SchedulingTree::add_class(std::string name, ClassId parent, NodePolicy policy) {
  assert(!nodes_.empty() && "add_root first");
  assert(parent < nodes_.size());
  assert(policy.weight > 0.0);
  SchedClass c;
  c.name = std::move(name);
  c.id = static_cast<ClassId>(nodes_.size());
  c.parent = parent;
  c.policy = policy;
  c.gamma_bps.set_half_life(params_.gamma_half_life);
  nodes_[parent].children.push_back(c.id);
  nodes_.push_back(std::move(c));
  finalized_ = false;
  return static_cast<ClassId>(nodes_.size() - 1);
}

void SchedulingTree::finalize(sim::SimTime now) {
  // Depth-first depth assignment + static θ seeding so buckets are usable
  // before the first update epoch completes.
  for (auto& n : nodes_) {
    n.depth = 0;
    for (ClassId p = n.parent; p != kNoClass; p = nodes_[p].parent) ++n.depth;
  }
  // Seed θ top-down with the pure weighted share (guarantees honored as
  // minimums); the runtime templates refine this within a few epochs.
  std::vector<ClassId> order(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) order[i] = static_cast<ClassId>(i);
  std::sort(order.begin(), order.end(),
            [&](ClassId a, ClassId b) { return nodes_[a].depth < nodes_[b].depth; });
  for (ClassId id : order) {
    SchedClass& n = nodes_[id];
    if (!n.is_root()) {
      const SchedClass& p = nodes_[n.parent];
      const double wsum = sibling_weight_sum(p);
      Rate share = p.theta * (n.policy.weight / wsum);
      if (n.policy.has_guarantee() && n.policy.guarantee > share) share = n.policy.guarantee;
      if (share > n.policy.ceil) share = n.policy.ceil;
      n.theta = share;
    }
    n.lendable = n.theta;
    n.bucket.set_capacity(default_burst_bytes(n.theta, params_.burst_window, params_.min_burst_bytes));
    n.bucket.reset(n.bucket.capacity());
    n.shadow.set_capacity(default_burst_bytes(n.theta, params_.shadow_burst_window, params_.min_burst_bytes));
    n.shadow.reset(n.shadow.capacity());
    n.last_update = now;
  }
  finalized_ = true;
}

ClassId SchedulingTree::find(std::string_view name) const {
  for (const auto& n : nodes_)
    if (n.name == name) return n.id;
  return kNoClass;
}

QosLabel SchedulingTree::label_for(ClassId leaf, std::vector<ClassId> borrow) const {
  assert(leaf < nodes_.size());
  QosLabel label;
  for (ClassId c = leaf; c != kNoClass; c = nodes_[c].parent) label.path.push_back(c);
  std::reverse(label.path.begin(), label.path.end());
  label.borrow = std::move(borrow);
  return label;
}

double SchedulingTree::sibling_weight_sum(const SchedClass& parent) const {
  double w = 0.0;
  for (ClassId c : parent.children) w += nodes_[c].policy.weight;
  return w > 0.0 ? w : 1.0;
}

// The one weight check of a loaded tree and of a delta: a NaN or infinite
// weight would pass `<= 0.0` and make every sibling's θ NaN.
static bool usable_weight(double w) { return std::isfinite(w) && w > 0.0; }

// Demand-limited reservation of a guaranteed sibling (see policy.h): an
// inactive class reserves nothing; an active one reserves up to
// min(guarantee, weighted share) but no more than its measured demand plus
// ramp headroom.
static Rate reserved_rate(const SchedClass& c, Rate weighted_share, const FvParams& p,
                          bool active) {
  if (!c.policy.has_guarantee() || !active) return Rate::zero();
  Rate policy_res = std::min(c.policy.guarantee, weighted_share);
  Rate demand_lim = c.gamma() * p.demand_headroom + weighted_share * p.activation_floor_frac;
  return std::min(policy_res, demand_lim).clamped();
}

Rate SchedulingTree::compute_theta(ClassId id, sim::SimTime now) const {
  const SchedClass& me = nodes_[id];
  if (me.is_root()) return me.policy.ceil;
  const SchedClass& parent = nodes_[me.parent];
  const Rate tp = parent.theta;
  const double wsum = sibling_weight_sum(parent);

  // Pass 1: per-sibling weighted shares and guarantee reservations.
  Rate total_reserved = Rate::zero();
  Rate my_reserved = Rate::zero();
  for (ClassId sid : parent.children) {
    const SchedClass& s = nodes_[sid];
    const Rate wshare = tp * (s.policy.weight / wsum);
    const Rate r = reserved_rate(s, wshare, params_, is_active(s, now));
    total_reserved += r;
    if (sid == id) my_reserved = r;
  }
  Rate avail = (tp - total_reserved).clamped();

  // Pass 2: walk priority levels in ascending order. Every level sees the
  // bandwidth left over after the *measured* consumption of the levels above
  // it (Eq. 4 generalized); within a level, the split is weighted (Eq. 5).
  std::map<PrioLevel, double> level_weights;
  for (ClassId sid : parent.children)
    level_weights[nodes_[sid].policy.prio] += nodes_[sid].policy.weight;

  for (const auto& [level, lw] : level_weights) {
    if (level == me.policy.prio) {
      Rate theta = my_reserved + avail * (me.policy.weight / lw);
      if (theta > me.policy.ceil) theta = me.policy.ceil;
      return theta;
    }
    if (level > me.policy.prio) break;  // map is ordered; shouldn't happen
    // Subtract what this (more preferred) level actually consumes.
    Rate consumed = Rate::zero();
    for (ClassId sid : parent.children) {
      const SchedClass& s = nodes_[sid];
      if (s.policy.prio != level) continue;
      if (!is_active(s, now)) continue;
      const Rate wshare = tp * (s.policy.weight / wsum);
      const Rate r = reserved_rate(s, wshare, params_, true);
      Rate s_theta = r + avail * (s.policy.weight / lw);
      if (s_theta > s.policy.ceil) s_theta = s.policy.ceil;
      const Rate above_res = (s.gamma() - r).clamped();
      const Rate cap = (s_theta - r).clamped();
      consumed += std::min(above_res, cap);
    }
    avail = (avail - consumed).clamped();
  }
  // `me` not among the parent's children levels — structurally impossible.
  return Rate::zero();
}

void SchedulingTree::update_class(ClassId id, sim::SimTime now) {
  SchedClass& c = nodes_[id];
  const sim::SimDuration dt = now - c.last_update;
  if (dt <= 0) return;

  // Γ evaluation over the closing epoch (Eq. 3), with expired-status
  // restoration (Subprocedure 3).
  const double inst_gamma_bps = c.consumed_bytes * 8e9 / static_cast<double>(dt);
  c.consumed_bytes = 0.0;
  if (c.ever_seen && now - c.last_seen > params_.expiry_threshold) {
    c.gamma_bps.reset();  // restore to initial: flow has gone quiet
  } else {
    c.gamma_bps.observe(now, inst_gamma_bps);
  }

  // θ recomputation from shared state (condition templates).
  if (!params_.freeze_theta) c.theta = compute_theta(id, now);

  // Replenish the limiting bucket at the new rate.
  c.bucket.set_capacity(default_burst_bytes(c.theta, params_.burst_window, params_.min_burst_bytes));
  c.bucket.replenish(c.theta, dt);

  // Lendable rate (Eq. 6) feeds the shadow bucket — but only for classes
  // whose slack is not already redistributed by the priority-residual rule
  // (Eq. 4). A class with lower-priority siblings hands its unused rate to
  // them through θ recomputation; exposing the same slack through the
  // shadow bucket would double-allocate it (the subtree could then exceed
  // its parent's budget). Pure-weighted classes and the lowest priority
  // level lend normally; that is exactly what Fig. 9's labels rely on.
  bool residual_goes_to_siblings = false;
  if (!c.is_root()) {
    for (ClassId sid : nodes_[c.parent].children) {
      if (sid != id && nodes_[sid].policy.prio > c.policy.prio) {
        residual_goes_to_siblings = true;
        break;
      }
    }
  }
  c.lendable = residual_goes_to_siblings ? Rate::zero() : (c.theta - c.gamma()).clamped();
  c.shadow.set_capacity(default_burst_bytes(c.lendable, params_.shadow_burst_window, params_.min_burst_bytes));
  c.shadow.replenish(c.lendable, dt);

  c.last_update = now;
}

void SchedulingTree::count_forwarded(const std::vector<ClassId>& path, std::uint32_t bytes) {
  for (ClassId id : path) {
    SchedClass& c = nodes_[id];
    c.consumed_bytes += static_cast<double>(bytes);
    ++c.fwd_packets;
    c.fwd_bytes += bytes;
  }
}

void SchedulingTree::touch(const std::vector<ClassId>& path, sim::SimTime now) {
  for (ClassId id : path) {
    nodes_[id].last_seen = now;
    nodes_[id].ever_seen = true;
  }
}

bool SchedulingTree::reconfigure(ClassId id, const NodePolicy& policy) {
  if (!validate_deltas({{id, policy}}).empty()) return false;
  SchedClass& c = nodes_[id];
  if (c.is_root()) {
    // Root carries the link/ceiling rate; θ follows immediately.
    c.policy = policy;
    c.theta = policy.ceil;
    return true;
  }
  c.policy = policy;
  return true;
}

std::string SchedulingTree::validate_deltas(const PolicyManifest& deltas) const {
  // Per-policy shape checks.
  for (const auto& [id, p] : deltas) {
    if (id >= nodes_.size()) return "unknown class id " + std::to_string(id);
    const std::string& name = nodes_[id].name;
    if (!usable_weight(p.weight))
      return "class '" + name + "': weight must be positive and finite";
    if (p.guarantee < Rate::zero())
      return "class '" + name + "': negative guarantee rate";
    if (!(p.ceil > Rate::zero()))
      return "class '" + name + "': ceil must be positive";
    if (p.has_guarantee() && p.guarantee > p.ceil)
      return "class '" + name + "': guarantee exceeds ceil";
  }
  // Dry run: clone the current policies, apply the deltas, and check that no
  // parent's ceiling is oversubscribed by the sum of its children's
  // guarantees — the class of bug the bare reconfigure() used to let in.
  std::vector<NodePolicy> merged(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) merged[i] = nodes_[i].policy;
  for (const auto& [id, p] : deltas) merged[id] = p;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const SchedClass& parent = nodes_[i];
    if (parent.children.empty()) continue;
    Rate guarantee_sum = Rate::zero();
    for (ClassId cid : parent.children)
      if (merged[cid].has_guarantee()) guarantee_sum += merged[cid].guarantee;
    if (guarantee_sum > merged[i].ceil)
      return "children of '" + parent.name +
             "' have guarantees summing above the parent ceil (" +
             std::to_string(guarantee_sum.gbps()) + " > " +
             std::to_string(merged[i].ceil.gbps()) + " Gbps)";
  }
  return {};
}

std::uint32_t SchedulingTree::stage(const PolicyManifest& deltas) {
  for (const auto& [id, p] : deltas) {
    assert(id < nodes_.size());
    SchedClass& c = nodes_[id];
    if (!c.has_staged) ++staged_remaining_;
    c.staged_policy = p;
    c.has_staged = true;
  }
  staged_epoch_ = epoch_ + 1;
  return staged_epoch_;
}

void SchedulingTree::commit_class(ClassId id, sim::SimTime now) {
  SchedClass& c = nodes_[id];
  if (!c.has_staged) return;
  c.policy = c.staged_policy;
  c.has_staged = false;
  if (staged_remaining_ > 0) --staged_remaining_;
  if (c.is_root()) c.theta = c.policy.ceil;
  refresh_theta(now);
}

void SchedulingTree::refresh_theta(sim::SimTime now) {
  // A committed policy changes the shared words every class's θ derivation
  // reads. Idle siblings never run update_class, so without this sweep they
  // would hold θ derived from the OLD weights forever and a per-level budget
  // could stay oversubscribed across the swap. Index order is top-down
  // (parents precede children), matching compute_theta's dependency on
  // parent θ.
  if (params_.freeze_theta) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    SchedClass& c = nodes_[i];
    c.theta = compute_theta(static_cast<ClassId>(i), now);
    // Stale lendable (θ_old − γ) may now exceed the shrunk θ; under-lending
    // until the class's next update epoch is safe, over-lending is not.
    if (c.lendable > c.theta) c.lendable = c.theta;
  }
}

SchedulingTree::RuntimeSnapshot SchedulingTree::snapshot_runtime() const {
  RuntimeSnapshot snap;
  snap.classes.reserve(nodes_.size());
  for (const auto& c : nodes_) {
    ClassRuntime r;
    r.gamma_valid = c.gamma_bps.has_value();
    r.gamma_value = r.gamma_valid ? c.gamma_bps.value() : 0.0;
    r.last_seen = c.last_seen;
    r.ever_seen = c.ever_seen;
    snap.classes.push_back(r);
  }
  return snap;
}

void SchedulingTree::restore_runtime(const RuntimeSnapshot& snap,
                                     sim::SimTime now) {
  if (snap.classes.size() != nodes_.size()) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    SchedClass& c = nodes_[i];
    const ClassRuntime& r = snap.classes[i];
    // Zero credit, not pre-crash credit: a dead worker may have consumed
    // tokens it never reported, so any restored balance risks over-grant.
    // Under-grant self-heals within one replenish epoch.
    c.bucket.reset(0.0);
    c.shadow.reset(0.0);
    c.consumed_bytes = 0.0;
    c.last_update = now;
    c.gamma_bps.reset();
    // Ewma's first observe() adopts the value directly, so this restores
    // the pre-crash Γ estimate exactly rather than re-warming from zero.
    if (r.gamma_valid) c.gamma_bps.observe(now, r.gamma_value);
    c.last_seen = r.last_seen;
    c.ever_seen = r.ever_seen;
  }
  refresh_theta(now);
}

void SchedulingTree::commit_all(sim::SimTime now) {
  for (auto& n : nodes_)
    if (n.has_staged) commit_class(n.id, now);
  epoch_ = staged_epoch_;
  staged_remaining_ = 0;
}

void SchedulingTree::abandon_stage() {
  for (auto& n : nodes_) n.has_staged = false;
  staged_remaining_ = 0;
  staged_epoch_ = epoch_;
}

std::string SchedulingTree::validate() const {
  if (nodes_.empty()) return "tree has no root";
  for (const auto& n : nodes_) {
    if (!usable_weight(n.policy.weight))
      return "class '" + n.name + "': weight must be positive and finite";
    if (n.policy.has_guarantee() && n.policy.guarantee > n.policy.ceil)
      return "class '" + n.name + "' guarantee exceeds ceil";
    if (!n.is_root() && n.parent >= nodes_.size())
      return "class '" + n.name + "' has invalid parent";
    if (!n.is_root() && nodes_[n.parent].id == n.id)
      return "class '" + n.name + "' is its own parent";
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].is_root()) return "multiple roots";
  return {};
}

}  // namespace flowvalve::core
