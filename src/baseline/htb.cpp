#include "baseline/htb.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flowvalve::baseline {
namespace {

// tc's r2q default: quantum = rate_bytes_per_sec / r2q.
constexpr double kR2q = 10.0;

double auto_burst(Rate rate, std::uint32_t mtu = 1518) {
  // Kernel tc sizes burst ≈ rate / HZ (HZ=1000) with an MTU floor.
  return std::max(rate.bytes_per_ns() * 1e6, static_cast<double>(2 * mtu));
}

}  // namespace

HtbQdisc::HtbQdisc(Rate root_rate, Rate root_ceil, HtbArtifacts artifacts)
    : artifacts_(artifacts) {
  HtbClass root;
  root.cfg.name = "root";
  root.cfg.rate = root_rate;
  root.cfg.ceil = root_ceil.is_zero() ? root_rate : root_ceil;
  root.id = 0;
  root.burst = auto_burst(root.cfg.rate);
  root.cburst = auto_burst(root.cfg.ceil);
  root.tokens = root.burst;
  root.ctokens = root.cburst;
  classes_.push_back(std::move(root));
  by_name_["root"] = 0;
}

void HtbQdisc::add_class(const HtbClassConfig& config) {
  assert(!config.name.empty());
  if (by_name_.count(config.name)) throw std::invalid_argument("duplicate htb class");
  HtbClass c;
  c.cfg = config;
  if (c.cfg.ceil.is_zero()) c.cfg.ceil = c.cfg.rate;
  c.id = static_cast<int>(classes_.size());
  const std::string& parent = config.parent.empty() ? "root" : config.parent;
  c.parent_id = find_class(parent);
  if (c.parent_id < 0) throw std::invalid_argument("unknown htb parent " + parent);
  if (c.cfg.quantum_bytes == 0)
    c.cfg.quantum_bytes = static_cast<std::uint32_t>(
        std::max(1518.0, c.cfg.rate.bytes_per_sec() / kR2q / 1000.0));
  c.burst = auto_burst(c.cfg.rate);
  c.cburst = auto_burst(c.cfg.ceil);
  c.tokens = c.burst;
  c.ctokens = c.cburst;
  classes_[static_cast<std::size_t>(c.parent_id)].children.push_back(c.id);
  by_name_[c.cfg.name] = c.id;
  classes_.push_back(std::move(c));
  // Recompute levels: leaf = 0, parents = max(child)+1.
  for (auto it = classes_.rbegin(); it != classes_.rend(); ++it) {
    int lvl = 0;
    for (int ch : it->children)
      lvl = std::max(lvl, classes_[static_cast<std::size_t>(ch)].level + 1);
    it->level = lvl;
  }
}

int HtbQdisc::find_class(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

double HtbQdisc::charged_bytes(std::uint32_t wire_bytes) const {
  if (!artifacts_.enabled) return static_cast<double>(wire_bytes);
  if (artifacts_.charge_factor > 0.0)
    return static_cast<double>(wire_bytes) * artifacts_.charge_factor;
  const std::uint32_t cell = artifacts_.charge_cell_bytes;
  const std::uint32_t quantized = wire_bytes / cell * cell;
  return static_cast<double>(std::max(cell, quantized));
}

void HtbQdisc::replenish_all(SimTime now) {
  for (auto& c : classes_) {
    const SimDuration dt = now - c.t_last;
    if (dt <= 0) continue;
    c.tokens = std::min(c.burst, c.tokens + c.cfg.rate.bytes_per_ns() * static_cast<double>(dt));
    c.ctokens =
        std::min(c.cburst, c.ctokens + c.cfg.ceil.bytes_per_ns() * static_cast<double>(dt));
    c.t_last = now;
  }
}

bool HtbQdisc::enqueue(net::Packet pkt, SimTime now) {
  assert(classify_ && "htb needs a classifier");
  const int id = find_class(classify_(pkt));
  if (id < 0) return false;
  HtbClass& c = classes_[static_cast<std::size_t>(id)];
  assert(c.is_leaf() && "packets must classify to leaf classes");
  ++c.stats.enq_packets;
  if (c.queue.size() >= c.cfg.queue_limit) {
    ++c.stats.drops;
    return false;
  }
  pkt.nic_arrival = now;
  ++total_backlog_pkts_;
  c.queue.push_back(std::move(pkt));
  return true;
}

// Kernel semantics: a leaf may send if its own tokens are non-negative
// (HTB_CAN_SEND); otherwise it may borrow from the nearest ancestor with
// positive tokens, provided every class on the path (leaf included) still
// has ceiling tokens (HTB_MAY_BORROW).
int HtbQdisc::lend_level(const HtbClass& leaf) const {
  if (leaf.tokens >= 0.0) return -1;
  if (leaf.ctokens < 0.0) return -2;
  int cur = leaf.parent_id;
  while (cur >= 0) {
    const HtbClass& a = classes_[static_cast<std::size_t>(cur)];
    if (a.ctokens < 0.0) return -2;
    if (a.tokens >= 0.0) return cur;
    cur = a.parent_id;
  }
  return -2;
}

void HtbQdisc::charge(HtbClass& leaf, int lender_id, std::uint32_t wire_bytes) {
  const double bytes = charged_bytes(wire_bytes);
  // Deduct rate tokens from the leaf up to (and including) the lender, and
  // ceiling tokens along the entire ancestor chain.
  bool charging_tokens = true;
  int cur = leaf.id;
  while (cur >= 0) {
    HtbClass& c = classes_[static_cast<std::size_t>(cur)];
    if (charging_tokens) c.tokens -= bytes;
    c.ctokens -= bytes;
    if (lender_id >= 0 && cur == lender_id) charging_tokens = false;
    if (lender_id < 0 && cur == leaf.id) charging_tokens = false;  // own-rate send
    cur = c.parent_id;
  }
  if (lender_id >= 0) leaf.stats.borrowed_bytes += wire_bytes;
}

std::optional<net::Packet> HtbQdisc::dequeue(SimTime now) {
  if (total_backlog_pkts_ == 0) return std::nullopt;
  replenish_all(now);

  // Collect backlogged leaves.
  std::vector<int> leaves;
  leaves.reserve(classes_.size());
  for (const auto& c : classes_)
    if (c.is_leaf() && !c.queue.empty()) leaves.push_back(c.id);
  if (leaves.empty()) return std::nullopt;

  // Service order: leaves that can send on their own tokens first (these are
  // never priority-arbitrated in the kernel either — rate is a guarantee),
  // then borrowers by priority level (unless the artifact collapses prio).
  auto try_serve = [&](int id, bool allow_borrow) -> std::optional<net::Packet> {
    HtbClass& c = classes_[static_cast<std::size_t>(id)];
    const int lender = lend_level(c);
    if (lender == -2) return std::nullopt;
    if (lender >= 0 && !allow_borrow) return std::nullopt;
    net::Packet pkt = std::move(c.queue.front());
    c.queue.pop_front();
    --total_backlog_pkts_;
    charge(c, lender, pkt.wire_bytes);
    ++c.stats.deq_packets;
    c.stats.deq_bytes += pkt.wire_bytes;
    return pkt;
  };

  // Pass 1: own-rate senders, round-robin for fairness.
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::size_t idx = (rr_cursor_ + i) % leaves.size();
    HtbClass& c = classes_[static_cast<std::size_t>(leaves[idx])];
    if (c.tokens >= 0.0 && c.ctokens >= 0.0) {
      if (auto pkt = try_serve(leaves[idx], false)) {
        rr_cursor_ = idx + 1;
        return pkt;
      }
    }
  }

  // Pass 2: borrowers. DRR with quanta; priority levels honored unless the
  // contention artifact is active.
  auto prio_of = [&](int id) {
    return (artifacts_.enabled && artifacts_.prio_blind_borrowing)
               ? 0
               : classes_[static_cast<std::size_t>(id)].cfg.prio;
  };
  int best_prio = std::numeric_limits<int>::max();
  for (int id : leaves) {
    const HtbClass& c = classes_[static_cast<std::size_t>(id)];
    if (lend_level(c) >= 0) best_prio = std::min(best_prio, prio_of(id));
  }
  if (best_prio == std::numeric_limits<int>::max()) return std::nullopt;

  // DRR among borrowers at best_prio. The iteration bound covers packets
  // much larger than the quantum (super-packet scenarios) — each visit adds
  // one quantum to the leaf's deficit.
  const std::size_t max_rounds = 128 * leaves.size();
  for (std::size_t i = 0; i < max_rounds; ++i) {
    const std::size_t idx = (rr_cursor_ + i) % leaves.size();
    HtbClass& c = classes_[static_cast<std::size_t>(leaves[idx])];
    if (prio_of(leaves[idx]) != best_prio) continue;
    const int lender = lend_level(c);
    if (lender < 0) continue;
    if (c.deficit < static_cast<double>(c.queue.front().wire_bytes)) {
      c.deficit += c.cfg.quantum_bytes;
      continue;
    }
    c.deficit -= static_cast<double>(c.queue.front().wire_bytes);
    if (auto pkt = try_serve(leaves[idx], true)) {
      rr_cursor_ = idx;  // stay on this leaf while its deficit lasts
      return pkt;
    }
  }
  return std::nullopt;
}

SimTime HtbQdisc::next_event(SimTime now) {
  if (total_backlog_pkts_ == 0) return sim::kSimTimeMax;
  replenish_all(now);
  // If anything is ready, it's now.
  for (const auto& c : classes_) {
    if (!c.is_leaf() || c.queue.empty()) continue;
    if (lend_level(c) != -2) return now;
  }
  // Otherwise find the earliest token-recovery instant across blocked
  // leaves (considering both their own debt and ancestor ceilings).
  SimTime earliest = sim::kSimTimeMax;
  for (const auto& c : classes_) {
    if (!c.is_leaf() || c.queue.empty()) continue;
    // Time for this leaf's own tokens or ceiling to recover:
    double wait_ns = 0.0;
    const HtbClass* cur = &c;
    while (true) {
      if (cur->ctokens < 0.0 && !cur->cfg.ceil.is_zero())
        wait_ns = std::max(wait_ns, -cur->ctokens / cur->cfg.ceil.bytes_per_ns());
      if (cur->parent_id < 0) break;
      cur = &classes_[static_cast<std::size_t>(cur->parent_id)];
    }
    // Rate-token recovery of the leaf itself (it could also borrow sooner,
    // but this is a conservative upper bound for the watchdog).
    if (c.tokens < 0.0 && !c.cfg.rate.is_zero())
      wait_ns = std::max(wait_ns, std::min(-c.tokens / c.cfg.rate.bytes_per_ns(),
                                           wait_ns > 0 ? wait_ns : 1e18));
    if (wait_ns <= 0.0) wait_ns = 1000.0;  // minimal progress guard
    SimTime t = now + static_cast<SimTime>(wait_ns);
    if (artifacts_.enabled) {
      const SimDuration tick = artifacts_.watchdog_tick;
      t = (t + tick - 1) / tick * tick;  // kernel watchdog rounds up
    }
    earliest = std::min(earliest, t);
  }
  return earliest;
}

const HtbQdisc::ClassStats& HtbQdisc::class_stats(const std::string& name) const {
  const int id = find_class(name);
  assert(id >= 0);
  return classes_[static_cast<std::size_t>(id)].stats;
}

double HtbQdisc::tokens_of(const std::string& name) const {
  const int id = find_class(name);
  assert(id >= 0);
  return classes_[static_cast<std::size_t>(id)].tokens;
}

}  // namespace flowvalve::baseline
