// Classful Hierarchy Token Bucket — a faithful (simplified) reimplementation
// of the Linux HTB qdisc (paper §II-A, §III-A): per-class rate/ceil token
// buckets, borrowing from ancestors, DRR with quanta among leaves, and
// strict priority between borrow levels.
//
// Two documented *kernel artifacts* are modeled behind HtbArtifacts, because
// the paper's motivation experiment (Fig. 3) depends on them:
//
//  1. Rate-table charge quantization. Classic tc/psched rate tables quantize
//     per-packet transmission cost; at multi-gigabit rates with MTU frames
//     the bucket is undercharged by ~15-20%, so a 10 Gbps ceiling measures
//     ≈12 Gbps on the wire — the paper observes exactly this overshoot.
//     Modeled as charged_bytes = max(cell, floor(bytes/cell)·cell), or an
//     explicit charge_factor for super-packet scenarios.
//
//  2. Priority-blind borrowing. Under multi-core contention the kernel's
//     borrow arbitration degenerates to quantum-fair DRR, which is why the
//     paper sees KVS and ML split bandwidth equally despite KVS's higher
//     priority. Modeled as a flag that collapses the priority levels in the
//     borrow path.
//
// Both artifacts default ON for the "kernel" persona and OFF for the
// idealized-HTB persona used in unit tests and the locking ablation.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baseline/qdisc.h"

namespace flowvalve::baseline {

struct HtbArtifacts {
  bool enabled = false;

  /// Rate-table cell size in bytes (artifact 1). 256 B reproduces the
  /// ~16% undercharge at 1518 B frames.
  std::uint32_t charge_cell_bytes = 256;

  /// If > 0, overrides cell quantization with a flat multiplicative
  /// undercharge (for super-packet scenarios where the cell math degenerates).
  double charge_factor = 0.0;

  /// Artifact 2: ignore leaf priorities in the borrow path.
  bool prio_blind_borrowing = true;

  /// Watchdog timer granularity: when throttled, the next dequeue
  /// opportunity is rounded up to this tick (kernel HZ/hrtimer slack).
  SimDuration watchdog_tick = sim::milliseconds(1);
};

struct HtbClassConfig {
  std::string name;
  std::string parent;          // empty = attach under root
  Rate rate = Rate::zero();    // committed rate (tokens)
  Rate ceil = Rate::zero();    // ceiling (ctokens); 0 = same as rate
  int prio = 0;                // 0 = most preferred in the borrow path
  std::uint32_t quantum_bytes = 0;  // 0 = auto (rate / r2q)
  std::size_t queue_limit = 1000;   // leaf pfifo depth in packets
};

class HtbQdisc final : public Qdisc {
 public:
  /// `root_rate`/`root_ceil`: the root class (1:1 in tc terms).
  HtbQdisc(Rate root_rate, Rate root_ceil, HtbArtifacts artifacts = {});

  /// Add a class. Parent must already exist (or be empty for root children).
  /// Classes with children must be added before their children. A class is
  /// a leaf iff no other class names it as parent when enqueueing starts.
  void add_class(const HtbClassConfig& config);

  /// Maps packets to leaf class names. Unmatched packets are dropped.
  void set_classifier(std::function<std::string(const net::Packet&)> fn) {
    classify_ = std::move(fn);
  }

  bool enqueue(net::Packet pkt, SimTime now) override;
  std::optional<net::Packet> dequeue(SimTime now) override;
  SimTime next_event(SimTime now) override;
  /// Packets queued across all leaves.
  std::size_t backlog_packets() const { return total_backlog_pkts_; }

  /// Per-class counters for assertions/benches.
  struct ClassStats {
    std::uint64_t enq_packets = 0;
    std::uint64_t deq_packets = 0;
    std::uint64_t deq_bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t borrowed_bytes = 0;  // sent while own tokens < 0
  };
  const ClassStats& class_stats(const std::string& name) const;
  double tokens_of(const std::string& name) const;  // test hook

 private:
  struct HtbClass {
    HtbClassConfig cfg;
    int id = -1;
    int parent_id = -1;
    std::vector<int> children;
    int level = 0;  // 0 = leaf (kernel convention)

    double tokens = 0.0;    // bytes; negative = in debt
    double ctokens = 0.0;
    double burst = 0.0;
    double cburst = 0.0;
    SimTime t_last = 0;

    std::deque<net::Packet> queue;  // leaves only
    double deficit = 0.0;           // DRR
    ClassStats stats;

    bool is_leaf() const { return children.empty(); }
  };

  int find_class(const std::string& name) const;
  void replenish_all(SimTime now);
  double charged_bytes(std::uint32_t wire_bytes) const;
  /// Lending ancestor id for a backlogged leaf, -1 if the leaf can send on
  /// its own tokens, -2 if blocked entirely.
  int lend_level(const HtbClass& leaf) const;
  void charge(HtbClass& leaf, int lender_id, std::uint32_t wire_bytes);

  HtbArtifacts artifacts_;
  std::vector<HtbClass> classes_;
  std::map<std::string, int, std::less<>> by_name_;
  std::function<std::string(const net::Packet&)> classify_;
  std::size_t rr_cursor_ = 0;  // DRR position over leaves
  std::uint64_t total_backlog_pkts_ = 0;
};

}  // namespace flowvalve::baseline
