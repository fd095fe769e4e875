// The standard library of invariant checkers (paper-derived correctness
// properties), installed by CheckHarness::add_standard_checkers(). Each
// checker is independent and cheap enough to run on every fuzz scenario;
// together they cover:
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
#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "check/checker.h"
#include "core/sched_tree.h"

namespace flowvalve::check {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------- counts --

/// Packet conservation: every submitted packet is eventually accounted for
/// as exactly one of {wire, vf-ring drop, scheduler drop, tx-ring drop,
/// reorder flush/timeout, watchdog abort, admission drop}.
/// While running, the residual must equal the pipeline's in_flight gauge;
/// at quiescence the residual must be zero and the hook-side counts must
/// reconcile with the pipeline's own Stats.
class ConservationChecker final : public InvariantChecker {
 public:
  std::string_view name() const override { return "conservation"; }

  void on_submit(const net::Packet&, sim::SimTime) override { ++submitted_; }
  void on_wire_tx(const net::Packet&, sim::SimTime) override { ++wire_; }
  void on_drop(const net::Packet&, np::DropReason reason, sim::SimTime) override {
    switch (reason) {
      case np::DropReason::kVfRingFull: ++vf_drops_; break;
      case np::DropReason::kScheduler: ++sched_drops_; break;
      case np::DropReason::kTxRingFull: ++tx_drops_; break;
      case np::DropReason::kReorderFlush: ++flush_drops_; break;
      case np::DropReason::kReorderTimeout: ++timeout_drops_; break;
      case np::DropReason::kWatchdogAbort: ++watchdog_drops_; break;
      case np::DropReason::kAdmission: ++admission_drops_; break;
      case np::DropReason::kIslandRestart: ++restart_drops_; break;
    }
  }

  void on_epoch(const SystemView& v, sim::SimTime now) override {
    const std::uint64_t accounted = wire_ + vf_drops_ + sched_drops_ +
                                    tx_drops_ + flush_drops_ + timeout_drops_ +
                                    watchdog_drops_ + admission_drops_ +
                                    restart_drops_;
    if (accounted > submitted_) {
      fail(now, "accounted " + fmt_u64(accounted) + " packets > submitted " +
                    fmt_u64(submitted_));
      return;
    }
    const std::uint64_t residual = submitted_ - accounted;
    if (residual != v.pipeline->in_flight())
      fail(now, "submitted - (wire + drops) = " + fmt_u64(residual) +
                    " but pipeline reports in_flight = " +
                    fmt_u64(v.pipeline->in_flight()));
  }

  void on_finish(const SystemView& v, sim::SimTime now) override {
    const auto& s = v.pipeline->stats();
    const std::uint64_t drops = vf_drops_ + sched_drops_ + tx_drops_ +
                                flush_drops_ + timeout_drops_ +
                                watchdog_drops_ + admission_drops_ +
                                restart_drops_;
    if (submitted_ != wire_ + drops)
      fail(now, "at drain: submitted " + fmt_u64(submitted_) + " != wire " +
                    fmt_u64(wire_) + " + drops " + fmt_u64(drops));
    if (v.pipeline->in_flight() != 0)
      fail(now, "at drain: in_flight = " + fmt_u64(v.pipeline->in_flight()));
    if (s.submitted != submitted_ || s.forwarded_to_wire != wire_ ||
        s.vf_ring_drops != vf_drops_ || s.scheduler_drops != sched_drops_ ||
        s.tx_ring_drops != tx_drops_ || s.reorder_flush_drops != flush_drops_ ||
        s.reorder_timeout_drops != timeout_drops_ ||
        s.watchdog_drops != watchdog_drops_ ||
        s.admission_drops != admission_drops_ ||
        s.island_restart_drops != restart_drops_)
      fail(now, "pipeline Stats disagree with observed events (stats: " +
                    fmt_u64(s.submitted) + "/" + fmt_u64(s.forwarded_to_wire) +
                    "/" + fmt_u64(s.vf_ring_drops) + "/" +
                    fmt_u64(s.scheduler_drops) + "/" + fmt_u64(s.tx_ring_drops) +
                    "/" + fmt_u64(s.reorder_flush_drops) + "/" +
                    fmt_u64(s.reorder_timeout_drops) + "/" +
                    fmt_u64(s.watchdog_drops) + "/" +
                    fmt_u64(s.admission_drops) + ", observed: " +
                    fmt_u64(submitted_) + "/" + fmt_u64(wire_) + "/" +
                    fmt_u64(vf_drops_) + "/" + fmt_u64(sched_drops_) + "/" +
                    fmt_u64(tx_drops_) + "/" + fmt_u64(flush_drops_) + "/" +
                    fmt_u64(timeout_drops_) + "/" + fmt_u64(watchdog_drops_) +
                    "/" + fmt_u64(admission_drops_) + "/" +
                    fmt_u64(restart_drops_) + ")");
    if (v.delivered_packets != wire_)
      fail(now, "delivered " + fmt_u64(v.delivered_packets) +
                    " != wire transmissions " + fmt_u64(wire_));
  }

 private:
  std::uint64_t submitted_ = 0;
  std::uint64_t wire_ = 0;
  std::uint64_t vf_drops_ = 0;
  std::uint64_t sched_drops_ = 0;
  std::uint64_t tx_drops_ = 0;
  std::uint64_t flush_drops_ = 0;
  std::uint64_t timeout_drops_ = 0;
  std::uint64_t watchdog_drops_ = 0;
  std::uint64_t admission_drops_ = 0;
  std::uint64_t restart_drops_ = 0;
};

// -------------------------------------------------------------- ordering --

/// In-order delivery through the reorder system: with enforce_reorder on,
/// packets entering on one VF ring leave the NIC in submission order (drops
/// may punch holes but never permute survivors), and each flow's
/// seq_in_flow is strictly increasing at the receiver. Without the reorder
/// system a VF's packets may leave out of order, and flows never span VFs
/// in our sources, so neither check holds then: the checker is registered
/// only with the reorder system on.
class OrderingChecker final : public InvariantChecker {
 public:
  explicit OrderingChecker(unsigned num_vfs) : per_vf_(num_vfs) {}

  std::string_view name() const override { return "ordering"; }

  void on_submit(const net::Packet& pkt, sim::SimTime) override {
    fifo(pkt.vf_port).push_back(pkt.id);
  }

  void on_drop(const net::Packet& pkt, np::DropReason, sim::SimTime) override {
    if (pkt.id >= dropped_.size()) dropped_.resize(pkt.id + 1);
    dropped_[pkt.id] = true;
  }

  void on_delivered(const net::Packet& pkt, sim::SimTime now) override {
    if (auto [it, first] = last_seq_.try_emplace(pkt.flow_id, pkt.seq_in_flow);
        !first) {
      if (pkt.seq_in_flow <= it->second)
        fail(now, "flow " + fmt_u64(pkt.flow_id) + " delivered seq " +
                      fmt_u64(pkt.seq_in_flow) + " after seq " +
                      fmt_u64(it->second));
      it->second = pkt.seq_in_flow;
    }

    auto& q = fifo(pkt.vf_port);
    while (!q.empty() && q.front() != pkt.id) {
      // Consume the overtaken entry either way so each skipped live packet
      // is reported exactly once instead of on every later delivery (which
      // would drown the sink's cap and mask other checkers' violations).
      if (!take_dropped(q.front()))
        fail(now, "vf " + std::to_string(pkt.vf_port) + ": packet " +
                      fmt_u64(pkt.id) + " delivered ahead of live packet " +
                      fmt_u64(q.front()));
      q.pop_front();
    }
    if (!q.empty()) q.pop_front();  // the delivered packet itself
  }

  void on_finish(const SystemView&, sim::SimTime now) override {
    for (std::size_t vf = 0; vf < per_vf_.size(); ++vf)
      for (std::uint64_t id : per_vf_[vf])
        if (!take_dropped(id))
          fail(now, "vf " + std::to_string(vf) + ": packet " + fmt_u64(id) +
                        " neither delivered nor dropped");
  }

 private:
  /// The FIFO of `vf`; a port at or beyond num_vfs gets its own FIFO too.
  std::deque<std::uint64_t>& fifo(std::uint16_t vf) {
    if (vf >= per_vf_.size()) per_vf_.resize(vf + 1);
    return per_vf_[vf];
  }

  /// Whether packet `id` was dropped; forgets the drop, so it counts once.
  bool take_dropped(std::uint64_t id) {
    if (id >= dropped_.size() || !dropped_[id]) return false;
    dropped_[id] = false;
    return true;
  }

  std::vector<std::deque<std::uint64_t>> per_vf_;  // by vf_port
  // By packet id: IdAllocator hands ids out densely from 1 per scenario.
  std::vector<bool> dropped_;
  std::unordered_map<std::uint32_t, std::uint64_t> last_seq_;  // by flow id
};

// ------------------------------------------------------------ timestamps --

/// Packet lifecycle timestamps are monotone within a packet, the wire emits
/// frames in nondecreasing time order, the fixed pipeline delay between
/// last-bit-on-wire and receiver observation is honored exactly, and no
/// frame is reported on the wire or delivered before its stamp (batched
/// drains and coalesced delivery may only report late).
class TimestampChecker final : public InvariantChecker {
 public:
  explicit TimestampChecker(sim::SimDuration fixed_delay)
      : fixed_delay_(fixed_delay) {}

  std::string_view name() const override { return "timestamps"; }

  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override {
    if (now < pkt.wire_tx_done)
      fail(now, "packet " + fmt_u64(pkt.id) + " reported on the wire before "
                    "its wire_tx_done " + std::to_string(pkt.wire_tx_done));
    if (pkt.wire_tx_done < last_wire_)
      fail(now, "wire_tx_done went backwards: " + fmt_u64(pkt.wire_tx_done) +
                    " after " + fmt_u64(last_wire_));
    last_wire_ = pkt.wire_tx_done;
  }

  void on_delivered(const net::Packet& pkt, sim::SimTime now) override {
    if (now < pkt.delivered_at)
      fail(now, "packet " + fmt_u64(pkt.id) + " delivered before its "
                    "delivered_at " + std::to_string(pkt.delivered_at));
    const bool monotone = pkt.created_at <= pkt.nic_arrival &&
                          pkt.nic_arrival <= pkt.tx_enqueue &&
                          pkt.tx_enqueue <= pkt.wire_tx_done &&
                          pkt.wire_tx_done <= pkt.delivered_at;
    if (!monotone)
      fail(now, "packet " + fmt_u64(pkt.id) + " timestamps not monotone: " +
                    std::to_string(pkt.created_at) + " / " +
                    std::to_string(pkt.nic_arrival) + " / " +
                    std::to_string(pkt.tx_enqueue) + " / " +
                    std::to_string(pkt.wire_tx_done) + " / " +
                    std::to_string(pkt.delivered_at));
    if (pkt.delivered_at - pkt.wire_tx_done != fixed_delay_)
      fail(now, "packet " + fmt_u64(pkt.id) + " pipeline delay " +
                    std::to_string(pkt.delivered_at - pkt.wire_tx_done) +
                    "ns != configured " + std::to_string(fixed_delay_) + "ns");
  }

 private:
  sim::SimDuration fixed_delay_;
  sim::SimTime last_wire_ = 0;
};

// ------------------------------------------------------ wire conformance --

/// The traffic manager drains the shared FIFO at wire rate and no faster:
/// cumulative wire occupancy bytes over [0, t] never exceed rate · t plus
/// per-frame rounding slack (serialization delays round to whole ns).
class WireConformanceChecker final : public InvariantChecker {
 public:
  explicit WireConformanceChecker(sim::Rate wire_rate) : rate_(wire_rate) {}

  std::string_view name() const override { return "wire-conformance"; }

  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override {
    bytes_ += pkt.wire_occupancy_bytes();
    ++frames_;
    // Each serialization delay may round down by up to 0.5 ns: grant one
    // ns worth of bytes per frame plus one frame of slack for the boundary.
    const double slack =
        static_cast<double>(frames_) * rate_.bytes_per_ns() + 2048.0;
    const double allowed = rate_.bytes_in(now) + slack;
    if (static_cast<double>(bytes_) > allowed)
      fail(now, "cumulative wire bytes " + fmt_u64(bytes_) + " exceed " +
                    rate_.to_string() + " budget " + std::to_string(allowed));
  }

 private:
  sim::Rate rate_;
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
};

// ---------------------------------------------------- worker exclusivity --

/// Run-to-completion: a worker micro-engine handles one packet at a time,
/// so its busy intervals never overlap, and total dispatches reconcile with
/// the pipeline's processed count. A watchdog abort ends the worker's busy
/// interval early and may re-dispatch the salvaged packet (original
/// ingress_seq) out of global sequence order — both are accepted only when
/// announced through on_watchdog first.
class WorkerExclusivityChecker final : public InvariantChecker {
 public:
  std::string_view name() const override { return "worker-exclusivity"; }

  void on_dispatch(const net::Packet&, unsigned worker, std::uint64_t seq,
                   sim::SimTime now, sim::SimDuration busy) override {
    if (worker >= busy_until_.size()) busy_until_.resize(worker + 1, 0);
    if (now < busy_until_[worker])
      fail(now, "worker " + std::to_string(worker) + " dispatched at " +
                    std::to_string(now) + " while busy until " +
                    std::to_string(busy_until_[worker]));
    busy_until_[worker] = now + busy;
    if (seq == next_seq_) {
      ++next_seq_;
    } else if (requeued_.erase(seq) == 0) {
      fail(now, "ingress_seq " + fmt_u64(seq) + " out of order (expected " +
                    fmt_u64(next_seq_) + ", not a watchdog requeue)");
      next_seq_ = seq + 1;
    }
    ++dispatches_;
  }

  void on_watchdog(const net::Packet&, unsigned worker, std::uint64_t seq,
                   sim::SimTime now) override {
    if (worker >= busy_until_.size()) busy_until_.resize(worker + 1, 0);
    busy_until_[worker] = now;
    requeued_.insert(seq);
  }

  void on_finish(const SystemView& v, sim::SimTime now) override {
    if (v.pipeline->stats().processed != dispatches_)
      fail(now, "pipeline processed " + fmt_u64(v.pipeline->stats().processed) +
                    " != observed dispatches " + fmt_u64(dispatches_));
  }

 private:
  std::vector<sim::SimTime> busy_until_;
  std::unordered_set<std::uint64_t> requeued_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatches_ = 0;
};

// -------------------------------------------------------- tree arithmetic --

/// Scheduling-tree arithmetic, sampled each epoch: θ stays within [0, ceil],
/// per-priority-level sibling θ totals stay within the parent's configured
/// budget plus the level's guarantee reservations (each level splits
/// `avail` ≤ parent θ ≤ parent ceil — Eq. 4/5 — but siblings evaluate at
/// different instants), bucket fill stays within [0, capacity], and the
/// lendable rate never exceeds θ (Eq. 6).
class TreeArithmeticChecker final : public InvariantChecker {
 public:
  std::string_view name() const override { return "tree-arithmetic"; }

  void on_epoch(const SystemView& v, sim::SimTime now) override {
    if (!v.engine || !v.engine->ready()) return;
    const core::SchedulingTree& tree = v.engine->tree();
    for (core::ClassId id = 0; id < tree.size(); ++id) {
      const core::SchedClass& c = tree.at(id);
      check_rate_bounds(c, now);
      check_bucket(c.name, "bucket", c.bucket, now);
      check_bucket(c.name, "shadow", c.shadow, now);
      if (c.is_leaf()) continue;
      // Per-priority-level sibling budget. Each sibling's θ is recomputed at
      // its own update instant, so one level's total can transiently exceed
      // the parent budget by the guarantee reservations that moved between
      // those instants (reserved_rate ≤ guarantee) — but never by more.
      levels_.clear();
      for (core::ClassId cid : c.children) {
        const core::SchedClass& child = tree.at(cid);
        const unsigned prio = child.policy.prio;
        auto it = std::lower_bound(
            levels_.begin(), levels_.end(), prio,
            [](const LevelSum& l, unsigned p) { return l.level < p; });
        if (it == levels_.end() || it->level != prio)
          it = levels_.insert(it, LevelSum{prio});
        it->bps += child.theta.bps();
        if (child.policy.has_guarantee()) it->slack += child.policy.guarantee.bps();
      }
      for (const LevelSum& l : levels_) {
        const double budget = (c.policy.ceil.bps() + l.slack) * (1.0 + 1e-9) + 1.0;
        if (l.bps > budget)
          fail(now, "children of '" + c.name + "' at prio " +
                        std::to_string(l.level) + " sum to " +
                        sim::Rate::bits_per_sec(l.bps).to_string() +
                        " > parent budget " + c.policy.ceil.to_string() +
                        " + guarantee slack " +
                        sim::Rate::bits_per_sec(l.slack).to_string());
      }
    }
  }

 private:
  /// One priority level's sibling θ total and guarantee slack.
  struct LevelSum {
    unsigned level;
    double bps = 0.0;
    double slack = 0.0;
  };

  void check_rate_bounds(const core::SchedClass& c, sim::SimTime now) {
    if (c.theta.bps() < 0.0)
      fail(now, "class '" + c.name + "' has negative θ " + c.theta.to_string());
    if (c.theta.bps() > c.policy.ceil.bps() * (1.0 + 1e-9) + 1.0)
      fail(now, "class '" + c.name + "' θ " + c.theta.to_string() +
                    " exceeds ceil " + c.policy.ceil.to_string());
    if (c.lendable.bps() < 0.0)
      fail(now, "class '" + c.name + "' has negative lendable rate");
    if (c.lendable.bps() > c.theta.bps() * (1.0 + 1e-9) + 1.0)
      fail(now, "class '" + c.name + "' lendable " + c.lendable.to_string() +
                    " exceeds θ " + c.theta.to_string());
  }

  void check_bucket(const std::string& cls, const char* which,
                    const core::TokenBucket& b, sim::SimTime now) {
    if (b.tokens() < -1e-6)
      fail(now, "class '" + cls + "' " + which + " went negative: " +
                    std::to_string(b.tokens()));
    if (b.tokens() > b.capacity() + 1e-6)
      fail(now, "class '" + cls + "' " + which + " over capacity: " +
                    std::to_string(b.tokens()) + " > " +
                    std::to_string(b.capacity()));
  }

  std::vector<LevelSum> levels_;  // one parent's levels, ascending
};

// ------------------------------------------------------- ceil conformance --

/// Token-bucket conformance per leaf class: bytes forwarded GREEN from the
/// class's own bucket (no borrowing) over [0, t] can never exceed
/// ceil · t + max bucket capacity, because the bucket replenishes at
/// θ ≤ ceil and saturates at its capacity. Borrowed traffic is legitimately
/// above this line (that's work conservation) and is excluded.
class CeilConformanceChecker final : public InvariantChecker {
 public:
  std::string_view name() const override { return "ceil-conformance"; }

  void on_engine_result(const net::Packet& pkt,
                        const core::FlowValveEngine::Result& r,
                        sim::SimTime) override {
    if (r.verdict != core::Verdict::kForward || r.borrowed) return;
    if (pkt.label == net::kUnclassified) return;
    if (pkt.label >= green_bytes_.size()) green_bytes_.resize(pkt.label + 1, 0);
    green_bytes_[pkt.label] += pkt.wire_occupancy_bytes();
  }

  void on_epoch(const SystemView& v, sim::SimTime now) override {
    if (!v.engine || !v.engine->ready() || now <= 0) return;
    const auto& labels = v.engine->frontend().labels();
    const core::SchedulingTree& tree = v.engine->tree();
    const core::FvParams& params = tree.params();
    for (net::ClassLabelId label = 0; label < green_bytes_.size(); ++label) {
      if (green_bytes_[label] == 0 || label >= labels.size()) continue;
      const core::QosLabel& qos = labels.get(label);
      if (qos.path.empty()) continue;
      const core::SchedClass& leaf = tree.at(qos.path.back());
      const sim::Rate ceil = leaf.policy.ceil;
      // Upper bound on the bucket capacity over the whole run: capacity
      // follows θ ≤ ceil with the configured floor.
      const double cap_bound = std::max(
          ceil.bytes_in(params.burst_window), params.min_burst_bytes);
      const double allowed = ceil.bytes_in(now) + cap_bound + 2.0 * 1538.0;
      if (static_cast<double>(green_bytes_[label]) > allowed)
        fail(now, "leaf '" + leaf.name + "' forwarded " +
                      fmt_u64(green_bytes_[label]) +
                      " own-bucket bytes, above ceil budget " +
                      std::to_string(allowed) + " (ceil " + ceil.to_string() +
                      ")");
    }
  }

 private:
  std::vector<std::uint64_t> green_bytes_;  // indexed by ClassLabelId
};

// -------------------------------------------------------- cache coherence --

/// Flow-cache coherence: an EMC hit is only correct if it returns exactly
/// the label a fresh rule walk would assign at that instant. Replaying the
/// rule walk on every hit catches wrong-label deliveries from any cache
/// pathology — silent poison (fixed-up integrity tags), entries surviving a
/// label-epoch bump, cuckoo kick paths dropping or duplicating entries, and
/// degraded-mode readmission serving stale state. Each epoch in which the
/// table mutated it also audits the table's structural books: the
/// occupancy histogram must sum to the bucket count and weigh out to
/// exactly size() live entries ≤ capacity(). Every path that sets or clears
/// an entry's `valid` bit moves mutation_stamp(), so an unmoved stamp means
/// the table is as the last audit found it.
class CacheCoherenceChecker final : public InvariantChecker {
 public:
  explicit CacheCoherenceChecker(core::FlowValveEngine* engine)
      : engine_(engine) {}

  std::string_view name() const override { return "cache-coherence"; }

  void on_engine_result(const net::Packet& pkt,
                        const core::FlowValveEngine::Result& r,
                        sim::SimTime now) override {
    if (!r.cache_hit || engine_ == nullptr || !engine_->ready()) return;
    const net::ClassLabelId walked =
        engine_->classifier().rule_walk_label(pkt.vf_port, pkt.tuple);
    if (pkt.label != walked)
      fail(now, "EMC hit on vf " + std::to_string(pkt.vf_port) +
                    " returned label " + std::to_string(pkt.label) +
                    " but a fresh rule walk gives " + std::to_string(walked));
  }

  void on_epoch(const SystemView&, sim::SimTime now) override {
    if (engine_ == nullptr) return;
    const core::ExactMatchFlowCache& cache = engine_->classifier().cache();
    if (cache.mutation_stamp() == audited_stamp_) return;
    audited_stamp_ = cache.mutation_stamp();
    const auto hist = cache.occupancy_histogram();
    std::uint64_t buckets = 0;
    std::uint64_t entries = 0;
    for (std::size_t occ = 0; occ < hist.size(); ++occ) {
      buckets += hist[occ];
      entries += hist[occ] * occ;
    }
    if (buckets != cache.bucket_count())
      fail(now, "occupancy histogram covers " + fmt_u64(buckets) +
                    " buckets != table's " + fmt_u64(cache.bucket_count()));
    if (entries != cache.size())
      fail(now, "occupancy histogram holds " + fmt_u64(entries) +
                    " entries != live size " + fmt_u64(cache.size()));
    if (cache.size() > cache.capacity())
      fail(now, "live entries " + fmt_u64(cache.size()) + " exceed capacity " +
                    fmt_u64(cache.capacity()));
  }

 private:
  core::FlowValveEngine* engine_;
  std::uint64_t audited_stamp_ = ~std::uint64_t{0};  // none audited yet
};

}  // namespace

void CheckHarness::add_standard_checkers() {
  const np::NpConfig& config = pipeline_.config();
  add(std::make_unique<ConservationChecker>());
  if (config.enforce_reorder)
    add(std::make_unique<OrderingChecker>(config.num_vfs));
  add(std::make_unique<TimestampChecker>(config.fixed_pipeline_delay));
  add(std::make_unique<WireConformanceChecker>(config.wire_rate));
  add(std::make_unique<WorkerExclusivityChecker>());
  add(std::make_unique<TreeArithmeticChecker>());
  // Ceil conformance is the one FlowValve-specific checker: it restates
  // token-bucket conformance (Eq. 1) over the leaf's own bucket. Rank
  // backends bound a class by its live theta (<= ceil) instead of a
  // metered bucket, so the bucket-shaped budget does not describe their
  // mechanism; every other checker above is discipline-generic (see
  // DESIGN.md par.13).
  if (config.backend == core::BackendKind::kFlowValve)
    add(std::make_unique<CeilConformanceChecker>());
  // Cache coherence replays rule walks against the live classifier, so it
  // needs the engine; harnesses without one (pipeline-only runs) skip it.
  if (engine_ != nullptr) add(std::make_unique<CacheCoherenceChecker>(engine_));
}

}  // namespace flowvalve::check
