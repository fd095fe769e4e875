// SchedulerBackend — the scheduling discipline as a strategy.
//
// The paper's architectural claim is that what makes offloaded scheduling
// fast on an NP is the *contention structure* — per-class try-locks
// arbitrating the update subprocedure while everyone else only meters
// (Fig. 8) — not the particular discipline that consumes the resulting θ
// rates. This interface makes that claim executable: the base class owns
// everything discipline-independent (the root→leaf walk, the try-lock +
// staged-policy-commit machinery, cycle accounting, forward/drop
// bookkeeping) and a backend supplies only decide(): given a labeled packet
// whose path state is fresh, FORWARD or DROP.
//
// Backends never queue. A rank-based discipline (STFQ/PIFO, Eiffel) is
// expressed as a *valve*: the rank a PIFO would insert at becomes an
// admission test against a bounded lead over virtual time, so the
// discipline still shapes who gets the wire without requiring the
// insertion-anywhere queue hardware the paper argues NPs don't have.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "core/classifier.h"
#include "core/sched_tree.h"
#include "net/packet.h"
#include "sim/time.h"

namespace flowvalve::core {

enum class Verdict : std::uint8_t { kForward, kDrop };

/// Selectable scheduling disciplines behind the shared contention structure.
enum class BackendKind : std::uint8_t {
  kFlowValve,  // scheduling tree + token buckets + shadow-bucket borrowing
  kStfq,       // PIFO/STFQ start-time ranks as a drop-based admission valve
  kEiffel,     // STFQ ranks tracked in an Eiffel FFS bucket-queue calendar
};

const char* backend_kind_name(BackendKind kind);
/// Parse "fv|flowvalve", "stfq|pifo", "eiffel".
/// Returns false (and leaves `out` untouched) on an unknown name.
bool parse_backend_kind(std::string_view name, BackendKind& out);

/// Per-call outcome with the micro-engine cycles consumed, fed into the NP
/// pipeline's capacity model.
struct SchedDecision {
  Verdict verdict = Verdict::kDrop;
  std::uint32_t cycles = 0;
  bool borrowed = false;  // forwarded via a lender's shadow bucket
};

class SchedulerBackend {
 public:
  /// Cycle cost model for Algorithm 1's constituent operations on the NFP,
  /// a calibration of the Agilio CX: atomic counter adds and the meter
  /// instruction are cheap hardware ops; the update subprocedure does
  /// guarded multiplies/divides (§IV-D). Rank backends reuse the same
  /// budget: a rank computation + admission compare is modeled at meter
  /// cost, a calendar insert/scan at count cost.
  static constexpr std::uint32_t kLockAttemptCycles = 10;
  static constexpr std::uint32_t kUpdateCycles = 320;      // guarded θ recomputation
  static constexpr std::uint32_t kCountCycles = 18;        // atomic add per class
  static constexpr std::uint32_t kMeterCycles = 40;        // atomic meter instruction
  static constexpr std::uint32_t kBorrowQueryCycles = 55;  // shadow bucket meter per lender
  static constexpr std::uint32_t kCommitCycles = 48;       // staged-policy word swap under the lock

  virtual ~SchedulerBackend() = default;

  virtual BackendKind kind() const = 0;

  /// The per-packet scheduling function. `now` is the virtual time at which
  /// the worker core runs. Every backend shares the same prologue (activity
  /// touch + root→leaf update walk under try-locks); only the verdict logic
  /// differs.
  virtual SchedDecision schedule(net::Packet& pkt, sim::SimTime now) = 0;

  /// Aggregate statistics. The first block is discipline-generic; the rank
  /// block stays zero under the FlowValve backend (src/obs exports both).
  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t borrowed = 0;
    std::uint64_t updates = 0;
    std::uint64_t lock_failures = 0;
    std::uint64_t policy_commits = 0;  // staged policies committed on-path

    // -- rank-backend extras ------------------------------------------------
    std::uint64_t rank_admissions = 0;     // forwarded through the rank valve
    std::uint64_t rank_lead_drops = 0;     // finish tag too far ahead of V
    std::uint64_t rank_horizon_drops = 0;  // beyond the Eiffel wheel horizon
    std::uint64_t calendar_rebases = 0;    // Eiffel wheel origin shifts
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  SchedulingTree& tree() { return tree_; }

 protected:
  /// `lock_hold_ns` is the virtual time the update lock is held:
  /// kUpdateCycles at the micro-engine clock.
  SchedulerBackend(SchedulingTree& tree, const LabelTable& labels,
                   sim::SimDuration lock_hold_ns);

  /// Run the update subprocedure for `id` if its epoch elapsed and the
  /// try-lock is won; returns cycles spent. `pkt_epoch` is the policy epoch
  /// the dispatching worker had cut over to: a new-epoch packet that wins a
  /// class's lock also commits that class's staged policy (monotonic
  /// per-class cutover riding the paper's try-lock cycle budget). This is
  /// the contention structure every backend shares — which is also what
  /// keeps the ctrl-plane epoch rollout working under any discipline.
  std::uint32_t maybe_update(ClassId id, sim::SimTime now, std::uint32_t pkt_epoch);

  /// Shared prologue: record activity, then walk the hierarchy class label
  /// root→leaf running maybe_update + the atomic per-class count.
  void walk_path(const QosLabel& label, net::Packet& pkt, sim::SimTime now,
                 SchedDecision& d);

  /// Shared drop epilogue (leaf counters + stats).
  void book_drop(ClassId leaf, const net::Packet& pkt);

  SchedulingTree& tree_;
  const LabelTable& labels_;
  sim::SimDuration lock_hold_ns_;
  Stats stats_;
};

/// Construct the backend for `kind` over a finalized tree. Defined in
/// rank_backends.cpp so scheduling_function.cpp stays FlowValve-only.
std::unique_ptr<SchedulerBackend> make_backend(BackendKind kind,
                                               SchedulingTree& tree,
                                               const LabelTable& labels,
                                               sim::SimDuration lock_hold_ns);

}  // namespace flowvalve::core
