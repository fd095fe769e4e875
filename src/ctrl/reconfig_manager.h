// Epoch-versioned staged rollout of validated policy updates with probation
// and automatic rollback — the control-plane counterpart of the data
// plane's self-healing layer (PR 3).
//
// Protocol (DESIGN.md §11):
//   1. shadow validation (validator.h) — reject before touching anything;
//   2. stage: the target policies are parked next to the live ones
//      (SchedulingTree::stage) under a new epoch number;
//   3. staged rollout: each worker micro-engine cuts over at its next safe
//      per-packet boundary (NicPipeline::ControlHook), in waves; a cut-over
//      worker stamps packets with the new epoch, and the first new-epoch
//      packet to win a class's try-lock commits that class's staged policy
//      inside the guarded section (paper Fig. 8 cycle model);
//   4. probation: for a window after the epoch flips, the manager checks
//      every period that no worker is stuck on a stale epoch;
//   5. commit — or automatic, deterministic rollback restoring the prior
//      policies at a new (strictly higher) epoch number.
//
// Degradation is explicit and bounded: the manager itself never drops a
// packet; mixed-epoch scheduling is confined to the rollout window (and
// counted); if the rollout stalls past a timeout, the remaining workers are
// force-cut and — only if the pipeline is loaded — admission shedding from
// PR 3 is engaged until the update resolves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flowvalve.h"
#include "ctrl/policy_update.h"
#include "ctrl/validator.h"
#include "np/nic_pipeline.h"
#include "obs/reconfig_tracker.h"
#include "sim/simulator.h"

namespace flowvalve::ctrl {

class ReconfigManager final : public np::ControlHook {
 public:
  /// Workers cut over in kRolloutWaves waves of max(1, num_workers /
  /// kRolloutWaves) each.
  static constexpr unsigned kRolloutWaves = 4;
  /// Micro-engine cycles charged at a worker's cutover boundary (epoch
  /// register write + staged-pointer fetch under the try-lock model).
  static constexpr std::uint32_t kCutoverCycles = 330;
  /// Rollout older than this without full cutover ⇒ stall handling.
  static constexpr sim::SimDuration kStallTimeout = sim::milliseconds(2);
  /// Admission modulus forced while a stalled swap resolves (drop every
  /// Nth submission) — only engaged when the pipeline is actually loaded.
  static constexpr std::uint64_t kStallShedModulus = 8;
  /// Observation window between cutover and permanent commit.
  static constexpr sim::SimDuration kProbation = sim::milliseconds(5);
  /// Stale-worker check period during probation.
  static constexpr sim::SimDuration kGuardPeriod = kProbation / 8;

  enum class State : std::uint8_t { kIdle, kRollout, kProbation };

  /// Lifecycle callbacks for checkers/tests. All default to no-ops.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_staged(std::uint32_t /*target_epoch*/, sim::SimTime) {}
    virtual void on_committed(std::uint32_t /*epoch*/, sim::SimTime) {}
    virtual void on_rolled_back(std::uint32_t /*from*/, std::uint32_t /*to*/,
                                const std::string& /*reason*/, sim::SimTime) {}
    virtual void on_stall(std::uint32_t /*target_epoch*/, sim::SimTime) {}
  };

  /// `tracker` may be null (no records kept). The manager attaches itself
  /// as the pipeline's control hook and detaches in its destructor.
  ReconfigManager(sim::Simulator& sim, np::NicPipeline& pipeline,
                  core::FlowValveEngine& engine, obs::ReconfigTracker* tracker);
  ~ReconfigManager() override;

  ReconfigManager(const ReconfigManager&) = delete;
  ReconfigManager& operator=(const ReconfigManager&) = delete;

  void set_observer(Observer* observer) { observer_ = observer; }

  /// Submit an update. Returns empty on acceptance (rollout started, or
  /// coalesced behind the in-progress one), else the rejection reason.
  std::string apply(const PolicyUpdate& update);

  /// Operator-initiated rollback of the in-progress or probation update.
  /// Returns false when idle (nothing to roll back).
  bool rollback(const std::string& reason = "operator");

  State state() const { return state_; }
  bool busy() const { return state_ != State::kIdle || queued_.has_value(); }
  std::uint32_t epoch() const { return epoch_; }
  std::uint32_t target_epoch() const { return target_; }
  /// Epoch worker `w` currently stamps packets with.
  std::uint32_t worker_epoch(unsigned w) const;

  // --- Control-plane fault hooks (src/fault) -----------------------------

  /// Latched torn-update: the next rollout's staged multi-word policy write
  /// tears mid-flight — every `stride`-th manifest class keeps its OLD
  /// policy words in the staged image even though validation approved the
  /// new ones. Whichever path commits (per-packet try-lock pull or the
  /// finish sweep) installs the torn image; the post-commit verification
  /// must detect the mismatch and roll back deterministically.
  void fault_tear_update(unsigned stride) { tear_stride_ = stride == 0 ? 1 : stride; }
  /// Un-latch a pending torn-update fault (FaultPlane clear path).
  void clear_tear_fault() { tear_stride_ = 0; }

  /// Sticky stale-epoch fault: worker `w` never acknowledges a cutover.
  /// A rollout including it stalls and resolves via rollback.
  void fault_stale_worker(unsigned w);
  /// Clear all stale-epoch faults (FaultPlane clear path).
  void repair_stale_workers();

  /// Update storm: `n` back-to-back no-op delta updates; the first starts a
  /// rollout, the rest coalesce behind it.
  void storm(unsigned n);

  struct Stats {
    std::uint64_t applied = 0;      // accepted updates (incl. queued)
    std::uint64_t rejected = 0;     // failed shadow validation
    std::uint64_t committed = 0;    // survived probation
    std::uint64_t rolled_back = 0;  // stale-worker/tear/operator rollbacks
    std::uint64_t coalesced = 0;    // queued updates overwritten by newer ones
    std::uint64_t stalled = 0;      // rollouts that hit the stall timeout
    std::uint64_t mixed_epoch_packets = 0;
    std::uint64_t forced_cutovers = 0;
    bool admission_forced = false;  // shedding was engaged at least once
  };
  const Stats& stats() const { return stats_; }

  Cutover on_packet_boundary(unsigned worker, sim::SimTime now,
                             unsigned packets) override;

 private:
  unsigned wave() const;
  void begin_rollout(ValidatedUpdate&& v, const std::string& kind, sim::SimTime now);
  void finish_rollout(sim::SimTime now);
  void on_stall_timeout();
  void guard_tick();
  void commit(sim::SimTime now);
  void do_rollback(const std::string& reason, sim::SimTime now);
  void close_record(sim::SimTime now, std::string outcome);
  void dequeue();

  sim::Simulator& sim_;
  np::NicPipeline& pipeline_;
  core::FlowValveEngine& engine_;
  obs::ReconfigTracker* tracker_;

  State state_ = State::kIdle;
  std::uint32_t epoch_ = 0;   // committed epoch (mirrors the tree)
  std::uint32_t target_ = 0;  // epoch being rolled out / on probation

  core::SchedulingTree::PolicyManifest manifest_;  // staged target policies
  core::SchedulingTree::PolicyManifest prior_;     // snapshot for rollback
  std::vector<core::FilterRule> new_filters_, prior_filters_;
  net::ClassLabelId new_default_ = net::kUnclassified;
  net::ClassLabelId prior_default_ = net::kUnclassified;
  bool pending_filter_swap_ = false;  // this update replaces the filter set
  bool filters_swapped_ = false;      // the replacement has been performed

  std::vector<bool> cut_;    // worker cut over to target_
  std::vector<bool> stale_;  // injected stale-epoch fault
  unsigned cut_count_ = 0;
  unsigned eligible_limit_ = 0;  // staged-wave cutover budget

  std::optional<PolicyUpdate> queued_;
  sim::EventHandle stall_timer_;
  sim::EventHandle guard_timer_;
  sim::SimTime probation_end_ = 0;

  Observer* observer_ = nullptr;
  obs::ReconfigRecord open_;  // record of the in-progress update
  unsigned tear_stride_ = 0;  // latched torn-update fault (0 = none)

  Stats stats_;
};

}  // namespace flowvalve::ctrl
