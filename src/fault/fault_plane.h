// FaultPlane — arms a FaultSchedule against a live pipeline and watches it
// heal.
//
// For every event the plane schedules an injection at `at` and (for
// non-permanent faults) a clearing at `at + duration`; after the clearing
// it probes the pipeline on a bounded one-shot chain until it looks healthy
// again — no hung workers, no watchdog retry backlog, and the robustness
// layer's drop counters quiescent since the previous probe — and writes a
// FaultRecord (recovery time + packets lost, by mechanism) into the
// attached obs::RecoveryTracker. Probing gives up at kProbeDeadline so a
// fault the pipeline cannot absorb still terminates the simulation.
//
// Everything is driven off the simulator's virtual clock and the schedule
// content only, so a given (seed, schedule) is bit-reproducible.
#pragma once

#include <memory>
#include <vector>

#include "core/flowvalve.h"
#include "fault/fault.h"
#include "np/nic_pipeline.h"
#include "obs/recovery_tracker.h"
#include "sim/simulator.h"

namespace flowvalve::ctrl {
class ReconfigManager;
}

namespace flowvalve::fault {

class FaultPlane {
 public:
  /// Give up probing for recovery this long after the fault clears (after
  /// the last scheduled clearing, under a compound campaign).
  static constexpr sim::SimDuration kProbeDeadline = sim::milliseconds(50);
  /// Probes run every max(kMinProbePeriod, pipeline watchdog period).
  static constexpr sim::SimDuration kMinProbePeriod = sim::microseconds(100);

  /// `engine` may be null (cache faults become no-ops); `tracker` may be
  /// null (recovery goes unrecorded). Neither is owned; both must outlive
  /// the armed simulation.
  FaultPlane(sim::Simulator& sim, np::NicPipeline& pipeline,
             core::FlowValveEngine* engine, obs::RecoveryTracker* tracker);

  /// Attach the control-plane reconfiguration manager the kTornUpdate /
  /// kStaleEpoch / kUpdateStorm faults target (nullptr detaches; those
  /// kinds then become no-ops). Not owned; must outlive the armed run.
  void set_reconfig(ctrl::ReconfigManager* reconfig) { reconfig_ = reconfig; }

  /// Schedule every event in the schedule. Call once, before running.
  void arm(const FaultSchedule& schedule);

  /// Close the books on faults still open (permanent, or probing when the
  /// run ended): their loss counters are finalized as of now. Idempotent;
  /// call after the simulation drains.
  void finalize();

 private:
  struct Counters {
    std::uint64_t watchdog_drops = 0;
    std::uint64_t timeout_drops = 0;
    std::uint64_t admission_drops = 0;
    std::uint64_t restart_drops = 0;
  };
  struct ActiveFault {
    FaultEvent ev;
    obs::FaultRecord rec;
    Counters at_inject;
    Counters at_last_probe;
    bool closed = false;
    // kIslandBlackout: scheduler/meter runtime captured at injection; the
    // clearing restores from it (crash-recovery state reconstruction).
    core::SchedulingTree::RuntimeSnapshot tree_snapshot;
    bool has_snapshot = false;
    // kFlappingWorker: true while the targets are in the crashed half of
    // the flap cycle (the clearing only needs to repair in that case).
    bool flap_down = false;
  };

  Counters read_counters() const;
  void inject(ActiveFault& f);
  void clear(ActiveFault& f);
  void probe(ActiveFault& f);
  void close(ActiveFault& f, sim::SimTime recovered_at);
  /// One wave of a periodic cache storm (full eviction, same-bucket
  /// collision keys, or churn keys, per the fault's kind).
  void storm_action(ActiveFault& f, std::uint64_t tick);
  void storm_tick(ActiveFault* f, sim::SimTime end, sim::SimDuration period,
                  std::uint64_t tick);
  /// kFlappingWorker's crash/heal oscillator: every half-period the targets
  /// toggle between crashed and repaired, until the final clear() repairs
  /// them for good.
  void flap_tick(ActiveFault* f, sim::SimTime end, sim::SimDuration half);
  sim::SimDuration probe_interval() const;

  sim::Simulator& sim_;
  np::NicPipeline& pipeline_;
  core::FlowValveEngine* engine_;
  obs::RecoveryTracker* tracker_;
  ctrl::ReconfigManager* reconfig_ = nullptr;
  std::vector<std::unique_ptr<ActiveFault>> active_;
  // Under a compound campaign one fault's probe window can overlap another
  // still-active fault; health is only reachable once the LAST scheduled
  // clearing has run, so the give-up deadline anchors there, not at each
  // fault's own clear.
  sim::SimTime last_scheduled_clear_ = 0;
};

}  // namespace flowvalve::fault
