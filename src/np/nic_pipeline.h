// The simulated NP-based SmartNIC processing pipeline (paper Fig. 4).
//
// Packets submitted on SR-IOV VF ports wait in per-VF Rx rings; idle worker
// micro-engines pull them (run-to-completion), invoke the plugged
// PacketProcessor (FlowValve, or a null forwarder), and either drop the
// packet or append it to the shared Tx ring, which the traffic manager
// drains at wire rate. Everything runs in virtual time on the discrete-event
// simulator; worker parallelism is modeled via per-worker busy intervals.
//
// The pipeline also carries a robustness layer (NpConfig::Recovery): a
// watchdog that salvages packets off workers stuck past a cycle budget, a
// bounded reorder-window timeout that flushes past head-of-line holes
// instead of wedging, and optional graceful-degradation admission control.
// Fault hooks (fault_*) let src/fault inject micro-engine, wire, and queue
// faults against a running pipeline; they are inert unless called.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include <optional>

#include "net/device.h"
#include "net/packet.h"
#include "np/np_config.h"
#include "sim/fixed_ring.h"
#include "sim/simulator.h"

namespace flowvalve::np {

/// What a worker core does to each packet. Implementations return the
/// forwarding decision plus the micro-engine cycles consumed.
class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;
  struct Outcome {
    bool forward = true;
    std::uint32_t cycles = 0;
  };
  virtual Outcome process(net::Packet& pkt, sim::SimTime now) = 0;

  /// One packet of a worker burst handed to process_batch. The pipeline
  /// fills `pkt`; the processor fills `out`.
  struct BatchSlot {
    net::Packet* pkt = nullptr;
    Outcome out;
  };

  /// Process a burst of fresh packets pulled by one worker at the same
  /// instant. The default loops process() per slot, so every processor is
  /// batch-correct by construction; FlowValveProcessor overrides this to
  /// amortize EMC flow-cache lookups across same-flow packets. Must fill
  /// every slot's `out` with exactly what per-packet process() calls at
  /// `now` would have produced (the batch-1-vs-32 differential oracle in
  /// tests/test_np_batch_diff.cpp holds implementations to that).
  virtual void process_batch(BatchSlot* slots, std::size_t n, sim::SimTime now) {
    for (std::size_t i = 0; i < n; ++i) slots[i].out = process(*slots[i].pkt, now);
  }
};

/// Forwards everything at zero extra cost — the "FlowValve disabled" mode
/// used by the paper to isolate the pipeline's intrinsic delay.
class NullProcessor final : public PacketProcessor {
 public:
  Outcome process(net::Packet&, sim::SimTime) override { return {true, 0}; }
};

enum class DropReason : std::uint8_t {
  kVfRingFull,      // PCIe-side backpressure
  kScheduler,       // FlowValve's specialized tail drop
  kTxRingFull,      // common tail drop at the shared FIFO
  kReorderFlush,    // completion arrived after its slot was flushed as lost
  kReorderTimeout,  // head-of-line hole aged out; occupants declared lost
  kWatchdogAbort,   // salvaged off a stuck worker, retry budget exhausted
  kAdmission,       // graceful-degradation proportional drop under overload
  kIslandRestart,   // in-flight occupant of an island that blacked out
};

const char* drop_reason_name(DropReason reason);

/// Runtime fault injection against a live pipeline, used by src/fault (and
/// by src/check to prove the invariant checkers catch real pipeline bugs —
/// a checker that never fires is worthless). All fields 0 ⇒ inert.
struct InjectedFaults {
  /// Every Nth forwarded packet vanishes after its worker finishes: no
  /// reorder commit, no Tx admit, no drop accounting. Breaks packet
  /// conservation and stalls the reorder window behind the hole.
  std::uint64_t leak_commit_every = 0;

  /// Every Nth forwarded packet bypasses the reorder system (admitted to
  /// the Tx ring immediately, its sequence committed as a hole). Breaks
  /// in-order delivery without stalling the pipeline.
  std::uint64_t bypass_reorder_every = 0;

  bool any() const { return leak_commit_every || bypass_reorder_every; }
};

/// Control-plane hook consulted at each worker's safe burst boundary — the
/// instant an idle worker pulls fresh packets, before its run-to-completion
/// interval starts. The hook decides which policy epoch every fresh packet
/// of the burst is stamped with (a cutover can only land between bursts,
/// never mid-burst) and may charge extra micro-engine cycles for a cutover
/// performed at this boundary (src/ctrl staged rollout). `packets` is the
/// number of fresh packets the boundary covers, so per-packet accounting
/// (e.g. the mixed-epoch window) stays exact at any batch size. Watchdog
/// retries are NOT re-stamped: a salvaged packet keeps the epoch of its
/// original dispatch, as a real salvaged context would, and all-retry
/// bursts skip the hook entirely.
class ControlHook {
 public:
  virtual ~ControlHook() = default;
  struct Cutover {
    std::uint32_t epoch = 0;         // policy epoch to stamp the burst with
    std::uint32_t extra_cycles = 0;  // cutover work charged to this burst
  };
  virtual Cutover on_packet_boundary(unsigned worker, sim::SimTime now,
                                     unsigned packets) = 0;
};

/// Passive tap on every pipeline lifecycle event, independent of the
/// delivery/drop callbacks (which the traffic FlowRouter owns). src/check
/// attaches its invariant harness here; all hooks default to no-ops so the
/// pipeline costs nothing when unobserved.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;
  /// Host submitted a packet (before the VF-ring admission check).
  virtual void on_submit(const net::Packet&, sim::SimTime) {}
  /// The load balancer handed the packet to an idle worker; `busy` is the
  /// packet's own slice of the run-to-completion interval. Within a burst
  /// the hook fires once per packet at staggered logical instants that tile
  /// the burst's busy window back-to-back (packet i starts where packet
  /// i-1's slice ends), so per-packet latency decomposition and the
  /// worker-exclusivity invariant stay exact at any batch size. Fires again
  /// with the same ingress_seq if the watchdog requeues the packet.
  virtual void on_dispatch(const net::Packet&, unsigned /*worker*/,
                           std::uint64_t /*ingress_seq*/, sim::SimTime,
                           sim::SimDuration /*busy*/) {}
  virtual void on_drop(const net::Packet&, DropReason, sim::SimTime) {}
  /// The watchdog aborted a worker's in-progress execution and salvaged its
  /// packet (requeued for re-dispatch under the same ingress_seq, or — if
  /// the retry budget is gone or the slot already timed out — dropped).
  virtual void on_watchdog(const net::Packet&, unsigned /*worker*/,
                           std::uint64_t /*ingress_seq*/, sim::SimTime) {}
  /// Last bit of the frame left on the wire at pkt.wire_tx_done. Fires when
  /// the frame's drain batch completes: at that instant or later, never
  /// before.
  virtual void on_wire_tx(const net::Packet&, sim::SimTime) {}
  /// Observed at the receiver at pkt.delivered_at (after the fixed pipeline
  /// delay). Fires from the coalesced delivery flush: at that instant or
  /// later, never before.
  virtual void on_delivered(const net::Packet&, sim::SimTime) {}
};

class NicPipeline final : public net::EgressDevice {
 public:
  /// Island-restart probation (DESIGN.md §16): workers restarted after an
  /// island blackout re-enter behind a forced admission modulus (drop every
  /// Nth submission) for kRestartProbation, instead of cold-starting the
  /// refilled island at full offered rate while its scheduler state and
  /// flow cache are still re-warming.
  static constexpr std::uint64_t kRestartProbationModulus = 8;
  static constexpr sim::SimDuration kRestartProbation = sim::microseconds(500);

  NicPipeline(sim::Simulator& sim, NpConfig config, PacketProcessor& processor);

  /// Host-side submission on a VF port. Returns false if the packet was
  /// dropped at admission (VF ring full, or degradation-mode proportional
  /// drop); the drop callback fires either way.
  bool submit(net::Packet pkt) override;

  /// Attach a passive observer (nullptr detaches). Not owned; must outlive
  /// the pipeline or be detached first.
  void set_observer(PipelineObserver* observer) { observer_ = observer; }

  /// Attach the control-plane cutover hook (nullptr detaches). Not owned;
  /// must outlive the pipeline or be detached first.
  void set_control_hook(ControlHook* hook) { control_hook_ = hook; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t vf_ring_drops = 0;
    std::uint64_t scheduler_drops = 0;
    std::uint64_t tx_ring_drops = 0;
    std::uint64_t reorder_flush_drops = 0;  // late completions of flushed slots
    std::uint64_t forwarded_to_wire = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t worker_busy_ns = 0;   // Σ completed per-worker busy time
    std::uint64_t processed = 0;        // packets through a worker (incl. retries)
    std::uint64_t processing_cycles = 0;
    std::uint64_t reorder_flushes = 0;          // forced gap skips at the cap
    std::uint64_t reorder_occupancy_peak = 0;   // high-water buffered packets
    // Robustness layer.
    std::uint64_t watchdog_requeues = 0;        // salvaged + requeued packets
    std::uint64_t watchdog_drops = 0;           // retry budget exhausted
    std::uint64_t reorder_timeout_flushes = 0;  // aged-out holes skipped
    std::uint64_t reorder_timeout_drops = 0;    // occupants of aged-out holes
    std::uint64_t admission_drops = 0;          // degradation-mode tail drops
    std::uint64_t workers_repaired = 0;         // hung workers rejoining
    std::uint64_t island_restart_drops = 0;     // doomed by an island blackout
    std::uint64_t islands_restarted = 0;        // completed blackout restarts
  };
  const Stats& stats() const { return stats_; }
  const NpConfig& config() const { return config_; }

  /// Mean worker utilization in [0,1] over [0, now]. Completed busy
  /// intervals are credited in full; a busy interval straddling `now` is
  /// credited only for its elapsed part, so the result never exceeds 1.
  double worker_utilization(sim::SimTime now) const;

  /// Packets currently waiting in VF rings + Tx ring + in flight.
  std::size_t in_flight() const { return in_flight_; }

  /// Completed packets currently parked in the reorder buffer.
  std::size_t reorder_occupancy() const { return reorder_count_; }

  /// Reorder sliding-window span in sequence numbers (power of two).
  std::size_t reorder_window() const { return reorder_ring_.size(); }

  /// Workers wedged by an injected stall/crash, awaiting repair_worker().
  unsigned hung_workers() const;

  /// Packets salvaged by the watchdog, waiting for re-dispatch.
  std::size_t retry_backlog() const { return retry_queue_.size(); }

  /// Recovery budgets derived from the cycle model (NpConfig::Recovery).
  sim::SimDuration watchdog_budget() const { return watchdog_budget_; }
  sim::SimDuration watchdog_scan_period() const { return watchdog_scan_period_; }
  sim::SimDuration reorder_timeout() const { return reorder_timeout_; }

  /// Current degradation-mode drop modulus (0 when admission is idle).
  std::uint64_t admission_modulus() const {
    return admission_active_ ? admission_modulus_ : 0;
  }

  // --- Control-plane degradation (src/ctrl) ------------------------------
  // During a stalled policy rollout the reconfiguration manager may shed
  // load through the existing admission machinery. While forced, the
  // watermark automation neither escalates nor disengages it; only
  // control_release_admission() does.

  /// Engage admission shedding at a fixed modulus (drop every Nth submit).
  /// No-op when `modulus` is 0.
  void control_force_admission(std::uint64_t modulus);

  /// Release a forced shed; watermark-driven admission resumes from idle.
  void control_release_admission();

  bool admission_forced() const { return admission_forced_; }
  /// True while a restarted island holds the forced-admission valve as
  /// post-restart probation (a legitimate non-reconfig use of the valve —
  /// the swap-conservation checker must not attribute its drops to a swap).
  bool restart_probation_active() const { return restart_probation_active_; }

  // --- Fault hooks (src/fault) -------------------------------------------
  // All hooks are deterministic and inert until called. Worker faults mark
  // the target `fault_frozen`; a frozen worker never rejoins the idle pool
  // on its own — only repair_worker() (the fault clearing) brings it back.

  /// Freeze worker `w`: if busy, its completion is postponed by `duration`
  /// (the watchdog salvages the packet if the postponement exceeds the
  /// budget); if idle, it is pulled from the pool until repaired.
  void fault_stall_worker(unsigned w, sim::SimDuration duration);

  /// Kill worker `w`: an in-progress execution never completes (the
  /// watchdog must salvage its packet); the worker stays dead until
  /// repair_worker().
  void fault_crash_worker(unsigned w);

  /// Clear a stall/crash on worker `w`; a hung worker rejoins the pool.
  void repair_worker(unsigned w);

  // --- Island failure domains (DESIGN.md §16) ----------------------------
  // Islands are NpConfig::island_range groups; they die and restart as a
  // unit. Blackout is crash-only: every in-flight occupant of the island is
  // dropped immediately (DropReason::kIslandRestart) with its reorder slot
  // committed as a gap, so conservation holds across the boundary and the
  // window never waits on a dead worker. Restart re-admits the island's
  // workers and, when configured, runs them under admission probation.

  /// Black out island `island` (clamped to the last island): each of its
  /// workers drops its whole burst, is removed from the idle pool, and is
  /// marked fault-frozen until restart_island()/repair_worker().
  void fault_blackout_island(unsigned island);

  /// Restart island `island`: every frozen/hung worker of the island
  /// rejoins the pool, and — if no one else (control plane, overload
  /// escalation) holds the admission valve — forced admission shedding at
  /// kRestartProbationModulus engages for kRestartProbation before
  /// auto-releasing.
  void restart_island(unsigned island);

  /// Scale the Tx drain rate by `factor` ∈ [0, 1]; 0 pauses the wire (the
  /// frame currently serializing still finishes). 1 restores full rate.
  void fault_set_wire_factor(double factor);

  /// Cap the Tx ring below its configured capacity (0 restores). Packets
  /// already queued above the cap drain normally; new admissions tail-drop.
  void fault_set_tx_capacity(std::size_t capacity);

  /// Freeze the reorder release pointer: completions park in the buffer
  /// (no capacity flushing, no timeout flushing) until unfrozen.
  void fault_freeze_reorder(bool frozen);

  /// Runtime leak/bypass bug injection (see InjectedFaults).
  void set_injected_faults(InjectedFaults faults) { injected_ = faults; }
  const InjectedFaults& injected_faults() const { return injected_; }

 private:
  /// One packet of a worker's in-flight burst. `busy` is this packet's own
  /// slice of the run-to-completion interval; the burst's slices tile the
  /// worker's busy window back-to-back in pull order.
  struct BurstItem {
    net::Packet pkt;
    std::uint64_t seq = 0;
    sim::SimDuration busy = 0;
    bool forward = false;
    unsigned retries = 0;           // re-executions already consumed
    bool doomed = false;            // packet already dropped by a flush
  };

  struct WorkerCtx {
    enum class State : std::uint8_t { kIdle, kBusy, kHung };
    State state = State::kIdle;
    std::uint32_t epoch = 0;        // guards stale completion closures
    sim::SimTime busy_start = 0;    // valid while kBusy
    sim::SimTime busy_end = 0;      // scheduled completion instant
    sim::EventHandle completion;
    std::vector<BurstItem> burst;   // valid while kBusy; ≤ batch_size items
    bool fault_frozen = false;      // stall/crash injected; awaits repair
  };

  struct RetryEntry {
    net::Packet pkt;
    std::uint64_t seq = 0;
    bool forward = false;
    unsigned retries = 0;
  };

  /// One slot of the reorder sliding window, indexed by ingress_seq & mask.
  /// kDropped marks a sequence committed without a packet (scheduler drop,
  /// watchdog give-up, injected bypass) so the window can advance past it.
  struct ReorderSlot {
    enum class State : std::uint8_t { kEmpty, kPacket, kDropped };
    State state = State::kEmpty;
    net::Packet pkt;  // valid iff state == kPacket
  };

  void try_dispatch();
  /// Pull up to batch_size packets (retries first, then round-robin over the
  /// VF rings in the legacy pull order) into `worker`'s burst, consult the
  /// control hook once, run the processor's batch hook, fire staggered
  /// per-packet on_dispatch observers, and schedule ONE completion event at
  /// busy_start + Σ per-packet busy. Precondition: the worker is idle,
  /// already popped from idle_workers_, and work is pending (retry queue or
  /// VF rings non-empty).
  void dispatch_burst(unsigned worker);
  void on_completion(unsigned worker, std::uint32_t epoch);
  /// Reorder system: commit `seq` with a packet to transmit and release any
  /// now-in-order packets to the Tx ring. reorder_commit_gap commits a
  /// sequence without a packet (scheduler drop, watchdog give-up, injected
  /// bypass) so the window can advance past it.
  void reorder_commit(std::uint64_t seq, net::Packet&& pkt);
  void reorder_commit_gap(std::uint64_t seq);
  /// Shared tail of the commit paths: occupancy accounting, then
  /// reorder_advance.
  ReorderSlot& reorder_slot_for(std::uint64_t seq);
  void reorder_committed();
  /// In-order release and the capacity cap (both skipped while frozen),
  /// then hole tracking. Buffered commits and the unfreeze end here.
  void reorder_advance();
  void release_reorder_prefix();
  /// Declare the head-of-line hole [next_release_seq_, oldest buffered seq)
  /// lost: drop every live occupant (worker-burst item or retry-queue
  /// entry) with `reason`, jump the release pointer past the hole, and
  /// release the now-in-order prefix. The only way the pointer skips a
  /// hole, so drops always precede the deliveries that overtake them.
  void skip_reorder_hole(DropReason reason);
  void update_hole_tracking();
  /// Oldest buffered (non-empty) sequence; precondition reorder_count_ > 0.
  std::uint64_t oldest_buffered_seq() const;
  /// Double the reorder window until `seq` fits (frozen-release pathology;
  /// preserves the old map's grow-without-bound semantics).
  void grow_reorder_ring(std::uint64_t seq);
  void tx_admit(net::Packet pkt);
  /// Arm the traffic-manager drain: up to batch_size queued frames under
  /// ONE event, each frame's wire_tx_done stamped analytically AT ARM TIME
  /// (so a mid-batch wire_factor fault cannot corrupt timestamps already
  /// committed to the wire model).
  void arm_tx_drain();
  void tx_drain_batch_complete(std::size_t frames);
  /// Deliver every queued packet whose delivered_at ≤ now (coalesced
  /// delivery: at most one flush event pending, armed at the queue tail's
  /// delivered_at), then re-arm for the new tail if any remains.
  void delivery_flush();
  void drop(const net::Packet& pkt, DropReason reason);

  // Watchdog machinery: a lazily armed one-shot chain that ticks only while
  // there is work it could act on, so a drained pipeline schedules nothing
  // and run_all() still quiesces.
  bool watchdog_work_pending() const;
  /// Hot-path wrapper: at steady state the watchdog is already armed, so
  /// the per-packet callers pay one flag test, not a function call.
  void maybe_arm_watchdog() {
    if (watchdog_armed_) return;
    arm_watchdog_slow();
  }
  void arm_watchdog_slow();
  void watchdog_tick();
  void watchdog_abort(unsigned worker);
  void reorder_timeout_flush();
  void admission_update();
  std::size_t effective_tx_capacity() const;

  sim::Simulator& sim_;
  NpConfig config_;
  PacketProcessor& processor_;

  std::vector<sim::FixedRing<net::Packet>> vf_rings_;
  std::vector<WorkerCtx> workers_;
  std::vector<unsigned> idle_workers_;
  unsigned rr_vf_ = 0;  // round-robin pull pointer over VF rings
  std::size_t vf_waiting_ = 0;  // packets across all VF rings (scan early-out)
  unsigned vf_index_mask_ = 0;  // num_vfs - 1 when num_vfs is a power of two
  std::deque<RetryEntry> retry_queue_;  // watchdog-salvaged, served first

  sim::FixedRing<net::Packet> tx_ring_;
  bool tx_draining_ = false;
  std::uint32_t ser_cache_bytes_ = 0;     // memo: serialization_delay of the
  sim::SimDuration ser_cache_delay_ = 0;  // last wire occupancy (factor 1.0)
  double wire_factor_ = 1.0;          // injected wire dip (1 = healthy)
  std::size_t tx_capacity_override_ = 0;  // injected backpressure (0 = none)

  // Coalesced receiver-side delivery: packets whose delivered_at is already
  // stamped wait here for one flush event armed at the queue tail's
  // delivered_at.
  std::deque<net::Packet> delivery_queue_;
  bool delivery_armed_ = false;

  // Completion-scratch: on_completion swaps the worker's burst here before
  // running commit callbacks, so a synchronous submit() from a drop callback
  // can safely re-dispatch the same worker. Completions never nest (events
  // serialize), so one scratch suffices.
  std::vector<BurstItem> burst_scratch_;
  std::vector<PacketProcessor::BatchSlot> slot_scratch_;

  // Reorder system state.
  std::uint64_t next_ingress_seq_ = 0;   // assigned at dispatch
  std::uint64_t next_release_seq_ = 0;   // next seq allowed into the Tx ring
  // Power-of-two sliding window over ingress sequence numbers: slot for
  // seq s is reorder_ring_[s & reorder_mask_]. Spans [next_release_seq_,
  // next_release_seq_ + window); sized so steady-state traffic (capacity
  // cap + every in-flight/retry slot) never wraps onto a live entry.
  std::vector<ReorderSlot> reorder_ring_;
  std::uint64_t reorder_mask_ = 0;
  std::size_t reorder_count_ = 0;     // occupied (non-kEmpty) slots
  bool reorder_frozen_ = false;       // injected release-pointer stall
  bool hole_active_ = false;          // head-of-line hole currently open
  std::uint64_t hole_seq_ = 0;        // the missing seq the window waits on
  sim::SimTime hole_since_ = 0;       // when that hole opened

  // Recovery budgets, derived in the constructor.
  sim::SimDuration watchdog_budget_ = 0;
  sim::SimDuration watchdog_scan_period_ = 0;
  sim::SimDuration reorder_timeout_ = 0;
  bool watchdog_armed_ = false;

  // Graceful-degradation admission state.
  bool admission_active_ = false;
  bool admission_forced_ = false;  // control-plane override (src/ctrl)
  // Island-restart probation: restart_island() forced the valve and armed a
  // timed release. The token invalidates a pending release when probation
  // is superseded (another restart, or src/ctrl taking the valve).
  bool restart_probation_active_ = false;
  std::uint64_t probation_token_ = 0;
  std::uint64_t admission_modulus_ = 0;
  std::uint64_t admission_seq_ = 0;     // submissions seen while active
  unsigned admission_over_ticks_ = 0;   // consecutive ticks over watermark

  PipelineObserver* observer_ = nullptr;
  ControlHook* control_hook_ = nullptr;

  Stats stats_;
  std::size_t in_flight_ = 0;
  InjectedFaults injected_;
  std::uint64_t forward_count_ = 0;  // injected-fault modulo counter
};

}  // namespace flowvalve::np
