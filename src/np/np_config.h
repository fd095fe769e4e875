// Configuration of the simulated NP-based SmartNIC (paper §III-B, Fig. 4).
//
// The defaults approximate a Netronome Agilio CX 40GbE: tens of worker
// micro-engine contexts at 1.2 GHz, a shared Tx ring drained by the traffic
// manager at wire rate, and per-VF receive rings on the PCIe side.
//
// The cycle model is a calibration of that NP, not a per-run choice, so it
// is constants rather than fields: kBaseRxCycles/kBaseTxCycles below cover
// buffer pulls, header parsing, packet modification and the reorder system
// — everything a worker does besides FlowValve's labeling + scheduling
// functions, whose costs live beside the code that charges them
// (core::Classifier::kCacheHitCycles..., core::SchedulerBackend::
// kUpdateCycles...). A slower or faster NP is modeled through freq_ghz.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scheduler_backend.h"
#include "sim/time.h"

namespace flowvalve::np {

using sim::Rate;
using sim::SimDuration;

/// Per-packet fixed worker cost outside the scheduler: pull from the Rx
/// ring + parse (kBaseRxCycles), and modify + copy into the Tx ring +
/// reorder bookkeeping (kBaseTxCycles, forwarded packets only). ~2800
/// cycles in all leaves ~250 cycles for the labeling + scheduling functions
/// within a ~3050-cycle/packet budget, which yields the ≈19.7 Mpps peak of
/// Fig. 13 on 50 workers at 1.2 GHz.
inline constexpr std::uint32_t kBaseRxCycles = 1100;
inline constexpr std::uint32_t kBaseTxCycles = 1700;

struct NpConfig {
  /// Effective worker contexts (micro-engines × useful threads). The Agilio
  /// CX exposes ~50 usable worker MEs to P4/Micro-C programs.
  unsigned num_workers = 50;

  /// Micro-engine clock. Agilio CX islands run at 1.2 GHz (§IV-D).
  double freq_ghz = 1.2;

  /// NP islands: contiguous worker groups that share power/memory rails and
  /// fail as a unit (the NFP-4000 packs MEs into islands; SuperNIC makes
  /// the same groups the tenant failure-domain boundary). Worker w belongs
  /// to island w / island_size(). Clamped to num_workers; 5 islands of 10
  /// workers on the default 50-worker Agilio model.
  unsigned num_islands = 5;

  /// Wire-side port rate (the single physical port we model).
  Rate wire_rate = Rate::gigabits_per_sec(40);

  /// Shared Tx FIFO depth (packets) in front of the traffic manager. This is
  /// the queue FlowValve abstracts as F0 and protects via proportional tail
  /// drop; common tail drop happens here when it overflows.
  std::size_t tx_ring_capacity = 2048;

  /// Per-VF receive ring depth (packets) on the PCIe side. Overflow models
  /// host-driver backpressure and surfaces to senders as loss.
  std::size_t vf_ring_capacity = 512;

  /// Number of SR-IOV virtual function ports.
  unsigned num_vfs = 8;

  /// Worker burst size: an idle micro-engine pulls up to this many packets
  /// from the load balancer in one go (retries first, then round-robin over
  /// the VF rings), runs them back-to-back as one run-to-completion interval
  /// and completes them with a single timing-wheel event; the traffic
  /// manager drains up to this many frames per event. 1 is the one-packet
  /// end of the same data path (the differential oracle in
  /// tests/test_np_batch_diff.cpp holds every size equivalent); 32 matches
  /// what real NP/DPDK data paths move per burst.
  unsigned batch_size = 32;

  /// Scheduling discipline the worker micro-engines run behind the shared
  /// labeling + try-lock contention structure (core/scheduler_backend.h).
  /// FlowValve's tree is the default; STFQ/Eiffel rank valves are
  /// selectable per NIC (and per fuzz scenario / fuzz_check --backend).
  core::BackendKind backend = core::BackendKind::kFlowValve;

  /// Exact-match flow-cache capacity in entries (the cuckoo EMC clamps this
  /// to at least two 4-slot buckets and a power-of-two bucket count). The
  /// million-flow scale bench raises it; the default matches the Agilio
  /// EMC's 64k-flow table.
  std::size_t emc_capacity = 64 * 1024;

  /// Evict EMC entries idle for longer than this (amortized into lookups).
  /// 0 keeps idle eviction off — pure LRU-under-pressure, the legacy
  /// behavior every differential oracle runs with.
  SimDuration emc_idle_timeout = 0;

  /// The reorder system (Fig. 4): when enabled, packets enter the Tx FIFO
  /// in their NIC-arrival order even if a later packet's worker finished
  /// first (run-to-completion cores take different cycle counts per packet).
  /// Dropped packets release their slot immediately.
  bool enforce_reorder = true;

  /// Reorder-buffer occupancy cap (completed packets parked behind a
  /// sequence hole). Real reorder engines have finite slot memory: when the
  /// cap is exceeded the engine declares the missing sequence lost, skips
  /// the hole, and releases the in-order prefix; a completion arriving for
  /// an already-skipped sequence is dropped (DropReason::kReorderFlush).
  /// Sized so the worst legitimate service-time disparity across workers
  /// never reaches it — only a stuck/leaked completion does.
  std::size_t reorder_capacity = 4096;

  /// Fixed latency of the rest of the NIC pipeline (DMA, internal queueing,
  /// reorder system). The paper measures 161 µs at 40 Gbps even with
  /// FlowValve disabled and attributes it to processing it could not
  /// change; at 10 Gbps the same path is far shallower.
  SimDuration fixed_pipeline_delay = sim::microseconds(40);

  /// Self-healing policy for the pipeline's robustness layer (watchdog,
  /// reorder-window timeout, graceful-degradation admission control). The
  /// watchdog and timeout default ON with budgets derived from the cycle
  /// model — generous enough that a fault-free pipeline never trips them —
  /// while admission control defaults OFF so baseline drop accounting is
  /// unchanged unless a scenario opts in.
  struct Recovery {
    /// Watchdog: the budget bounds ONE packet's service time; a worker busy
    /// past budget × (packets in its burst) is declared stuck and its whole
    /// in-flight burst is salvaged — each packet requeued (up to three
    /// times, kWatchdogMaxRetries in nic_pipeline.cpp) or dropped with
    /// DropReason::kWatchdogAbort.
    /// 0 derives the budget from the cycle model: max(250 µs,
    /// 64 × cycles_to_ns(kBaseRxCycles + kBaseTxCycles)); negative disables
    /// the watchdog entirely. The watchdog scans four times per budget
    /// (nic_pipeline.cpp).
    SimDuration watchdog_budget = 0;

    /// Reorder-window hole timeout: a head-of-line hole older than this is
    /// declared lost and flushed past (DropReason::kReorderTimeout) instead
    /// of wedging the window until the capacity cap. 0 derives
    /// 2 × watchdog budget; negative disables timeout flushing.
    SimDuration reorder_timeout = 0;

    /// Graceful degradation: under sustained Tx-ring occupancy above the
    /// high watermark, drop every Nth submission at the VF boundary
    /// (proportionally, before the rings grow), escalating N = start → …
    /// → min modulus while overload persists; disengage below the low
    /// watermark. OFF by default; the watermarks and moduli are constants
    /// in nic_pipeline.cpp. Island-restart probation
    /// (NicPipeline::kRestartProbation) engages regardless.
    bool admission_enabled = false;
  };
  Recovery recovery;

  /// Reject configurations the pipeline cannot run: num_vfs == 0 is a
  /// modulo-by-zero in submit/try_dispatch, num_workers == 0 deadlocks
  /// dispatch, zero ring/reorder capacities silently drop or wedge every
  /// packet, and non-positive clock/wire rates break the delay arithmetic.
  /// Throws std::invalid_argument; called from the NicPipeline constructor.
  void validate() const {
    auto reject = [](const std::string& what) {
      throw std::invalid_argument("NpConfig: " + what);
    };
    if (num_workers == 0) reject("num_workers must be >= 1");
    if (num_vfs == 0) reject("num_vfs must be >= 1");
    if (batch_size == 0) reject("batch_size must be >= 1");
    if (batch_size > 4096) reject("batch_size must be <= 4096");
    if (vf_ring_capacity == 0) reject("vf_ring_capacity must be >= 1");
    if (tx_ring_capacity == 0) reject("tx_ring_capacity must be >= 1");
    if (reorder_capacity == 0) reject("reorder_capacity must be >= 1");
    if (!(freq_ghz > 0.0)) reject("freq_ghz must be > 0");
    if (wire_rate.is_zero()) reject("wire_rate must be > 0");
    if (fixed_pipeline_delay < 0) reject("fixed_pipeline_delay must be >= 0");
    if (emc_idle_timeout < 0) reject("emc_idle_timeout must be >= 0");
    if (num_islands == 0) reject("num_islands must be >= 1");
  }

  /// Failure-domain geometry. Islands partition [0, num_workers) into
  /// contiguous ranges of island_size() workers; the last island absorbs
  /// the remainder when the division is uneven.
  unsigned effective_islands() const {
    return std::max(1u, std::min(num_islands, num_workers));
  }
  unsigned island_size() const { return num_workers / effective_islands(); }
  unsigned island_of(unsigned worker) const {
    return std::min(worker / island_size(), effective_islands() - 1);
  }
  /// Workers [first, second) of island i (i clamped to the last island).
  std::pair<unsigned, unsigned> island_range(unsigned island) const {
    const unsigned n = effective_islands();
    if (island >= n) island = n - 1;
    const unsigned first = island * island_size();
    const unsigned last =
        (island + 1 == n) ? num_workers : first + island_size();
    return {first, last};
  }

  SimDuration cycles_to_ns(std::uint64_t cycles) const {
    return static_cast<SimDuration>(static_cast<double>(cycles) / freq_ghz + 0.5);
  }

  /// Aggregate packet-processing capacity in packets/s given a per-packet
  /// cycle cost (used for sanity checks and the Fig. 13 analysis).
  double peak_pps(std::uint64_t cycles_per_packet) const {
    return static_cast<double>(num_workers) * freq_ghz * 1e9 /
           static_cast<double>(cycles_per_packet);
  }
};

/// Preset matching the paper's 40GbE testbed.
NpConfig agilio_cx_40g();

/// Preset for the 10 Gbps motivation-example link (same silicon, port
/// negotiated down; shallower internal pipeline).
NpConfig agilio_cx_10g();

}  // namespace flowvalve::np
