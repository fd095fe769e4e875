#include "np/nic_pipeline.h"

#include <algorithm>
#include <cassert>

namespace flowvalve::np {

namespace {

/// Re-executions a watchdog-salvaged packet may consume before it is
/// dropped with DropReason::kWatchdogAbort.
constexpr unsigned kWatchdogMaxRetries = 3;

// The watchdog scans this many times per budget (at least once a µs), so a
// stuck worker is caught within 1 + 1/kWatchdogScansPerBudget budgets.
constexpr sim::SimDuration kWatchdogScansPerBudget = 4;

/// Graceful-degradation admission (NpConfig::Recovery::admission_enabled).
/// After kAdmissionEscalationTicks consecutive watchdog ticks with Tx-ring
/// occupancy at or above the high watermark it drops every
/// kAdmissionStartModulus-th submission, halves the modulus (down to
/// kAdmissionMinModulus) after each further such run, and disengages below
/// the low watermark.
constexpr double kAdmissionHighWatermark = 0.85;
constexpr double kAdmissionLowWatermark = 0.50;
constexpr unsigned kAdmissionEscalationTicks = 4;
constexpr std::uint64_t kAdmissionStartModulus = 8;
constexpr std::uint64_t kAdmissionMinModulus = 2;

}  // namespace

NpConfig agilio_cx_40g() {
  NpConfig c;
  c.wire_rate = Rate::gigabits_per_sec(40);
  c.fixed_pipeline_delay = sim::microseconds(161);
  return c;
}

NpConfig agilio_cx_10g() {
  NpConfig c;
  c.wire_rate = Rate::gigabits_per_sec(10);
  c.fixed_pipeline_delay = sim::microseconds(15);
  return c;
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kVfRingFull: return "vf-ring-full";
    case DropReason::kScheduler: return "scheduler";
    case DropReason::kTxRingFull: return "tx-ring-full";
    case DropReason::kReorderFlush: return "reorder-flush";
    case DropReason::kReorderTimeout: return "reorder-timeout";
    case DropReason::kWatchdogAbort: return "watchdog-abort";
    case DropReason::kAdmission: return "admission";
    case DropReason::kIslandRestart: return "island-restart";
  }
  return "unknown";
}

NicPipeline::NicPipeline(sim::Simulator& sim, NpConfig config, PacketProcessor& processor)
    : sim_(sim), config_(config), processor_(processor) {
  config_.validate();
  vf_rings_.resize(config_.num_vfs);
  for (auto& ring : vf_rings_) ring.reset_capacity(config_.vf_ring_capacity);
  // Power-of-two VF counts (the common case) route with a mask instead of a
  // per-packet integer division.
  if ((config_.num_vfs & (config_.num_vfs - 1)) == 0)
    vf_index_mask_ = config_.num_vfs - 1;
  tx_ring_.reset_capacity(config_.tx_ring_capacity);
  // Window span: the capacity cap bounds buffered completions, and every
  // other live sequence sits on a busy worker's burst or in the retry queue
  // (at most a few burst-loads per worker across watchdog rounds). The
  // margin keeps steady-state wrap-arounds off the grow path; at
  // batch_size 1 this reduces to the legacy derivation exactly.
  {
    std::size_t window = 1;
    const std::size_t need = config_.reorder_capacity +
                             4 * config_.num_workers * config_.batch_size + 64;
    while (window < need) window <<= 1;
    reorder_state_.resize(window);
    reorder_pkts_ = std::make_unique<sim::RawSlot<net::Packet>[]>(window);
    reorder_mask_ = window - 1;
  }
  workers_.resize(config_.num_workers);
  idle_workers_.reserve(config_.num_workers);
  for (unsigned w = 0; w < config_.num_workers; ++w) {
    workers_[w].burst.reserve(config_.batch_size);
    idle_workers_.push_back(w);
  }
  burst_scratch_.reserve(config_.batch_size);
  slot_scratch_.reserve(config_.batch_size);

  // The recovery budgets (np_config.h, NpConfig::Recovery). The watchdog
  // budget is far above any legitimate run-to-completion interval (tens of
  // µs at the default cycle costs), so a fault-free pipeline never trips it.
  watchdog_budget_ = std::max<sim::SimDuration>(
      sim::microseconds(250), 64 * config_.cycles_to_ns(kBaseRxCycles + kBaseTxCycles));
  reorder_timeout_ = 2 * watchdog_budget_;
  watchdog_scan_period_ = std::max<sim::SimDuration>(
      sim::microseconds(1), watchdog_budget_ / kWatchdogScansPerBudget);
}

void NicPipeline::drop(const net::Packet& pkt, DropReason reason) {
  switch (reason) {
    case DropReason::kVfRingFull: ++stats_.vf_ring_drops; break;
    case DropReason::kScheduler: ++stats_.scheduler_drops; break;
    case DropReason::kTxRingFull: ++stats_.tx_ring_drops; break;
    case DropReason::kReorderFlush: ++stats_.reorder_flush_drops; break;
    case DropReason::kReorderTimeout: ++stats_.reorder_timeout_drops; break;
    case DropReason::kWatchdogAbort: ++stats_.watchdog_drops; break;
    case DropReason::kAdmission: ++stats_.admission_drops; break;
    case DropReason::kIslandRestart: ++stats_.island_restart_drops; break;
  }
  if (observer_) observer_->on_drop(pkt, reason, sim_.now());
  notify_drop(pkt);
}

bool NicPipeline::submit(net::Packet pkt) {
  ++stats_.submitted;
  pkt.nic_arrival = sim_.now();
  if (observer_) observer_->on_submit(pkt, sim_.now());
  // Graceful degradation: under sustained overload every Nth submission is
  // shed here, before the rings grow, so queueing delay stays bounded and
  // the loss is spread proportionally across senders.
  if (admission_active_) {
    ++admission_seq_;
    if (admission_modulus_ != 0 && admission_seq_ % admission_modulus_ == 0) {
      drop(pkt, DropReason::kAdmission);
      return false;
    }
  }
  const unsigned vf = vf_index_mask_ != 0
                          ? (pkt.vf_port & vf_index_mask_)
                          : pkt.vf_port % config_.num_vfs;
  if (vf_rings_[vf].size() >= config_.vf_ring_capacity) {
    drop(pkt, DropReason::kVfRingFull);
    return false;
  }
  vf_rings_[vf].push_back(std::move(pkt));
  ++vf_waiting_;
  ++in_flight_;
  try_dispatch();
  return true;
}

void NicPipeline::try_dispatch() {
  // The load balancer hands waiting packets to idle workers in bursts of up
  // to batch_size. Watchdog-salvaged packets go first (their ingress slot is
  // the oldest), then VF rings are polled round-robin so no port starves.
  while (!idle_workers_.empty() &&
         (!retry_queue_.empty() || vf_waiting_ > 0)) {
    const unsigned worker = idle_workers_.back();
    idle_workers_.pop_back();
    dispatch_burst(worker);
  }
}

void NicPipeline::dispatch_burst(unsigned worker) {
  WorkerCtx& ctx = workers_[worker];
  const sim::SimTime now = sim_.now();
  assert(ctx.burst.empty());

  // Pull phase 1 — watchdog retries. Re-execution skips the processor:
  // labeling + scheduling state lives in shared memory and survived the
  // aborted micro-engine, so the first verdict (and its meter debits)
  // stands; only the base packet-handling work is repeated.
  while (ctx.burst.size() < config_.batch_size && !retry_queue_.empty()) {
    RetryEntry e = std::move(retry_queue_.front());
    retry_queue_.pop_front();
    std::uint64_t cycles = kBaseRxCycles;
    if (e.forward) cycles += kBaseTxCycles;
    stats_.processing_cycles += cycles;
    ++stats_.processed;
    BurstItem item;
    item.pkt = std::move(e.pkt);
    item.seq = e.seq;
    item.busy = config_.cycles_to_ns(cycles);
    item.forward = e.forward;
    item.retries = e.retries;
    ctx.burst.push_back(std::move(item));
  }

  // Pull phase 2 — fresh packets, round-robin over the VF rings in the
  // exact legacy order (scan from rr_vf_ for the first non-empty ring, take
  // its front, advance the pointer once, repeat).
  const std::size_t fresh = std::min<std::size_t>(
      config_.batch_size - ctx.burst.size(), vf_waiting_);
  const std::size_t first_fresh = ctx.burst.size();

  // Safe burst boundary: the control plane stamps the policy epoch every
  // fresh packet of this burst schedules against and may charge cutover
  // cycles here, before the run-to-completion interval starts. A cutover
  // can only land here — never mid-burst. Retries keep their original
  // epoch, and all-retry bursts skip the hook entirely.
  std::uint32_t ctrl_cycles = 0;
  std::uint32_t ctrl_epoch = 0;
  const bool stamp_epoch = control_hook_ != nullptr && fresh > 0;
  if (stamp_epoch) {
    const ControlHook::Cutover cut = control_hook_->on_packet_boundary(
        worker, now, static_cast<unsigned>(fresh));
    ctrl_epoch = cut.epoch;
    ctrl_cycles = cut.extra_cycles;
  }

  for (std::size_t i = 0; i < fresh; ++i) {
    while (vf_rings_[rr_vf_].empty()) {
      if (++rr_vf_ >= config_.num_vfs) rr_vf_ = 0;
    }
    auto& ring = vf_rings_[rr_vf_];
    BurstItem item;
    item.pkt = std::move(ring.front());
    item.seq = next_ingress_seq_++;
    if (stamp_epoch) item.pkt.policy_epoch = ctrl_epoch;
    ring.pop_front();
    --vf_waiting_;
    if (++rr_vf_ >= config_.num_vfs) rr_vf_ = 0;
    ctx.burst.push_back(std::move(item));
  }
  if (ctx.burst.empty()) {  // raced empty; return the micro-engine
    idle_workers_.push_back(worker);
    return;
  }

  // Run-to-completion over the fresh slice: base Rx work + processor + base
  // Tx work per packet, all "at" the dispatch instant. The processor's batch
  // hook must produce exactly what per-packet calls would (the batch-1
  // differential oracle holds it to that). Cutover cycles are charged to the
  // first fresh packet; cycles for dropped packets omit the Tx copy.
  if (fresh > 0) {
    slot_scratch_.clear();
    for (std::size_t i = first_fresh; i < ctx.burst.size(); ++i)
      slot_scratch_.push_back({&ctx.burst[i].pkt, {}});
    processor_.process_batch(slot_scratch_.data(), fresh, now);
    for (std::size_t i = 0; i < fresh; ++i) {
      const PacketProcessor::Outcome& out = slot_scratch_[i].out;
      std::uint64_t cycles = kBaseRxCycles + out.cycles;
      if (i == 0) cycles += ctrl_cycles;
      if (out.forward) cycles += kBaseTxCycles;
      stats_.processing_cycles += cycles;
      ++stats_.processed;
      BurstItem& item = ctx.burst[first_fresh + i];
      item.busy = config_.cycles_to_ns(cycles);
      item.forward = out.forward;
    }
  }

  // Observers see one dispatch per packet at staggered logical instants
  // tiling the busy window back-to-back, so per-packet latency
  // decomposition and worker exclusivity stay exact at any batch size. The
  // dispatch instant and busy interval are then stamped on the packet like
  // every other stage timestamp — observers read them at delivery instead
  // of keeping a per-packet side table. Observe-then-stamp order lets an
  // observer tell a fresh dispatch (dispatched_at still -1) from a
  // watchdog retry.
  sim::SimDuration total_busy = 0;
  {
    sim::SimTime t = now;
    for (BurstItem& item : ctx.burst) {
      if (observer_) observer_->on_dispatch(item.pkt, worker, item.seq, t, item.busy);
      item.pkt.dispatched_at = t;
      item.pkt.service_busy = item.busy;
      t += item.busy;
      total_busy += item.busy;
    }
  }

  ctx.state = WorkerCtx::State::kBusy;
  ++ctx.epoch;
  ctx.busy_start = now;
  ctx.busy_end = now + total_busy;
  ctx.completion = sim_.schedule_after(
      total_busy,
      [this, worker, epoch = ctx.epoch] { on_completion(worker, epoch); });
  maybe_arm_watchdog();
}

void NicPipeline::on_completion(unsigned worker, std::uint32_t epoch) {
  WorkerCtx& ctx = workers_[worker];
  // A stale epoch means the watchdog already aborted this execution and the
  // worker was re-dispatched; the cancelled handle normally prevents this,
  // but guard anyway.
  if (ctx.state != WorkerCtx::State::kBusy || ctx.epoch != epoch) return;

  // Busy time is credited on completion, never at dispatch: charging the
  // full interval up front made utilization exceed 1.0 whenever busy
  // intervals straddled the query instant.
  stats_.worker_busy_ns +=
      static_cast<std::uint64_t>(sim_.now() - ctx.busy_start);

  // Swap the burst out of the worker context BEFORE running commit
  // callbacks: a drop/delivery callback may synchronously submit() and
  // re-enter try_dispatch, and the worker must look cleanly busy-with-
  // nothing rather than holding a half-committed burst. Completions never
  // nest (events serialize), so one scratch vector suffices.
  assert(burst_scratch_.empty());
  burst_scratch_.swap(ctx.burst);

  for (BurstItem& item : burst_scratch_) {
    if (item.doomed) {
      // Doomed executions already gave their packet up to a timeout flush;
      // the completion only returns the micro-engine.
      continue;
    }
    net::Packet pkt = std::move(item.pkt);  // POD move; stale copy never read
    if (item.forward) {
      ++forward_count_;
      if (injected_.leak_commit_every != 0 &&
          forward_count_ % injected_.leak_commit_every == 0) {
        // Injected bug: the packet vanishes without a commit or any drop
        // accounting. The conservation checker must notice.
      } else if (injected_.bypass_reorder_every != 0 &&
                 config_.enforce_reorder &&
                 forward_count_ % injected_.bypass_reorder_every == 0) {
        // Injected bug: jump the reorder queue. The ordering checker must
        // notice; committing the hole keeps the rest of the stream moving.
        tx_admit(std::move(pkt));
        reorder_commit_gap(item.seq);
      } else if (config_.enforce_reorder) {
        reorder_commit(item.seq, std::move(pkt));
      } else {
        tx_admit(std::move(pkt));
      }
    } else {
      --in_flight_;
      drop(pkt, DropReason::kScheduler);
      if (config_.enforce_reorder) reorder_commit_gap(item.seq);
    }
  }
  burst_scratch_.clear();

  if (ctx.fault_frozen) {
    ctx.state = WorkerCtx::State::kHung;  // still faulty; awaits repair
  } else {
    ctx.state = WorkerCtx::State::kIdle;
    idle_workers_.push_back(worker);
  }
  try_dispatch();
}

void NicPipeline::reorder_commit(std::uint64_t seq, net::Packet&& pkt) {
  if (seq < next_release_seq_) {
    // This slot was already flushed as lost (capacity overrun or hole
    // timeout skipped the gap). Survivors behind it are long gone, so
    // admitting the straggler now would reorder the stream: count it as a
    // reorder-flush drop.
    --in_flight_;
    drop(pkt, DropReason::kReorderFlush);
    return;
  }
  if (seq == next_release_seq_ && reorder_count_ == 0 && !reorder_frozen_) {
    // In-order commit into an empty window — the common case whenever
    // workers finish in dispatch order. The packet would be buffered and
    // released in the same call, so skip the ring round-trip (two Packet
    // copies) and admit it directly. Observable state matches the slow
    // path: occupancy peaked at 1, no hole, window empty.
    stats_.reorder_occupancy_peak =
        std::max<std::uint64_t>(stats_.reorder_occupancy_peak, 1);
    ++next_release_seq_;
    hole_active_ = false;
    tx_admit(std::move(pkt));
    maybe_arm_watchdog();
    return;
  }
  const std::size_t i = reorder_index_for(seq);
  reorder_state_[i] = ReorderState::kPacket;
  reorder_pkts_[i].value = pkt;
  reorder_committed();
}

void NicPipeline::reorder_commit_gap(std::uint64_t seq) {
  if (seq < next_release_seq_) return;  // already flushed as lost
  if (seq == next_release_seq_ && reorder_count_ == 0 && !reorder_frozen_) {
    // In-order gap at the head of an empty window: buffering the kDropped
    // marker would release it immediately, so just advance the pointer.
    stats_.reorder_occupancy_peak =
        std::max<std::uint64_t>(stats_.reorder_occupancy_peak, 1);
    ++next_release_seq_;
    hole_active_ = false;
    maybe_arm_watchdog();
    return;
  }
  reorder_state_[reorder_index_for(seq)] = ReorderState::kDropped;
  reorder_committed();
}

std::size_t NicPipeline::reorder_index_for(std::uint64_t seq) {
  if (seq - next_release_seq_ > reorder_mask_) grow_reorder_ring(seq);
  const std::size_t i = seq & reorder_mask_;
  assert(reorder_state_[i] == ReorderState::kEmpty &&
         "ingress sequence committed twice");
  return i;
}

void NicPipeline::reorder_committed() {
  ++reorder_count_;
  stats_.reorder_occupancy_peak =
      std::max<std::uint64_t>(stats_.reorder_occupancy_peak, reorder_count_);
  reorder_advance();
}

void NicPipeline::reorder_advance() {
  if (!reorder_frozen_) {
    release_reorder_prefix();
    // Capacity cap: a stalled hole (e.g. a leaked completion) must not grow
    // the buffer without bound, so the missing head sequence(s) are
    // declared lost.
    while (reorder_count_ > config_.reorder_capacity) {
      ++stats_.reorder_flushes;
      skip_reorder_hole(DropReason::kReorderFlush);
    }
  }
  update_hole_tracking();
  maybe_arm_watchdog();
}

void NicPipeline::release_reorder_prefix() {
  std::size_t i = next_release_seq_ & reorder_mask_;
  while (reorder_count_ > 0 && reorder_state_[i] != ReorderState::kEmpty) {
    if (reorder_state_[i] == ReorderState::kPacket) {
      tx_admit(reorder_pkts_[i].value);  // kEmpty below is what frees the slot
    }
    reorder_state_[i] = ReorderState::kEmpty;
    --reorder_count_;
    ++next_release_seq_;
    i = next_release_seq_ & reorder_mask_;
  }
}

std::uint64_t NicPipeline::oldest_buffered_seq() const {
  assert(reorder_count_ > 0);
  std::uint64_t seq = next_release_seq_;
  while (reorder_state_[seq & reorder_mask_] == ReorderState::kEmpty) ++seq;
  return seq;
}

void NicPipeline::grow_reorder_ring(std::uint64_t seq) {
  // Only a frozen release pointer (injected reorder stall) can push the
  // window this far; mirror the old std::map's grow-without-bound behavior
  // instead of inventing a new flush policy for the pathological case.
  std::size_t window = reorder_state_.size();
  while (seq - next_release_seq_ > window - 1) window <<= 1;
  std::vector<ReorderState> states(window);
  auto pkts = std::make_unique<sim::RawSlot<net::Packet>[]>(window);
  const std::uint64_t new_mask = window - 1;
  std::size_t moved = 0;
  for (std::uint64_t s = next_release_seq_;
       moved < reorder_count_ && s - next_release_seq_ <= reorder_mask_; ++s) {
    const std::size_t from = s & reorder_mask_;
    if (reorder_state_[from] == ReorderState::kEmpty) continue;
    states[s & new_mask] = reorder_state_[from];
    if (reorder_state_[from] == ReorderState::kPacket)
      pkts[s & new_mask].value = reorder_pkts_[from].value;
    ++moved;
  }
  reorder_state_ = std::move(states);
  reorder_pkts_ = std::move(pkts);
  reorder_mask_ = new_mask;
}

void NicPipeline::update_hole_tracking() {
  if (reorder_frozen_) return;
  if (reorder_count_ == 0) {  // empty window can't have a hole; skip the ring read
    hole_active_ = false;
    return;
  }
  const bool hole =
      reorder_state_[next_release_seq_ & reorder_mask_] == ReorderState::kEmpty;
  if (!hole) {
    hole_active_ = false;
    return;
  }
  // Age is tracked per missing sequence: when a flush (or late commit)
  // moves the window to a different hole, the timeout clock restarts.
  if (!hole_active_ || hole_seq_ != next_release_seq_) {
    hole_active_ = true;
    hole_seq_ = next_release_seq_;
    hole_since_ = sim_.now();
  }
}

void NicPipeline::reorder_timeout_flush() {
  if (reorder_frozen_ || !hole_active_) return;
  if (sim_.now() - hole_since_ < reorder_timeout_) return;
  if (reorder_count_ == 0) return;  // hole closed since the last commit
  ++stats_.reorder_timeout_flushes;
  skip_reorder_hole(DropReason::kReorderTimeout);
  update_hole_tracking();
}

void NicPipeline::skip_reorder_hole(DropReason reason) {
  // The hole runs up to the oldest buffered completion. Its live occupants
  // are dropped BEFORE the survivors behind it release, so a drop always
  // precedes the deliveries that overtake it.
  const std::uint64_t head = oldest_buffered_seq();
  for (WorkerCtx& ctx : workers_) {
    if (ctx.state != WorkerCtx::State::kBusy) continue;
    for (BurstItem& item : ctx.burst) {
      if (!item.doomed && item.seq >= next_release_seq_ && item.seq < head) {
        item.doomed = true;
        --in_flight_;
        drop(item.pkt, reason);
      }
    }
  }
  for (auto it = retry_queue_.begin(); it != retry_queue_.end();) {
    if (it->seq >= next_release_seq_ && it->seq < head) {
      --in_flight_;
      drop(it->pkt, reason);
      it = retry_queue_.erase(it);
    } else {
      ++it;
    }
  }
  next_release_seq_ = head;
  release_reorder_prefix();
}

void NicPipeline::tx_admit(net::Packet pkt) {
  if (tx_ring_.size() >= effective_tx_capacity()) {
    --in_flight_;
    drop(pkt, DropReason::kTxRingFull);
    return;
  }
  pkt.tx_enqueue = sim_.now();
  tx_ring_.push_back(std::move(pkt));
  arm_tx_drain();
}

std::size_t NicPipeline::effective_tx_capacity() const {
  if (tx_capacity_override_ == 0) return config_.tx_ring_capacity;
  return std::min(tx_capacity_override_, config_.tx_ring_capacity);
}

void NicPipeline::arm_tx_drain() {
  if (tx_draining_ || tx_ring_.empty() || wire_factor_ <= 0.0) return;
  tx_draining_ = true;
  // The traffic manager serializes up to batch_size queued frames under ONE
  // event. Each frame's wire_tx_done is computed analytically NOW, at arm
  // time, with the current wire_factor — a mid-batch wire dip cannot
  // retroactively corrupt timestamps the wire model already committed to
  // (the batch in flight finishes at the rate it started at).
  const std::size_t frames =
      std::min<std::size_t>(tx_ring_.size(), config_.batch_size);
  sim::SimTime t = sim_.now();
  for (std::size_t i = 0; i < frames; ++i) {
    net::Packet& pkt = tx_ring_[i];
    const std::uint32_t occ = pkt.wire_occupancy_bytes();
    sim::SimDuration ser;
    if (wire_factor_ == 1.0 && occ == ser_cache_bytes_) {
      // Uniform traffic hits this memo every time; the double divide in
      // serialization_delay is measurable at millions of packets per second.
      ser = ser_cache_delay_;
    } else {
      ser = config_.wire_rate.serialization_delay(occ);
      if (wire_factor_ < 1.0) {  // injected wire dip: the port drains slower
        ser = static_cast<sim::SimDuration>(static_cast<double>(ser) / wire_factor_ + 0.5);
      } else {
        ser_cache_bytes_ = occ;
        ser_cache_delay_ = ser;
      }
    }
    t += ser;
    pkt.wire_tx_done = t;
  }
  sim_.schedule_at(t, [this, frames] { tx_drain_batch_complete(frames); });
}

void NicPipeline::tx_drain_batch_complete(std::size_t frames) {
  tx_draining_ = false;
  // The first `frames` ring entries are exactly the ones stamped at arm
  // time: drains are the only pops and this event is the only drain in
  // flight, so nothing overtook them. Account + hand each to the coalesced
  // delivery queue; every per-packet timestamp was already final.
  for (std::size_t i = 0; i < frames; ++i) {
    assert(!tx_ring_.empty());
    net::Packet& head = tx_ring_.front();
    --in_flight_;
    ++stats_.forwarded_to_wire;
    stats_.wire_bytes += head.wire_bytes;
    if (observer_) observer_->on_wire_tx(head, sim_.now());
    head.delivered_at = head.wire_tx_done + config_.fixed_pipeline_delay;
    delivery_queue_.push_back(std::move(head));
    tx_ring_.pop_front();
  }
  if (!delivery_armed_ && !delivery_queue_.empty()) {
    // One flush event per drain batch, armed at the queue tail's
    // delivered_at (delivered_at is monotone along the queue, so the tail
    // covers everything queued).
    delivery_armed_ = true;
    sim_.schedule_at(delivery_queue_.back().delivered_at,
                     [this] { delivery_flush(); });
  }
  arm_tx_drain();
}

void NicPipeline::delivery_flush() {
  delivery_armed_ = false;
  const sim::SimTime now = sim_.now();
  while (!delivery_queue_.empty() &&
         delivery_queue_.front().delivered_at <= now) {
    net::Packet pkt = std::move(delivery_queue_.front());
    delivery_queue_.pop_front();
    if (observer_) observer_->on_delivered(pkt, now);
    deliver(pkt);
    // deliver() may synchronously submit (closed-loop traffic) and re-arm
    // the drain, which can re-arm delivery for frames queued behind us —
    // the loop keeps draining its own prefix either way.
  }
  if (!delivery_queue_.empty() && !delivery_armed_) {
    delivery_armed_ = true;
    sim_.schedule_at(delivery_queue_.back().delivered_at,
                     [this] { delivery_flush(); });
  }
}

// --- Watchdog / recovery ---------------------------------------------------

bool NicPipeline::watchdog_work_pending() const {
  for (const WorkerCtx& ctx : workers_)
    if (ctx.state == WorkerCtx::State::kBusy) return true;
  if (!retry_queue_.empty()) return true;
  if (config_.enforce_reorder && reorder_count_ > 0 && !reorder_frozen_)
    return true;
  // A control-plane forced shed is not the watchdog's to disengage, so it
  // alone must not keep the tick chain alive (submit() checks
  // admission_active_ directly, so shedding still works unarmed).
  if (admission_active_ && !admission_forced_) return true;
  return false;
}

void NicPipeline::arm_watchdog_slow() {
  if (watchdog_armed_ || !watchdog_work_pending()) return;
  watchdog_armed_ = true;
  sim_.schedule_after(watchdog_scan_period_, [this] { watchdog_tick(); });
}

void NicPipeline::watchdog_tick() {
  watchdog_armed_ = false;
  bool aborted = false;
  for (unsigned w = 0; w < workers_.size(); ++w) {
    WorkerCtx& ctx = workers_[w];
    if (ctx.state != WorkerCtx::State::kBusy) continue;
    // The budget bounds ONE packet's service; a burst's legitimate
    // run-to-completion window is proportionally longer, so the stuck
    // check scales with the number of packets the worker is holding — a
    // healthy full burst never trips at any batch size.
    const sim::SimDuration allowance =
        watchdog_budget_ *
        static_cast<sim::SimDuration>(std::max<std::size_t>(1, ctx.burst.size()));
    if (sim_.now() - ctx.busy_start >= allowance) {
      watchdog_abort(w);
      aborted = true;
    }
  }
  if (aborted) try_dispatch();
  reorder_timeout_flush();
  admission_update();
  // One-shot chain: re-arm only while there is still work the watchdog
  // could act on, so a drained pipeline leaves the event queue empty.
  maybe_arm_watchdog();
}

void NicPipeline::watchdog_abort(unsigned worker) {
  WorkerCtx& ctx = workers_[worker];
  ctx.completion.cancel();
  stats_.worker_busy_ns +=
      static_cast<std::uint64_t>(sim_.now() - ctx.busy_start);
  // The whole in-flight burst is salvaged: every live packet is requeued
  // under its original ingress_seq (a salvaged micro-engine context loses
  // all the frames it was holding, not just one), or dropped once its
  // retry budget is gone.
  for (BurstItem& item : ctx.burst) {
    net::Packet pkt = std::move(item.pkt);
    if (item.doomed) continue;
    if (observer_) observer_->on_watchdog(pkt, worker, item.seq, sim_.now());
    if (item.retries < kWatchdogMaxRetries) {
      ++stats_.watchdog_requeues;
      retry_queue_.push_back(
          RetryEntry{std::move(pkt), item.seq, item.forward, item.retries + 1});
    } else {
      // Retry budget exhausted: the packet is declared lost and its
      // sequence slot committed empty so the window moves on.
      --in_flight_;
      drop(pkt, DropReason::kWatchdogAbort);
      if (config_.enforce_reorder) reorder_commit_gap(item.seq);
    }
  }
  ctx.burst.clear();
  if (ctx.fault_frozen) {
    ctx.state = WorkerCtx::State::kHung;  // dead until repair_worker()
  } else {
    // A merely-slow micro-engine gets a context reset and rejoins at once.
    ctx.state = WorkerCtx::State::kIdle;
    idle_workers_.push_back(worker);
  }
}

void NicPipeline::control_force_admission(std::uint64_t modulus) {
  if (modulus == 0) return;
  // A caller taking the valve supersedes island-restart probation: the
  // probation's timed release must not later drop a hold it doesn't own.
  restart_probation_active_ = false;
  admission_forced_ = true;
  admission_active_ = true;
  admission_modulus_ = modulus;
  admission_over_ticks_ = 0;
}

void NicPipeline::control_release_admission() {
  if (!admission_forced_) return;
  restart_probation_active_ = false;
  admission_forced_ = false;
  admission_active_ = false;
  admission_modulus_ = 0;
  admission_over_ticks_ = 0;
}

void NicPipeline::admission_update() {
  if (admission_forced_) return;  // held by the control plane
  if (!config_.recovery.admission_enabled) return;
  const double occ = static_cast<double>(tx_ring_.size()) /
                     static_cast<double>(effective_tx_capacity());
  if (admission_active_) {
    if (occ < kAdmissionLowWatermark) {
      admission_active_ = false;
      admission_modulus_ = 0;
      admission_over_ticks_ = 0;
    } else if (occ >= kAdmissionHighWatermark) {
      if (++admission_over_ticks_ >= kAdmissionEscalationTicks &&
          admission_modulus_ > kAdmissionMinModulus) {
        admission_modulus_ =
            std::max<std::uint64_t>(kAdmissionMinModulus,
                                    admission_modulus_ / 2);
        admission_over_ticks_ = 0;
      }
    } else {
      admission_over_ticks_ = 0;
    }
  } else if (occ >= kAdmissionHighWatermark) {
    if (++admission_over_ticks_ >= kAdmissionEscalationTicks) {
      admission_active_ = true;
      admission_modulus_ = kAdmissionStartModulus;
      admission_over_ticks_ = 0;
    }
  } else {
    admission_over_ticks_ = 0;
  }
}

// --- Fault hooks (src/fault) -----------------------------------------------

unsigned NicPipeline::hung_workers() const {
  unsigned n = 0;
  for (const WorkerCtx& ctx : workers_)
    if (ctx.state == WorkerCtx::State::kHung) ++n;
  return n;
}

void NicPipeline::fault_stall_worker(unsigned w, sim::SimDuration duration) {
  if (w >= workers_.size()) return;
  WorkerCtx& ctx = workers_[w];
  ctx.fault_frozen = true;
  if (ctx.state == WorkerCtx::State::kBusy) {
    // Postpone the in-progress completion by the freeze; the watchdog
    // salvages the packet instead if the postponement blows the budget.
    ctx.completion.cancel();
    ctx.busy_end = std::max(ctx.busy_end, sim_.now()) +
                   std::max<sim::SimDuration>(duration, 0);
    ctx.completion = sim_.schedule_at(
        ctx.busy_end,
        [this, w, epoch = ctx.epoch] { on_completion(w, epoch); });
  } else if (ctx.state == WorkerCtx::State::kIdle) {
    idle_workers_.erase(
        std::remove(idle_workers_.begin(), idle_workers_.end(), w),
        idle_workers_.end());
    ctx.state = WorkerCtx::State::kHung;
  }
  maybe_arm_watchdog();
}

void NicPipeline::fault_crash_worker(unsigned w) {
  if (w >= workers_.size()) return;
  WorkerCtx& ctx = workers_[w];
  ctx.fault_frozen = true;
  if (ctx.state == WorkerCtx::State::kBusy) {
    // The execution never completes; only the watchdog can salvage it.
    ctx.completion.cancel();
    maybe_arm_watchdog();
  } else if (ctx.state == WorkerCtx::State::kIdle) {
    idle_workers_.erase(
        std::remove(idle_workers_.begin(), idle_workers_.end(), w),
        idle_workers_.end());
    ctx.state = WorkerCtx::State::kHung;
  }
}

void NicPipeline::repair_worker(unsigned w) {
  if (w >= workers_.size()) return;
  WorkerCtx& ctx = workers_[w];
  if (!ctx.fault_frozen && ctx.state != WorkerCtx::State::kHung) return;
  ctx.fault_frozen = false;
  if (ctx.state == WorkerCtx::State::kHung) {
    ctx.state = WorkerCtx::State::kIdle;
    idle_workers_.push_back(w);
    ++stats_.workers_repaired;
    try_dispatch();
  }
}

void NicPipeline::fault_blackout_island(unsigned island) {
  const auto [first, last] = config_.island_range(island);
  for (unsigned w = first; w < last; ++w) {
    WorkerCtx& ctx = workers_[w];
    ctx.fault_frozen = true;
    if (ctx.state == WorkerCtx::State::kBusy) {
      // Crash-only: the burst dies with the island. Unlike a single-worker
      // crash there is no waiting for watchdog salvage — the blackout knows
      // every occupant is gone, so each is dropped now and its sequence
      // committed as a gap so the reorder window never waits on a dead
      // worker. Doomed items were already dropped by an earlier flush.
      ctx.completion.cancel();
      stats_.worker_busy_ns +=
          static_cast<std::uint64_t>(sim_.now() - ctx.busy_start);
      for (BurstItem& item : ctx.burst) {
        if (item.doomed) continue;
        --in_flight_;
        drop(item.pkt, DropReason::kIslandRestart);
        if (config_.enforce_reorder) reorder_commit_gap(item.seq);
      }
      ctx.burst.clear();
      ctx.state = WorkerCtx::State::kHung;
    } else if (ctx.state == WorkerCtx::State::kIdle) {
      idle_workers_.erase(
          std::remove(idle_workers_.begin(), idle_workers_.end(), w),
          idle_workers_.end());
      ctx.state = WorkerCtx::State::kHung;
    }
    // kHung already: an earlier fault took this worker; the blackout
    // subsumes it and the island restart will bring it back.
  }
  maybe_arm_watchdog();
}

void NicPipeline::restart_island(unsigned island) {
  const auto [first, last] = config_.island_range(island);
  bool any = false;
  for (unsigned w = first; w < last; ++w) {
    WorkerCtx& ctx = workers_[w];
    if (!ctx.fault_frozen && ctx.state != WorkerCtx::State::kHung) continue;
    ctx.fault_frozen = false;
    if (ctx.state == WorkerCtx::State::kHung) {
      ctx.state = WorkerCtx::State::kIdle;
      idle_workers_.push_back(w);
      ++stats_.workers_repaired;
      any = true;
    }
  }
  ++stats_.islands_restarted;
  static_assert(kRestartProbationModulus >= 2 && kRestartProbation > 0);
  if (!admission_forced_) {
    control_force_admission(kRestartProbationModulus);
    restart_probation_active_ = true;
    // Timed auto-release, token-guarded: if another restart re-arms
    // probation or src/ctrl takes/releases the valve meanwhile, this
    // release belongs to a superseded probation and must do nothing.
    const std::uint64_t token = ++probation_token_;
    sim_.schedule_after(kRestartProbation, [this, token] {
      if (restart_probation_active_ && probation_token_ == token) {
        restart_probation_active_ = false;
        control_release_admission();
      }
    });
  }
  if (any) try_dispatch();
}

void NicPipeline::fault_set_wire_factor(double factor) {
  wire_factor_ = std::clamp(factor, 0.0, 1.0);
  if (wire_factor_ > 0.0) arm_tx_drain();
}

void NicPipeline::fault_set_tx_capacity(std::size_t capacity) {
  tx_capacity_override_ = capacity;
}

void NicPipeline::fault_freeze_reorder(bool frozen) {
  if (reorder_frozen_ == frozen) return;
  reorder_frozen_ = frozen;
  if (frozen) {
    // The timeout clock restarts from the unfreeze, not from before it.
    hole_active_ = false;
    return;
  }
  reorder_advance();
}

double NicPipeline::worker_utilization(sim::SimTime now) const {
  if (now <= 0) return 0.0;
  // Completed intervals (stats_) plus the elapsed part of every in-progress
  // interval. Elapsed time can never exceed wall time, so the ratio stays
  // within [0, 1]; the final min() only absorbs ns rounding.
  double busy_ns = static_cast<double>(stats_.worker_busy_ns);
  for (const WorkerCtx& ctx : workers_)
    if (ctx.state == WorkerCtx::State::kBusy && now > ctx.busy_start)
      busy_ns += static_cast<double>(now - ctx.busy_start);
  const double capacity_ns =
      static_cast<double>(now) * static_cast<double>(config_.num_workers);
  return std::min(1.0, busy_ns / capacity_ns);
}

}  // namespace flowvalve::np
