// Discrete-event simulation kernel.
//
// The Simulator executes (time, sequence, callback) events in (at, seq)
// order: earlier times first, and events scheduled for the same instant in
// scheduling order, which keeps runs fully deterministic. All hardware and
// host models in this repo are driven from this single virtual clock.
//
// Two interchangeable scheduler backends sit behind the same API:
//
//  - SchedulerKind::kWheel (default): a slab/free-list event pool with
//    generation-counter handles feeding a hierarchical timing wheel
//    (a 4096-slot cursor-relative level 0 under seven 256-slot aligned
//    levels, Varghese/Lauck-style with Carousel's array-backed
//    philosophy). No allocation on the schedule/fire hot path: closures
//    live inline in pooled slots (InlineCallback), wheel slots are
//    intrusive singly-linked lists, and cancellation is a generation check.
//  - SchedulerKind::kHeap: the original binary-heap kernel
//    (std::function + shared_ptr<bool> liveness flag per event), kept as
//    the reference implementation for differential testing and as the
//    honest pre-optimization baseline for bench_simcore.
//
// Both backends execute the exact same event sequence for the same inputs
// (asserted by tests/test_sim_kernel_diff.cpp), so every determinism
// golden stays valid regardless of backend.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace flowvalve::sim {

class Simulator;

enum class SchedulerKind : std::uint8_t {
  kHeap,   // reference: binary heap, per-event shared_ptr + std::function
  kWheel,  // default: pooled slots + hierarchical timing wheel
};

const char* scheduler_kind_name(SchedulerKind kind);

/// Handle that can cancel a pending event. Cancellation is lazy: the event
/// stays queued but becomes a no-op when reached. For pooled events the
/// handle is (slot index, generation); a recycled slot bumps its generation
/// so stale handles turn inert instead of touching the new occupant.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled. A periodic
  /// event stays pending across firings until cancelled.
  bool pending() const;

  /// Cancel the event if it is still pending. Safe to call repeatedly.
  void cancel();

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  // Legacy-heap events are tracked by a shared liveness flag; pooled events
  // by (simulator, slot, generation). Exactly one side is populated.
  std::shared_ptr<bool> alive_;
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  /// Callbacks up to this size (the wire and delivery lambdas of the
  /// baseline schedulers and of the differential oracle's HTB device
  /// capture a whole net::Packet) execute without any heap allocation.
  static constexpr std::size_t kInlineCallbackBytes = 128;
  using Callback = InlineCallback<kInlineCallbackBytes>;

  explicit Simulator(SchedulerKind kind = SchedulerKind::kWheel)
      : kind_(kind) {
    for (auto& head : l0_head_) head = -1;
    for (auto& level : hi_head_)
      for (auto& head : level) head = -1;
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  SchedulerKind scheduler_kind() const { return kind_; }

  /// Schedule `fn` to run at absolute time `at` (>= now).
  template <class F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    assert(at >= now_ && "cannot schedule an event in the past");
    if (kind_ == SchedulerKind::kHeap)
      return heap_schedule(at, std::function<void()>(std::forward<F>(fn)));
    return wheel_schedule(at, /*period=*/0, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` after the current time.
  template <class F>
  EventHandle schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` every `period` (> 0), first firing at now + period, until
  /// the returned handle is cancelled. The pooled backend rearms the SAME
  /// event slot in place (new deadline + sequence, closure untouched), so a
  /// steady periodic timer costs zero allocations per firing.
  template <class F>
  EventHandle schedule_periodic(SimDuration period, F&& fn) {
    assert(period > 0 && "periodic events need a positive period");
    if (kind_ == SchedulerKind::kHeap)
      return heap_schedule_periodic(period,
                                    std::function<void()>(std::forward<F>(fn)));
    return wheel_schedule(now_ + period, period, std::forward<F>(fn));
  }

  /// Run until the event queue drains or virtual time would pass `until`.
  /// Events at exactly `until` are executed. Returns the number of events
  /// run. Cancelled events never advance the clock and never count.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue is empty.
  std::uint64_t run_all() { return run_until(kSimTimeMax); }

  /// Execute at most one live event; returns false if none remain.
  bool step();

  bool empty() const {
    return kind_ == SchedulerKind::kHeap ? queue_.empty() : live_count_ == 0;
  }
  /// Events awaiting execution. The heap backend counts lazily-cancelled
  /// events still draining; the pooled backend counts live events only.
  std::size_t pending_events() const {
    return kind_ == SchedulerKind::kHeap ? queue_.size() : live_count_;
  }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  friend class EventHandle;

  // --- shared state ---------------------------------------------------------
  SchedulerKind kind_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;

  /// Time of the next live event, or kSimTimeMax if none. May lazily drop
  /// cancelled events (both backends).
  SimTime next_event_time();

  // --- legacy binary-heap backend (reference implementation) ---------------
  struct HeapEvent {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const HeapEvent& a, const HeapEvent& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  EventHandle heap_schedule(SimTime at, std::function<void()> fn);
  EventHandle heap_schedule_periodic(SimDuration period,
                                     std::function<void()> fn);
  void heap_periodic_arm(std::shared_ptr<bool> running,
                         std::shared_ptr<std::function<void()>> fn,
                         SimDuration period);
  bool heap_step();

  std::priority_queue<HeapEvent, std::vector<HeapEvent>, Later> queue_;

  // --- pooled slab + hierarchical timing wheel backend ----------------------
  //
  // Pool: slots live in fixed-size chunks (stable addresses under
  // reentrant scheduling, and plain shift+mask indexing — a deque's
  // two-level block map costs a division per access on this very hot
  // lookup) and are recycled through a free list; each recycle bumps the
  // slot's generation, invalidating outstanding handles.
  //
  // Wheel: level 0 is cursor-relative. An event due within the next 4096 ns
  // (0 <= at - wheel_time_ < 4096) sits in slot `at mod 4096`, whichever
  // aligned 4096-ns block it falls in, so the pipeline's 0.3-2.5 µs
  // completion/drain/arrival deltas are placed once and never cascade.
  // Its 64 occupancy words carry a 64-bit summary word, which makes the
  // circular find-next from the cursor's slot O(1). Later events go to
  // seven aligned 256-slot levels (68 bits of total coverage), where XOR +
  // CLZ against the cursor picks the level. A cascade still happens when
  // the cursor reaches the start of an occupied higher-level block: its
  // events, placed 4096 ns or more ahead, move to strictly lower levels.
  // `hi_min_` caches the earliest occupied block start above level 0; an
  // advance takes the level-0 candidate only when it is strictly earlier
  // and cascades first on a tie, so every event of an instant is in one
  // level-0 slot when the cursor collects it into `due_`, sorted by
  // sequence number (same-instant FIFO). `early_` absorbs the rare event
  // scheduled before wheel_time_ (possible after a run_until horizon peek
  // advanced the wheel): such an event is provably earlier than everything
  // still in the wheel.
  static constexpr unsigned kWheelLevels = 8;
  static constexpr unsigned kL0Bits = 12;  // level 0: 4096 one-ns slots
  static constexpr unsigned kL0Slots = 1u << kL0Bits;
  static constexpr unsigned kLxBits = 8;   // levels 1..7: 256 slots each
  static constexpr unsigned kLxSlots = 1u << kLxBits;
  static constexpr std::uint64_t kNoBlock = ~0ull;  // hi_min_ when empty

  /// Bit position of the lowest time bit that indexes level `level` >= 1.
  static constexpr unsigned level_shift(unsigned level) {
    return kL0Bits + kLxBits * (level - 1);
  }

  struct EventSlot {
    enum class State : std::uint8_t { kFree, kArmed, kCancelled };
    SimTime at = 0;
    std::uint64_t seq = 0;
    SimDuration period = 0;  // > 0: rearm in place after each firing
    std::uint32_t gen = 0;
    std::int32_t next = -1;  // intrusive wheel-slot list link
    State state = State::kFree;
    Callback fn;
  };

  /// Arm a fresh pooled event. The closure is constructed directly inside
  /// the slot (no intermediate Callback move of up to 128 capture bytes).
  template <class F>
  EventHandle wheel_schedule(SimTime at, SimDuration period, F&& fn) {
    const std::uint32_t idx = alloc_slot();
    EventSlot& s = slot_at(idx);
    s.at = at;
    s.seq = next_seq_++;
    s.period = period;
    s.state = EventSlot::State::kArmed;
    s.fn.assign(std::forward<F>(fn));
    ++live_count_;
    wheel_place(idx);
    return EventHandle(this, idx, s.gen);
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void wheel_place(std::uint32_t idx);
  void wheel_advance();  // pre: live events exist, due_/early_ drained
  SimTime wheel_next_time();
  bool wheel_step();
  void wheel_exec_ready();  // pre: wheel_next_time just returned a live event
  unsigned l0_next_slot() const;  // pre: level 0 is occupied
  void cascade_min_block();       // pre: hi_min_ != kNoBlock
  void rescan_hi_min(unsigned from_level);
  /// The aligned level (>= 1) for a time at least 4096 ns past the cursor:
  /// the highest bit where it differs from the cursor.
  unsigned hi_level(std::uint64_t t) const {
    const unsigned hsb =
        63u - static_cast<unsigned>(__builtin_clzll(t ^ wheel_time_));
    return (hsb - kL0Bits) / kLxBits + 1;  // <= kWheelLevels - 1 by coverage
  }

  static constexpr unsigned kPoolChunkBits = 8;  // 256 slots per chunk
  static constexpr unsigned kPoolChunk = 1u << kPoolChunkBits;

  EventSlot& slot_at(std::uint32_t idx) {
    return chunks_[idx >> kPoolChunkBits][idx & (kPoolChunk - 1)];
  }
  const EventSlot& slot_at(std::uint32_t idx) const {
    return chunks_[idx >> kPoolChunkBits][idx & (kPoolChunk - 1)];
  }

  bool handle_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < pool_size_ && slot_at(slot).gen == gen &&
           slot_at(slot).state == EventSlot::State::kArmed;
  }
  void handle_cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= pool_size_) return;
    EventSlot& s = slot_at(slot);
    if (s.gen != gen || s.state != EventSlot::State::kArmed) return;
    s.state = EventSlot::State::kCancelled;
    --live_count_;
  }

  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::size_t pool_size_ = 0;  // constructed slots across all chunks
  std::vector<std::uint32_t> free_;
  std::size_t live_count_ = 0;  // armed events (excludes cancelled)

  std::uint64_t wheel_time_ = 0;  // wheel cursor; <= every event in the wheel
  // Slot lists hold pool indices; -1 = empty.
  std::int32_t l0_head_[kL0Slots];
  std::uint64_t l0_occ_[kL0Slots / 64] = {};
  std::uint64_t l0_summary_ = 0;  // bit w set iff l0_occ_[w] != 0
  std::int32_t hi_head_[kWheelLevels - 1][kLxSlots];  // [level - 1][slot]
  std::uint64_t hi_occ_[kWheelLevels - 1][kLxSlots / 64] = {};
  std::uint64_t hi_min_ = kNoBlock;  // earliest occupied block start, levels 1..7

  std::vector<std::uint32_t> due_;  // current-instant batch, seq-sorted
  std::size_t due_pos_ = 0;
  std::vector<std::uint32_t> early_;  // events behind the cursor, (at,seq)-sorted
};

inline bool EventHandle::pending() const {
  if (alive_) return *alive_;
  return sim_ != nullptr && sim_->handle_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (alive_) {
    *alive_ = false;
  } else if (sim_ != nullptr) {
    sim_->handle_cancel(slot_, gen_);
  }
}

/// A recurring timer bound to a simulator: fires every `period` until
/// stopped. Used by rate meters, scenario timelines, and drain loops.
/// Backed by Simulator::schedule_periodic, so on the pooled backend the
/// timer reuses one event slot for its whole lifetime instead of
/// allocating a fresh closure per firing.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    handle_ = sim_.schedule_periodic(period_, [this] { fn_(); });
  }

  void stop() {
    running_ = false;
    handle_.cancel();
  }

  bool running() const { return running_; }
  SimDuration period() const { return period_; }

 private:
  Simulator& sim_;
  SimDuration period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventHandle handle_;
};

}  // namespace flowvalve::sim
