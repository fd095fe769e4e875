#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace flowvalve::sim {

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kHeap: return "heap";
    case SchedulerKind::kWheel: return "wheel";
  }
  return "unknown";
}

SimTime Simulator::next_event_time() {
  if (kind_ == SchedulerKind::kHeap) {
    // Drop cancelled events before peeking: a cancelled event must neither
    // gate the horizon check (historically it could let a LIVE event past
    // the horizon slip through) nor misreport the next firing time.
    while (!queue_.empty() && !*queue_.top().alive) queue_.pop();
    return queue_.empty() ? kSimTimeMax : queue_.top().at;
  }
  return wheel_next_time();
}

bool Simulator::step() {
  return kind_ == SchedulerKind::kHeap ? heap_step() : wheel_step();
}

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t n = 0;
  if (kind_ == SchedulerKind::kHeap) {
    for (;;) {
      const SimTime t = next_event_time();
      if (t > until) break;
      if (!heap_step()) break;  // drained (only when until == kSimTimeMax)
      ++n;
    }
  } else {
    for (;;) {
      // The horizon peek leaves the front of early_/due_ armed, so the
      // execute half runs without re-deriving the next event.
      const SimTime t = wheel_next_time();
      if (t > until) break;
      if (t == kSimTimeMax && live_count_ == 0) break;
      wheel_exec_ready();
      ++n;
    }
  }
  // Advance the clock to the horizon even if nothing fires exactly there so
  // that back-to-back run_until calls observe monotonic time.
  if (until != kSimTimeMax && until > now_) now_ = until;
  return n;
}

// --- legacy binary-heap backend ---------------------------------------------

EventHandle Simulator::heap_schedule(SimTime at, std::function<void()> fn) {
  auto alive = std::make_shared<bool>(true);
  queue_.push(HeapEvent{at, next_seq_++, std::move(fn), alive});
  return EventHandle(std::move(alive));
}

EventHandle Simulator::heap_schedule_periodic(SimDuration period,
                                              std::function<void()> fn) {
  // One shared flag doubles as the handle's liveness AND every chain
  // event's `alive`: cancelling it kills the next firing in place, so the
  // heap backend counts exactly the same executed events as the wheel.
  auto running = std::make_shared<bool>(true);
  auto shared_fn = std::make_shared<std::function<void()>>(std::move(fn));
  heap_periodic_arm(running, shared_fn, period);
  return EventHandle(running);
}

void Simulator::heap_periodic_arm(std::shared_ptr<bool> running,
                                  std::shared_ptr<std::function<void()>> fn,
                                  SimDuration period) {
  queue_.push(HeapEvent{now_ + period, next_seq_++,
                        [this, running, fn, period] {
                          // heap_step cleared the flag on pop; a periodic
                          // event stays pending through its own callback.
                          *running = true;
                          (*fn)();
                          if (*running) heap_periodic_arm(running, fn, period);
                        },
                        running});
}

bool Simulator::heap_step() {
  while (!queue_.empty()) {
    // priority_queue::top is const; move out via const_cast is UB-adjacent,
    // so copy the small fields and move the callable through a mutable pop
    // pattern: re-wrap in a local.
    HeapEvent ev = queue_.top();
    queue_.pop();
    if (!*ev.alive) continue;  // cancelled
    now_ = ev.at;
    *ev.alive = false;
    ++events_executed_;
    ev.fn();
    return true;
  }
  return false;
}

// --- pooled slab + hierarchical timing wheel backend ------------------------

std::uint32_t Simulator::alloc_slot() {
  if (free_.empty()) {
    if (pool_size_ == chunks_.size() * kPoolChunk)
      chunks_.push_back(std::make_unique<EventSlot[]>(kPoolChunk));
    return static_cast<std::uint32_t>(pool_size_++);
  }
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  return idx;
}

void Simulator::free_slot(std::uint32_t idx) {
  EventSlot& s = slot_at(idx);
  s.fn.reset();  // release captured resources promptly
  s.state = EventSlot::State::kFree;
  s.period = 0;
  s.next = -1;
  ++s.gen;  // outstanding handles to this slot turn inert
  free_.push_back(idx);
}

void Simulator::wheel_place(std::uint32_t idx) {
  EventSlot& s = slot_at(idx);
  const std::uint64_t t = static_cast<std::uint64_t>(s.at);
  if (t < wheel_time_) {
    // Scheduled behind the cursor: possible only after a horizon peek
    // advanced the wheel past `now_`. Such an event is earlier than
    // everything still in the wheel, so it lives in a small sorted
    // side-list that drains before the wheel.
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
      const EventSlot& x = slot_at(a);
      const EventSlot& y = slot_at(b);
      if (x.at != y.at) return x.at < y.at;
      return x.seq < y.seq;
    };
    early_.insert(std::lower_bound(early_.begin(), early_.end(), idx, before),
                  idx);
    s.next = -1;
    return;
  }
  if (t - wheel_time_ < kL0Slots) {
    // Within 4096 ns of the cursor: the slot resolves the instant exactly,
    // since level 0 never holds two instants that agree mod 4096.
    const unsigned slot = static_cast<unsigned>(t & (kL0Slots - 1));
    s.next = l0_head_[slot];
    l0_head_[slot] = static_cast<std::int32_t>(idx);
    l0_occ_[slot >> 6] |= 1ull << (slot & 63);
    l0_summary_ |= 1ull << (slot >> 6);
    return;
  }
  // At least 4096 ns ahead, so `t` and the cursor differ at bit 12 or above:
  // the minimal aligned level whose block still contains the cursor.
  const unsigned level = hi_level(t);
  const unsigned shift = level_shift(level);
  const unsigned slot = static_cast<unsigned>((t >> shift) & (kLxSlots - 1));
  std::int32_t& head = hi_head_[level - 1][slot];
  s.next = head;
  head = static_cast<std::int32_t>(idx);
  hi_occ_[level - 1][slot >> 6] |= 1ull << (slot & 63);
  hi_min_ = std::min(hi_min_, (t >> shift) << shift);
}

unsigned Simulator::l0_next_slot() const {
  // Level-0 events lie in [wheel_time_, wheel_time_ + 4096), so the first
  // occupied slot circularly from the cursor's slot holds the earliest.
  const unsigned cur = static_cast<unsigned>(wheel_time_ & (kL0Slots - 1));
  const unsigned word = cur >> 6;
  if (const std::uint64_t here = l0_occ_[word] & (~0ull << (cur & 63)))
    return word * 64 + static_cast<unsigned>(__builtin_ctzll(here));
  // Words after the cursor's, else wrap to the lowest occupied word (it may
  // be the cursor's own, below the cursor's bit).
  const std::uint64_t later = l0_summary_ & (~1ull << word);
  const unsigned w =
      static_cast<unsigned>(__builtin_ctzll(later != 0 ? later : l0_summary_));
  return w * 64 + static_cast<unsigned>(__builtin_ctzll(l0_occ_[w]));
}

void Simulator::rescan_hi_min(unsigned from_level) {
  // Level-L blocks lie inside the cursor's level-(L+1) block while
  // level-(L+1) blocks lie strictly beyond it, so the first occupied slot
  // of the first occupied level is the earliest. Slots at or behind a
  // level's cursor index are empty: the cursor never passes hi_min_.
  hi_min_ = kNoBlock;
  for (unsigned level = from_level; level < kWheelLevels; ++level) {
    const unsigned shift = level_shift(level);
    const unsigned cur =
        static_cast<unsigned>((wheel_time_ >> shift) & (kLxSlots - 1));
    const std::uint64_t* occ = hi_occ_[level - 1];
    std::uint64_t mask = ~0ull << ((cur + 1) & 63);
    for (unsigned w = (cur + 1) >> 6; w < kLxSlots / 64; ++w, mask = ~0ull) {
      const std::uint64_t bits = occ[w] & mask;
      if (bits == 0) continue;
      const unsigned span = shift + kLxBits;
      const std::uint64_t base =
          span < 64 ? wheel_time_ & ~((1ull << span) - 1) : 0;
      const std::uint64_t j =
          w * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
      hi_min_ = base + (j << shift);
      return;
    }
  }
}

void Simulator::cascade_min_block() {
  // The cursor reaches the earliest occupied higher-level block: its events
  // now lie within one block span of the cursor, so each re-placement lands
  // in a strictly lower level. Levels below this one are empty (their
  // blocks would all precede this one).
  const unsigned level = hi_level(hi_min_);
  const unsigned shift = level_shift(level);
  const unsigned slot =
      static_cast<unsigned>((hi_min_ >> shift) & (kLxSlots - 1));
  std::int32_t head = hi_head_[level - 1][slot];
  hi_head_[level - 1][slot] = -1;
  hi_occ_[level - 1][slot >> 6] &= ~(1ull << (slot & 63));
  wheel_time_ = hi_min_;
  rescan_hi_min(level);
  while (head >= 0) {
    const std::uint32_t idx = static_cast<std::uint32_t>(head);
    head = slot_at(idx).next;
    slot_at(idx).next = -1;
    if (slot_at(idx).state == EventSlot::State::kArmed) {
      wheel_place(idx);  // lowers hi_min_ when it lands above level 0
    } else {
      free_slot(idx);
    }
  }
}

void Simulator::wheel_advance() {
  for (;;) {
    std::uint64_t l0_time = kNoBlock;
    unsigned l0_slot = 0;
    if (l0_summary_ != 0) {
      l0_slot = l0_next_slot();
      l0_time = wheel_time_ + ((l0_slot - wheel_time_) & (kL0Slots - 1));
    }
    // On a tie the cascade goes first: it brings the block's events at
    // that instant into the same level-0 slot, so one due_ batch holds the
    // whole instant.
    if (hi_min_ <= l0_time) {
      assert(hi_min_ != kNoBlock &&
             "live events exist but no wheel slot is occupied");
      if (hi_min_ == kNoBlock) return;
      cascade_min_block();
      continue;
    }

    std::int32_t head = l0_head_[l0_slot];
    l0_head_[l0_slot] = -1;
    std::uint64_t& occ = l0_occ_[l0_slot >> 6];
    occ &= ~(1ull << (l0_slot & 63));
    if (occ == 0) l0_summary_ &= ~(1ull << (l0_slot >> 6));
    wheel_time_ = l0_time;

    // Exact instant reached: batch the slot's survivors, restore
    // same-instant FIFO by sequence number.
    while (head >= 0) {
      const std::uint32_t idx = static_cast<std::uint32_t>(head);
      head = slot_at(idx).next;
      slot_at(idx).next = -1;
      if (slot_at(idx).state == EventSlot::State::kArmed) {
        due_.push_back(idx);
      } else {
        free_slot(idx);
      }
    }
    if (!due_.empty()) {
      if (due_.size() > 1)  // batches of one (sparse workloads) skip it
        std::sort(due_.begin(), due_.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                    return slot_at(a).seq < slot_at(b).seq;
                  });
      return;
    }
    // Slot held only cancelled events; keep searching.
  }
}

SimTime Simulator::wheel_next_time() {
  for (;;) {
    while (!early_.empty()) {
      const std::uint32_t idx = early_.front();
      if (slot_at(idx).state == EventSlot::State::kArmed) return slot_at(idx).at;
      free_slot(idx);
      early_.erase(early_.begin());
    }
    while (due_pos_ < due_.size()) {
      const std::uint32_t idx = due_[due_pos_];
      if (slot_at(idx).state == EventSlot::State::kArmed) return slot_at(idx).at;
      free_slot(idx);
      ++due_pos_;
    }
    due_.clear();
    due_pos_ = 0;
    if (live_count_ == 0) return kSimTimeMax;
    wheel_advance();
  }
}

bool Simulator::wheel_step() {
  const SimTime t = wheel_next_time();
  if (t == kSimTimeMax && live_count_ == 0) return false;
  wheel_exec_ready();
  return true;
}

void Simulator::wheel_exec_ready() {
  std::uint32_t idx;
  if (!early_.empty()) {
    idx = early_.front();
    early_.erase(early_.begin());
  } else {
    idx = due_[due_pos_++];
  }

  EventSlot& s = slot_at(idx);  // chunked pool: stable through reentrant scheduling
  now_ = s.at;
  ++events_executed_;
  if (s.period > 0) {
    s.fn();  // stays kArmed (and pending) through its own callback
    if (s.state == EventSlot::State::kArmed) {
      // Rearm in place: same slot, same generation, same closure — a new
      // deadline and sequence number are the only per-period work.
      s.at = now_ + s.period;
      s.seq = next_seq_++;
      wheel_place(idx);
    } else {
      free_slot(idx);  // cancelled from inside its own callback
    }
  } else {
    s.state = EventSlot::State::kCancelled;  // no longer pending during fn
    --live_count_;
    s.fn();
    free_slot(idx);
  }
}

}  // namespace flowvalve::sim
