// Differential tests for the event kernel: the pooled timing-wheel backend
// must be observationally identical to the legacy binary-heap reference —
// same execution order (including same-instant FIFO), same clock readings,
// same events_executed(), same end-to-end scenario stats — across random
// workloads, multi-level cascades, horizon peeks, and the fuzz harness's
// full NP scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/runner.h"
#include "sim/simulator.h"

namespace flowvalve::sim {
namespace {

/// One executed event: (clock when it ran, identifying tag).
using Trace = std::vector<std::pair<SimTime, int>>;

/// Random closed workload: `n` root events at random offsets; each event
/// reschedules children with random deltas (0 included, so same-instant
/// FIFO is exercised), occasionally cancels a sibling, and a few periodic
/// timers tick until a scripted stop. Deterministic per seed.
Trace run_random_workload(SchedulerKind kind, std::uint64_t seed) {
  Simulator sim(kind);
  Trace trace;
  std::uint64_t lcg = seed * 2654435761u + 1;
  auto rnd = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % mod;
  };

  std::vector<EventHandle> handles;
  int next_tag = 0;
  // Recursive generator: each event logs itself and spawns 0-2 children
  // until the tag budget is spent. Deltas span level-0 instants (0-2999 ns),
  // a band across level 0's edge (3000-5000 ns) and multi-level jumps (up to
  // ~1 ms), so cascades run on every seed.
  std::function<void(int)> spawn = [&](int depth) {
    const int tag = next_tag++;
    if (tag > 4000) return;
    SimDuration delta = 0;
    if (rnd(8) != 0) {
      switch (rnd(4)) {
        case 0: delta = static_cast<SimDuration>(rnd(1'000'000)); break;
        // Straddles level 0's 4096-ns reach: some land in level 0, the
        // rest one block up and cascade.
        case 1: delta = static_cast<SimDuration>(3000 + rnd(2001)); break;
        default: delta = static_cast<SimDuration>(rnd(3000)); break;
      }
    }
    handles.push_back(sim.schedule_after(delta, [&, tag, depth] {
      trace.emplace_back(sim.now(), tag);
      if (depth < 12) {
        const std::uint64_t kids = rnd(3);
        for (std::uint64_t k = 0; k < kids; ++k) spawn(depth + 1);
      }
      if (rnd(5) == 0 && !handles.empty()) {
        handles[rnd(handles.size())].cancel();  // may hit fired/cancelled ones
      }
    }));
  };
  for (int i = 0; i < 40; ++i) spawn(0);

  // Periodic timers ticking through the same window; one cancels itself
  // from inside its own callback (the rearm-in-place edge case).
  int ticks = 0;
  EventHandle periodic = sim.schedule_periodic(
      microseconds(7), [&] { trace.emplace_back(sim.now(), -1); });
  EventHandle self_stop;
  self_stop = sim.schedule_periodic(microseconds(11), [&] {
    trace.emplace_back(sim.now(), -2);
    if (++ticks == 5) self_stop.cancel();
  });

  sim.run_until(milliseconds(2));
  periodic.cancel();
  sim.run_all();
  trace.emplace_back(sim.now(), static_cast<int>(sim.events_executed()));
  return trace;
}

TEST(SimKernelDiff, RandomWorkloadsExecuteIdentically) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 0xfeedull}) {
    const Trace heap = run_random_workload(SchedulerKind::kHeap, seed);
    const Trace wheel = run_random_workload(SchedulerKind::kWheel, seed);
    ASSERT_EQ(heap, wheel) << "divergence at seed " << seed;
  }
}

TEST(SimKernelDiff, FarFutureCascadesPreserveOrder) {
  // Instants spread across every wheel level (level 0 spans 4096 ns; each
  // higher level multiplies the span by 256), scheduled in scrambled order.
  const std::vector<SimTime> instants = {
      5,       4099,          4096 + 3,        (1ll << 20) + 7,
      1 << 12, (1ll << 28),   (1ll << 36) + 1, (1ll << 44) + 123,
      3,       (1ll << 52),   (1ll << 20) + 7,  // duplicate instant: FIFO
  };
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kWheel}) {
    Simulator sim(kind);
    std::vector<std::pair<SimTime, std::size_t>> fired;
    // Scramble: schedule in an order that differs from time order.
    const std::size_t scramble[] = {7, 2, 9, 0, 5, 10, 1, 8, 3, 6, 4};
    for (std::size_t i : scramble) {
      sim.schedule_at(instants[i], [&, i] {
        fired.emplace_back(sim.now(), i);
      });
    }
    sim.run_all();
    ASSERT_EQ(fired.size(), instants.size());
    for (std::size_t k = 0; k < fired.size(); ++k)
      EXPECT_EQ(fired[k].first, instants[fired[k].second]);
    for (std::size_t k = 1; k < fired.size(); ++k)
      ASSERT_LE(fired[k - 1].first, fired[k].first) << "out of time order";
    // Same-instant pairs must fire in scheduling order: index 2 was
    // scheduled before index 1 (both at t=4099), index 10 before index 3
    // (both at t=2^20+7).
    auto pos = [&](std::size_t idx) {
      for (std::size_t k = 0; k < fired.size(); ++k)
        if (fired[k].second == idx) return k;
      return fired.size();
    };
    EXPECT_LT(pos(2), pos(1));
    EXPECT_LT(pos(10), pos(3));
  }
}

TEST(SimKernelDiff, EarlyInsertAfterHorizonPeekStaysOrdered) {
  // A horizon peek may advance the wheel cursor past now(); an event then
  // scheduled between now() and the cursor must still fire first (it rides
  // the sorted early side-list).
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kWheel}) {
    Simulator sim(kind);
    std::vector<int> order;
    sim.schedule_at(1000, [&] { order.push_back(1); });
    sim.schedule_at(5000, [&] { order.push_back(3); });
    EXPECT_EQ(sim.run_until(2000), 1u);  // fires A, peeks at B past horizon
    EXPECT_EQ(sim.now(), 2000);
    sim.schedule_at(3000, [&] { order.push_back(2); });  // behind the peek
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.events_executed(), 3u);
  }
}

TEST(SimKernelDiff, CancelledTopDoesNotGateHorizon) {
  // Regression: a cancelled earliest event must neither fire, nor stop a
  // live later-but-within-horizon event from firing, nor corrupt the
  // next-event peek.
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kWheel}) {
    Simulator sim(kind);
    int fired = 0;
    EventHandle a = sim.schedule_at(100, [&] { fired += 100; });
    sim.schedule_at(200, [&] { fired += 1; });
    a.cancel();
    EXPECT_FALSE(a.pending());
    EXPECT_EQ(sim.run_until(250), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.events_executed(), 1u);
  }
}

TEST(SimKernelDiff, PeriodicRearmMatchesHeapEmulation) {
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kWheel}) {
    Simulator sim(kind);
    std::vector<SimTime> at;
    EventHandle h = sim.schedule_periodic(250, [&] { at.push_back(sim.now()); });
    sim.run_until(2000);
    EXPECT_TRUE(h.pending());  // periodic events stay pending across firings
    h.cancel();
    sim.run_all();
    ASSERT_EQ(at.size(), 8u);
    for (std::size_t i = 0; i < at.size(); ++i)
      EXPECT_EQ(at[i], static_cast<SimTime>(250 * (i + 1)));
    EXPECT_EQ(sim.events_executed(), 8u);
  }
}

// --- level 0's edges ---------------------------------------------------------
//
// The wheel's level 0 holds events due within 4096 ns of its cursor, in
// slot `at mod 4096`; later events sit in aligned higher-level blocks and
// cascade when the cursor reaches the block's start. The scripts below aim
// at the seams of that split and run on both kernels; the heap is the
// reference.

/// A scripted run: schedules into `sim` and logs (now, tag) into `trace`.
using Script = std::function<void(Simulator&, Trace&)>;

Trace run_script(SchedulerKind kind, const Script& script) {
  Simulator sim(kind);
  Trace trace;
  script(sim, trace);
  sim.run_all();
  trace.emplace_back(sim.now(), static_cast<int>(sim.events_executed()));
  return trace;
}

/// Runs `script` on both kernels, requires identical traces and returns the
/// heap's (its final entry is (now, events_executed)).
Trace expect_kernels_agree(const Script& script) {
  const Trace heap = run_script(SchedulerKind::kHeap, script);
  const Trace wheel = run_script(SchedulerKind::kWheel, script);
  EXPECT_EQ(heap, wheel);
  for (std::size_t k = 1; k + 1 < heap.size(); ++k)
    EXPECT_LE(heap[k - 1].first, heap[k].first) << "out of time order";
  return heap;
}

/// Logs `tag` at the current instant when run.
auto log_tag(Simulator& sim, Trace& trace, int tag) {
  return [&sim, &trace, tag] { trace.emplace_back(sim.now(), tag); };
}

TEST(SimKernelDiff, DeltasAcrossLevelZeroReachFromBoundaryCursors) {
  // Cursors just short of a 4096-ns boundary and of a 2^20-ns one (where a
  // 4096-ns block and a 2^20-ns level-2 block both end); from each, deltas
  // in [4000, 4200] put some children in level 0 and the rest one or two
  // levels up. Each child reschedules once with its own delta, and a
  // same-instant twin is scheduled from the anchor.
  const std::vector<SimTime> cursors = {
      4096 - 1,          4096 - 97,          3 * 4096 - 1,
      (1ll << 20) - 1,   (1ll << 20) - 100,  (1ll << 20) - 4000,
      (1ll << 20) - 4096, (2ll << 20) - 5};
  const Trace trace = expect_kernels_agree([&](Simulator& sim, Trace& trace) {
    int tag = 0;
    for (SimTime cursor : cursors) {
      sim.schedule_at(cursor, [&sim, &trace, base = tag] {
        trace.emplace_back(sim.now(), base);
        for (SimDuration d = 4000; d <= 4200; d += 9) {
          const int child = base + 1 + static_cast<int>(d - 4000);
          sim.schedule_after(d, [&sim, &trace, child, d] {
            trace.emplace_back(sim.now(), child);
            sim.schedule_after(d, log_tag(sim, trace, -child));
          });
        }
        for (SimDuration d : {4095, 4096, 4097})
          sim.schedule_after(d, log_tag(sim, trace, base + 500));
      });
      tag += 1000;
    }
  });
  // 8 anchors, each with 23 children that fire twice and 3 edge events.
  EXPECT_EQ(trace.back().second, 8 * (1 + 23 * 2 + 3));
}

TEST(SimKernelDiff, LevelZeroEventAtACascadingBlockStart) {
  // H is scheduled at t=0 for 8192 (level 1: 8192 ns ahead). At t=4200 the
  // cursor is within 4096 ns of 8192, so L (scheduled later, also for 8192)
  // lands in level 0. The cascade of H's block must come first, so H and L
  // fire in scheduling order: H, then L. Events either side of the block
  // start and a second block occupant pin the surrounding order.
  const Trace trace = expect_kernels_agree([](Simulator& sim, Trace& trace) {
    sim.schedule_at(8192, log_tag(sim, trace, 1));      // H: level 1
    sim.schedule_at(8193, log_tag(sim, trace, 2));      // H's block, +1 ns
    sim.schedule_at(4200, [&sim, &trace] {
      trace.emplace_back(sim.now(), 0);
      sim.schedule_at(8192, log_tag(sim, trace, 3));    // L: level 0
      sim.schedule_at(8191, log_tag(sim, trace, 4));    // level 0, before
      sim.schedule_at(8195, log_tag(sim, trace, 5));    // level 0, after
    });
  });
  const Trace expected = {{4200, 0}, {8191, 4}, {8192, 1}, {8192, 3},
                          {8193, 2}, {8195, 5}, {8195, 6}};
  EXPECT_EQ(trace, expected);
}

TEST(SimKernelDiff, CancelledHigherLevelMinimumIsSkipped) {
  // The earliest higher-level block holds only a cancelled event: the wheel
  // must cascade it away (cursor to its block start) and still find the
  // next block, a level-2 event and a live event later scheduled into the
  // very block the cancelled one occupies.
  const Trace trace = expect_kernels_agree([](Simulator& sim, Trace& trace) {
    EventHandle h1 = sim.schedule_at(10'000, log_tag(sim, trace, 1));
    sim.schedule_at(20'000, log_tag(sim, trace, 2));
    sim.schedule_at((1ll << 20) + 5, log_tag(sim, trace, 3));
    sim.schedule_at(3000, [&sim, &trace, h1]() mutable {
      trace.emplace_back(sim.now(), 0);
      h1.cancel();
      sim.schedule_at(7000, log_tag(sim, trace, 4));    // level 0
      sim.schedule_at(8200, log_tag(sim, trace, 5));    // h1's level-1 block
    });
    // Horizon stops right at, and just after, the cancelled block's start.
    sim.run_until(8192);
    trace.emplace_back(sim.now(), 100);
    sim.run_until(8193);
    trace.emplace_back(sim.now(), 101);
    // A cancelled event alone in the earliest block, with nothing else.
    EventHandle h2 = sim.schedule_at(40'000, log_tag(sim, trace, 6));
    sim.schedule_at(50'000, log_tag(sim, trace, 7));
    h2.cancel();
  });
  const Trace expected = {{3000, 0},     {7000, 4},  {8192, 100},
                          {8193, 101},   {8200, 5},  {20'000, 2},
                          {50'000, 7},   {(1ll << 20) + 5, 3},
                          {(1ll << 20) + 5, 6}};
  EXPECT_EQ(trace, expected);
}

TEST(SimKernelDiff, HorizonPeekIntoCascadedBlockThenSchedule) {
  // The horizon peek cascades X's block (cursor 8192) and stops the cursor
  // at X (10000), past now() = 5000. Schedules then land behind the cursor
  // (the early side-list), at X's instant, inside the 4096-ns window ahead
  // of the cursor and beyond it.
  const Trace trace = expect_kernels_agree([](Simulator& sim, Trace& trace) {
    sim.schedule_at(10'000, log_tag(sim, trace, 1));    // X: level 1
    sim.schedule_at(30'000, log_tag(sim, trace, 2));
    EXPECT_EQ(sim.run_until(5000), 0u);
    EXPECT_EQ(sim.now(), 5000);
    sim.schedule_at(9000, log_tag(sim, trace, 3));       // behind: early
    sim.schedule_at(6000, [&sim, &trace] {               // behind: early
      trace.emplace_back(sim.now(), 4);
      sim.schedule_at(9000, log_tag(sim, trace, 5));     // behind, same instant
      sim.schedule_at(9999, log_tag(sim, trace, 6));     // behind, by 1 ns
    });
    sim.schedule_at(10'000, log_tag(sim, trace, 7));     // X's instant
    sim.schedule_at(10'000 + 4095, log_tag(sim, trace, 8));  // window's end
    sim.schedule_at(10'000 + 4096, log_tag(sim, trace, 9));  // one past it
    sim.schedule_at(12'000, log_tag(sim, trace, 10));    // inside the window
    // A second peek that stops inside the cascaded window.
    EXPECT_EQ(sim.run_until(9500), 3u);
    sim.schedule_at(9800, log_tag(sim, trace, 11));      // behind again
    sim.schedule_at(10'000, log_tag(sim, trace, 12));
  });
  const Trace expected = {{6000, 4},      {9000, 3},      {9000, 5},
                          {9800, 11},     {9999, 6},      {10'000, 1},
                          {10'000, 7},    {10'000, 12},   {12'000, 10},
                          {14'095, 8},    {14'096, 9},    {30'000, 2},
                          {30'000, 12}};
  EXPECT_EQ(trace, expected);
}

TEST(SimKernelDiff, PeriodicTimersAroundLevelZeroReach) {
  // Periods one short of, equal to and one past level 0's 4096-ns reach:
  // the first re-arms into level 0, the others one level up. One-shots at
  // the timers' shared instants check same-instant order across them.
  const Trace trace = expect_kernels_agree([](Simulator& sim, Trace& trace) {
    std::vector<EventHandle> timers;
    for (SimDuration period : {4095, 4096, 4097})
      timers.push_back(sim.schedule_periodic(
          period, log_tag(sim, trace, static_cast<int>(period))));
    for (SimTime at : {4095ll * 4096, 4096ll * 4097, 4095ll * 4097,
                       4095ll * 4096 * 4097})
      sim.schedule_at(at, log_tag(sim, trace, 1));
    sim.run_until(4096ll * 4097 + 1);
    timers[1].cancel();
    sim.run_until(4095ll * 4096 * 4 + 3);
    for (EventHandle& h : timers) h.cancel();
  });
  int fired[3] = {0, 0, 0};
  for (std::size_t k = 0; k + 1 < trace.size(); ++k) {
    const int tag = trace[k].second;
    if (tag < 4095) continue;
    EXPECT_EQ(trace[k].first % tag, 0) << "period " << tag;
    ++fired[tag - 4095];
  }
  EXPECT_EQ(fired[0], 4096 * 4 + 0);  // until 4095*4096*4 + 3
  EXPECT_EQ(fired[1], 4097);          // cancelled at 4096*4097 + 1
  EXPECT_EQ(fired[2], (4095 * 4096 * 4 + 3) / 4097);
}

// Heap and wheel runs are compared wholesale via the canonical
// check::report_fingerprint (every CheckReport field, hexfloat doubles).
using check::report_fingerprint;

TEST(SimKernelDiff, FuzzScenariosProduceIdenticalStats) {
  // Full NP-stack differential: same fuzz seeds, both backends, identical
  // event counts and pipeline counter snapshots. Seeds cover the standard
  // scenario family; one chaos run exercises fault-plane timers too.
  for (std::uint64_t seed : {2ull, 3ull, 17ull}) {
    check::RunOptions heap_opts, wheel_opts;
    heap_opts.scheduler = SchedulerKind::kHeap;
    wheel_opts.scheduler = SchedulerKind::kWheel;
    const check::CheckReport h = check::run_seed(seed, heap_opts);
    const check::CheckReport w = check::run_seed(seed, wheel_opts);
    EXPECT_EQ(report_fingerprint(h), report_fingerprint(w))
        << "seed " << seed;
    EXPECT_EQ(h.violation_total, 0u) << h.summary();
  }
  check::RunOptions heap_opts, wheel_opts;
  heap_opts.chaos = wheel_opts.chaos = true;
  heap_opts.scheduler = SchedulerKind::kHeap;
  wheel_opts.scheduler = SchedulerKind::kWheel;
  const check::CheckReport h = check::run_seed(5, heap_opts);
  const check::CheckReport w = check::run_seed(5, wheel_opts);
  EXPECT_EQ(report_fingerprint(h), report_fingerprint(w));
}

}  // namespace
}  // namespace flowvalve::sim
