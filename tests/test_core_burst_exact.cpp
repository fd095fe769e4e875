// Engine-level burst exactness: FlowValveEngine::process_batch over a burst
// must leave exactly what one process() call per packet at the same instant
// leaves — per-packet verdict, cycles, cache_hit and borrowed, the
// process-observer sequence, and all flow-cache and backend state. Each case
// drives two identically configured engines, one a burst at a time and one
// a packet at a time, under every backend, through the places where the
// burst path replays an EMC hit instead of probing the cache again:
//   (i)   EMC hits replayed while idle eviction is on,
//   (ii)  EMC hits replayed while the cache is degraded,
//   (iii) EMC hits replayed while a saturated class tail-drops (every
//         packet still runs the backend's full schedule()).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/flowvalve.h"

namespace flowvalve::core {
namespace {

constexpr BackendKind kBackends[] = {BackendKind::kFlowValve, BackendKind::kStfq,
                                     BackendKind::kEiffel};

const char* const kPolicy =
    "fv qdisc add dev nic0 root handle 1: htb rate 8gbit\n"
    "fv class add dev nic0 parent 1: classid 1:10 name a weight 1\n"
    "fv class add dev nic0 parent 1: classid 1:11 name b weight 1\n"
    "fv borrow add dev nic0 classid 1:10 from 1:11\n"
    "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
    "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n";

/// What the process observer saw for one packet.
struct Seen {
  std::uint64_t id = 0;
  net::ClassLabelId label = net::kUnclassified;
  Verdict verdict = Verdict::kDrop;
  std::uint32_t cycles = 0;
  bool cache_hit = false;
  bool borrowed = false;
  sim::SimTime now = 0;
  friend bool operator==(const Seen&, const Seen&) = default;
};

/// An engine and the observer sequence it produced. The observer captures
/// `this`, so a Probe stays where it was built.
struct Probe {
  Probe(BackendKind backend, const ExactMatchFlowCache::Options& emc)
      : engine([&] {
          FlowValveEngine::Options opt;
          opt.backend = backend;
          opt.emc = emc;
          return opt;
        }()) {
    EXPECT_EQ(engine.configure(kPolicy), "");
    engine.set_process_observer([this](const net::Packet& p,
                                       const FlowValveEngine::Result& r,
                                       sim::SimTime now) {
      seen.push_back({p.id, p.label, r.verdict, r.cycles, r.cache_hit, r.borrowed, now});
    });
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  const ExactMatchFlowCache& cache() { return engine.classifier().cache(); }

  FlowValveEngine engine;
  std::vector<Seen> seen;
};

net::Packet packet(std::uint16_t vf, std::uint32_t flow) {
  static std::uint64_t next_id = 0;
  net::Packet p;
  p.id = ++next_id;
  p.vf_port = vf;
  p.wire_bytes = 1000;
  p.tuple.src_ip = 0x0a000000u + flow;
  p.tuple.dst_ip = 0x0a0000ffu;
  p.tuple.src_port = static_cast<std::uint16_t>(1000 + flow);
  p.tuple.dst_port = 80;
  return p;
}

std::vector<net::Packet> train(std::uint16_t vf, std::uint32_t flow, std::size_t n) {
  std::vector<net::Packet> burst;
  for (std::size_t i = 0; i < n; ++i) burst.push_back(packet(vf, flow));
  return burst;
}

/// Feeds `burst` at `now` to `batched` as one process_batch call and to
/// `single` as one process() call per packet; the per-packet results must
/// agree.
void feed(Probe& batched, Probe& single, const std::vector<net::Packet>& burst,
          sim::SimTime now) {
  std::vector<net::Packet> a = burst;
  std::vector<net::Packet> b = burst;
  std::vector<FlowValveEngine::BatchEntry> entries;
  for (net::Packet& p : a) entries.push_back({&p, {}});
  batched.engine.process_batch(entries.data(), entries.size(), now);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const FlowValveEngine::Result r = single.engine.process(b[i], now);
    const FlowValveEngine::Result& q = entries[i].result;
    EXPECT_EQ(q.verdict, r.verdict) << "t=" << now << " packet " << i;
    EXPECT_EQ(q.cycles, r.cycles) << "t=" << now << " packet " << i;
    EXPECT_EQ(q.cache_hit, r.cache_hit) << "t=" << now << " packet " << i;
    EXPECT_EQ(q.borrowed, r.borrowed) << "t=" << now << " packet " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "t=" << now << " packet " << i;
  }
}

#define EXPECT_SAME_FIELD(x, y, field) EXPECT_EQ((x).field, (y).field) << #field

void expect_same_state(Probe& batched, Probe& single) {
  ASSERT_EQ(batched.seen.size(), single.seen.size());
  for (std::size_t i = 0; i < batched.seen.size(); ++i)
    EXPECT_TRUE(batched.seen[i] == single.seen[i]) << "observer record " << i;

  const ExactMatchFlowCache::Stats& c = batched.cache().stats();
  const ExactMatchFlowCache::Stats& d = single.cache().stats();
  EXPECT_SAME_FIELD(c, d, hits);
  EXPECT_SAME_FIELD(c, d, misses);
  EXPECT_SAME_FIELD(c, d, insertions);
  EXPECT_SAME_FIELD(c, d, evictions);
  EXPECT_SAME_FIELD(c, d, stale_invalidations);
  EXPECT_SAME_FIELD(c, d, idle_evictions);
  EXPECT_SAME_FIELD(c, d, kicks);
  EXPECT_SAME_FIELD(c, d, kick_failures);
  EXPECT_SAME_FIELD(c, d, corruption_detected);
  EXPECT_SAME_FIELD(c, d, suppressed_inserts);
  EXPECT_SAME_FIELD(c, d, degraded_transitions);
  EXPECT_SAME_FIELD(c, d, degraded_dwell_lookups);
  EXPECT_SAME_FIELD(c, d, recovering_dwell_lookups);
  EXPECT_EQ(batched.cache().health(), single.cache().health());
  EXPECT_EQ(batched.cache().failure_score(), single.cache().failure_score());
  EXPECT_EQ(batched.cache().size(), single.cache().size());

  const SchedulerBackend::Stats& s = batched.engine.backend().stats();
  const SchedulerBackend::Stats& t = single.engine.backend().stats();
  EXPECT_SAME_FIELD(s, t, forwarded);
  EXPECT_SAME_FIELD(s, t, dropped);
  EXPECT_SAME_FIELD(s, t, borrowed);
  EXPECT_SAME_FIELD(s, t, updates);
  EXPECT_SAME_FIELD(s, t, lock_failures);
  EXPECT_SAME_FIELD(s, t, policy_commits);
  EXPECT_SAME_FIELD(s, t, rank_admissions);
  EXPECT_SAME_FIELD(s, t, rank_lead_drops);
  EXPECT_SAME_FIELD(s, t, rank_horizon_drops);
  EXPECT_SAME_FIELD(s, t, calendar_rebases);
}

TEST(BurstExact, IdleEvictionSweepsOnReplayedHits) {
  // 40 flows go idle in a 64-slot EMC with a 1 µs timeout; then one flow
  // bursts. Every packet of the burst, replayed or not, sweeps one of the
  // 16 buckets, so the burst alone reclaims all 40 idle entries.
  ExactMatchFlowCache::Options emc;
  emc.capacity = 64;
  emc.idle_timeout_ticks = 1000;
  for (BackendKind backend : kBackends) {
    SCOPED_TRACE(backend_kind_name(backend));
    Probe batched(backend, emc);
    Probe single(backend, emc);
    std::vector<net::Packet> idle;
    for (std::uint32_t f = 0; f < 40; ++f)
      idle.push_back(packet(static_cast<std::uint16_t>(f % 2), f));
    feed(batched, single, idle, 0);
    feed(batched, single, train(0, 100, 16), sim::microseconds(10));
    EXPECT_EQ(single.cache().size(), 1u);
    // A mixed burst after a second idle gap: interleaved flows, returning
    // idle flows, and a run of one flow.
    std::vector<net::Packet> mixed;
    for (std::uint32_t i = 0; i < 12; ++i) {
      mixed.push_back(packet(0, 100));
      mixed.push_back(packet(1, i % 3));
    }
    for (net::Packet& p : train(1, 7, 8)) mixed.push_back(p);
    feed(batched, single, mixed, sim::microseconds(20));
    expect_same_state(batched, single);
  }
}

TEST(BurstExact, DegradedCacheDwellCountsReplayedHits) {
  // A collision storm degrades the cache; a resident flow then bursts. Each
  // of its lookups, replayed or not, decays the pressure score and serves
  // the degraded dwell, so the burst walks the cache back to healthy and a
  // following burst of new flows is admitted. At the shipped thresholds
  // that takes kMinDegradedDwell + kRecoveryCleanLookups lookups.
  const ExactMatchFlowCache::Options emc{.capacity = 4096};
  const std::size_t heal = ExactMatchFlowCache::kMinDegradedDwell +
                           ExactMatchFlowCache::kRecoveryCleanLookups;
  for (BackendKind backend : kBackends) {
    SCOPED_TRACE(backend_kind_name(backend));
    Probe batched(backend, emc);
    Probe single(backend, emc);
    std::vector<net::Packet> warm;
    for (std::uint32_t f = 0; f < 8; ++f) warm.push_back(packet(0, f));
    feed(batched, single, warm, sim::microseconds(1));
    for (Probe* p : {&batched, &single})
      p->engine.classifier().cache_for_fault().fault_collision_storm(
          /*seed=*/42, /*n=*/64, sim::microseconds(2));
    ASSERT_EQ(single.cache().health(), ExactMatchFlowCache::Health::kDegraded);

    // The first warm flow whose entry the storm left resident.
    std::uint32_t resident = 8;
    for (std::uint32_t f = 0; f < 8 && resident == 8; ++f) {
      const net::Packet p = packet(0, f);
      if (single.cache().peek(0, p.tuple, single.engine.classifier().label_epoch()))
        resident = f;
    }
    ASSERT_LT(resident, 8u);

    feed(batched, single, train(0, resident, heal), sim::microseconds(3));
    EXPECT_EQ(single.cache().health(), ExactMatchFlowCache::Health::kHealthy);
    std::vector<net::Packet> fresh;
    for (std::uint32_t f = 50; f < 58; ++f) fresh.push_back(packet(1, f));
    for (net::Packet& p : train(0, resident, 4)) fresh.push_back(p);
    feed(batched, single, fresh, sim::microseconds(4));
    expect_same_state(batched, single);
  }
}

TEST(BurstExact, SaturatedClassTailDropsReplay) {
  // Bursts of 32 same-flow packets every microsecond offer ~260 Gbit/s to
  // an 8 Gbit/s root: after borrowing runs dry, the burst path replays EMC
  // hits for packets the scheduler then tail-drops, with lock attempts and
  // bucket state evolving exactly as per-packet.
  for (BackendKind backend : kBackends) {
    SCOPED_TRACE(backend_kind_name(backend));
    Probe batched(backend, {});
    Probe single(backend, {});
    for (std::int64_t us = 1; us <= 300; ++us) {
      std::vector<net::Packet> burst = train(0, 1, 32);
      if (us % 3 == 0) {
        // Interleave a second flow midway; it gets its own flow group.
        burst[16] = packet(1, 2);
      }
      feed(batched, single, burst, sim::microseconds(us));
    }
    EXPECT_GT(single.engine.backend().stats().dropped, 0u);
    EXPECT_GT(single.engine.backend().stats().forwarded, 0u);
    expect_same_state(batched, single);
  }
}

}  // namespace
}  // namespace flowvalve::core
