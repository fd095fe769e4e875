// Google-benchmark microbenchmarks for the core data structures: token
// buckets, the scheduling tree's update/θ-derivation, the classifier with
// and without flow-cache hits, the flow cache's hits, misses and inserts at
// churn_1m's million-flow scale, the event queue, the HTB baseline's hot
// paths, and the check layer's per-packet and audit costs. These are
// wall-clock benchmarks of the *implementation* (the figure benches
// measure virtual-time behaviour).
#include <benchmark/benchmark.h>

#include <optional>

#include "baseline/htb.h"
#include "core/flowvalve.h"
#include "exp/scenarios.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace flowvalve;

void BM_TokenBucketMeter(benchmark::State& state) {
  core::TokenBucket bucket(1e9, 1e9);
  std::uint64_t green = 0;
  for (auto _ : state) {
    bucket.add(1538.0);
    green += bucket.meter(1538) == core::MeterColor::kGreen;
  }
  benchmark::DoNotOptimize(green);
}
BENCHMARK(BM_TokenBucketMeter);

void BM_SchedTreeUpdate(benchmark::State& state) {
  core::SchedulingTree tree;
  const auto root = tree.add_root("root", sim::Rate::gigabits_per_sec(10));
  core::NodePolicy p;
  const auto a = tree.add_class("a", root, p);
  p.prio = 1;
  tree.add_class("b", root, p);
  tree.finalize();
  sim::SimTime now = 0;
  for (auto _ : state) {
    now += 200'000;
    tree.update_class(a, now);
  }
  benchmark::DoNotOptimize(tree.at(a).theta);
}
BENCHMARK(BM_SchedTreeUpdate);

void BM_ComputeThetaDeepTree(benchmark::State& state) {
  core::SchedulingTree tree;
  auto parent = tree.add_root("root", sim::Rate::gigabits_per_sec(40));
  core::ClassId leaf = parent;
  for (int d = 0; d < 4; ++d) {
    core::NodePolicy p;
    p.weight = 2.0;
    leaf = tree.add_class("c" + std::to_string(d), parent, p);
    core::NodePolicy q;
    q.prio = 1;
    tree.add_class("s" + std::to_string(d), parent, q);
    parent = leaf;
  }
  tree.finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.compute_theta(leaf, 1'000'000));
  }
}
BENCHMARK(BM_ComputeThetaDeepTree);

core::FlowValveEngine& shared_engine() {
  static core::FlowValveEngine* engine = [] {
    auto* e = new core::FlowValveEngine();
    const std::string err =
        e->configure(exp::fair_queueing_script(sim::Rate::gigabits_per_sec(40), 4));
    if (!err.empty()) std::abort();
    return e;
  }();
  return *engine;
}

void BM_EngineProcessCacheHit(benchmark::State& state) {
  auto& engine = shared_engine();
  net::Packet pkt;
  pkt.vf_port = 1;
  pkt.wire_bytes = 1518;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.dst_ip = 0x0a000002;
  pkt.tuple.src_port = 999;
  pkt.tuple.dst_port = 80;
  sim::SimTime now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(engine.process(pkt, now));
  }
}
BENCHMARK(BM_EngineProcessCacheHit);

void BM_ClassifierMiss(benchmark::State& state) {
  auto& engine = shared_engine();
  net::Packet pkt;
  pkt.vf_port = 2;
  pkt.wire_bytes = 64;
  pkt.tuple.dst_port = 80;
  std::uint32_t ip = 0;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    pkt.tuple.src_ip = ++ip;  // new flow every packet → cache miss+insert
    benchmark::DoNotOptimize(engine.classifier().classify(pkt, ++tick));
  }
}
BENCHMARK(BM_ClassifierMiss);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::Simulator sim;
  sim::Rng rng(7);
  // Keep a standing population of 1024 events; each handler re-arms itself.
  std::uint64_t fired = 0;
  std::function<void()> rearm = [&] {
    ++fired;
    sim.schedule_after(static_cast<sim::SimDuration>(rng.next_below(10'000) + 1), rearm);
  };
  for (int i = 0; i < 1024; ++i)
    sim.schedule_after(static_cast<sim::SimDuration>(rng.next_below(10'000) + 1), rearm);
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueChurn);

void BM_HtbEnqueueDequeue(benchmark::State& state) {
  baseline::HtbQdisc htb(sim::Rate::gigabits_per_sec(10), sim::Rate::gigabits_per_sec(10));
  for (int i = 0; i < 4; ++i) {
    baseline::HtbClassConfig c;
    c.name = "c" + std::to_string(i);
    c.rate = sim::Rate::gigabits_per_sec(2.5);
    c.ceil = sim::Rate::gigabits_per_sec(10);
    htb.add_class(c);
  }
  htb.set_classifier(
      [](const net::Packet& p) { return "c" + std::to_string(p.app_id % 4); });
  net::Packet pkt;
  pkt.wire_bytes = 1518;
  sim::SimTime now = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    now += 1230;
    pkt.app_id = i++;
    htb.enqueue(pkt, now);
    benchmark::DoNotOptimize(htb.dequeue(now));
  }
}
BENCHMARK(BM_HtbEnqueueDequeue);

void BM_FiveTupleHash(benchmark::State& state) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0x0a000002;
  t.src_port = 1234;
  t.dst_port = 80;
  for (auto _ : state) {
    ++t.src_port;
    benchmark::DoNotOptimize(t.hash());
  }
}
BENCHMARK(BM_FiveTupleHash);

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

}  // namespace

// ---- appended: PIFO vs Eiffel-style bucket queue --------------------------

#include "core/bucket_queue.h"
#include "baseline/pifo.h"

namespace {

using namespace flowvalve;

void BM_MultisetPifoChurn(benchmark::State& state) {
  // The PIFO comparator's std::multiset under steady push/pop.
  std::multiset<std::pair<double, std::uint64_t>> heap;
  sim::Rng rng(3);
  std::uint64_t seq = 0;
  for (int i = 0; i < 1024; ++i) heap.emplace(rng.next_double() * 4096.0, seq++);
  for (auto _ : state) {
    heap.emplace(rng.next_double() * 4096.0, seq++);
    heap.erase(heap.begin());
  }
  benchmark::DoNotOptimize(heap.size());
}
BENCHMARK(BM_MultisetPifoChurn);

void BM_BucketQueueChurn(benchmark::State& state) {
  // Eiffel-style FFS bucket queue on the same workload (quantized ranks).
  core::BucketQueue<std::uint64_t> q(4096);
  sim::Rng rng(3);
  std::uint64_t seq = 0;
  for (int i = 0; i < 1024; ++i)
    q.push(static_cast<std::size_t>(rng.next_below(4096)), seq++);
  for (auto _ : state) {
    q.push(static_cast<std::size_t>(rng.next_below(4096)), seq++);
    benchmark::DoNotOptimize(q.pop_min());
  }
}
BENCHMARK(BM_BucketQueueChurn);

}  // namespace

// ---- appended: the flow cache at churn_1m's scale -------------------------

#include "traffic/churn.h"

namespace {

using namespace flowvalve;

// perfbench's churn_1m scene: a 2^21-slot cache primed at tick 0 with
// churn serials 0..2^20-1 spread over four VFs. The table (96.5 MiB, or
// 128 MiB with 64-byte entries) is far larger than the CPU caches.
constexpr std::size_t kScaleSlots = std::size_t{1} << 21;
constexpr std::uint64_t kScaleFlows = std::uint64_t{1} << 20;
constexpr unsigned kScaleVfs = 4;

struct ChurnKey {
  std::uint16_t vf = 0;
  net::FiveTuple tuple;
};

ChurnKey churn_key(std::uint64_t serial) {
  return {traffic::ChurnWorkload::vf_for(serial, kScaleVfs),
          traffic::ChurnWorkload::tuple_for(serial)};
}

net::ClassLabelId churn_label(std::uint64_t serial) {
  return static_cast<net::ClassLabelId>(serial % 8);
}

/// Keys for serials [first, first + kScaleFlows) in a seeded random order.
std::vector<ChurnKey> shuffled_keys(std::uint64_t first) {
  std::vector<ChurnKey> keys;
  keys.reserve(kScaleFlows);
  for (std::uint64_t s = first; s < first + kScaleFlows; ++s) keys.push_back(churn_key(s));
  sim::Rng rng(11);
  for (std::size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.next_below(i + 1)]);
  return keys;
}

core::ExactMatchFlowCache& primed_cache() {
  static core::ExactMatchFlowCache* cache = [] {
    auto* c = new core::ExactMatchFlowCache(kScaleSlots);
    for (std::uint64_t s = 0; s < kScaleFlows; ++s) {
      const ChurnKey k = churn_key(s);
      c->insert(k.vf, k.tuple, churn_label(s), /*now_tick=*/0);
    }
    return c;
  }();
  return *cache;
}

/// Lookups against the primed table: every resident serial in a shuffled
/// order (hits), or as many serials that were never inserted (misses).
void lookups_at_scale(benchmark::State& state, std::uint64_t first_serial) {
  core::ExactMatchFlowCache& cache = primed_cache();
  const std::vector<ChurnKey> keys = shuffled_keys(first_serial);
  std::size_t i = 0;
  std::uint64_t tick = 1;
  for (auto _ : state) {
    const ChurnKey& k = keys[i];
    benchmark::DoNotOptimize(cache.lookup(k.vf, k.tuple, tick++));
    if (++i == keys.size()) i = 0;
  }
}

/// Inserts that prime an empty table to the scene's load, in serial order
/// as the scene primes it; the table is cleared (untimed) between passes.
void inserts_at_scale(benchmark::State& state) {
  core::ExactMatchFlowCache cache(kScaleSlots);
  std::uint64_t serial = 0;
  for (auto _ : state) {
    if (serial == kScaleFlows) {
      state.PauseTiming();
      cache.clear();
      serial = 0;
      state.ResumeTiming();
    }
    const ChurnKey k = churn_key(serial);
    benchmark::DoNotOptimize(cache.insert(k.vf, k.tuple, churn_label(serial), 0));
    ++serial;
  }
}

enum class ScaleOp { kHit, kMiss, kInsert };

void BM_FlowCacheAtScale(benchmark::State& state, ScaleOp op) {
  switch (op) {
    case ScaleOp::kHit:
      lookups_at_scale(state, 0);
      break;
    case ScaleOp::kMiss:
      lookups_at_scale(state, kScaleFlows);
      break;
    case ScaleOp::kInsert:
      inserts_at_scale(state);
      break;
  }
}
BENCHMARK_CAPTURE(BM_FlowCacheAtScale, hit, ScaleOp::kHit);
BENCHMARK_CAPTURE(BM_FlowCacheAtScale, miss, ScaleOp::kMiss);
BENCHMARK_CAPTURE(BM_FlowCacheAtScale, insert, ScaleOp::kInsert)
    ->Iterations(2 * kScaleFlows);

/// The coherence audit's recount of the occupancy books: a 2^18-slot table,
/// the fuzz corpus's largest, holding a few dozen flows as most fuzz
/// scenarios do, or the primed 2^21-slot table above.
void BM_OccupancyHistogram(benchmark::State& state, bool primed) {
  std::optional<core::ExactMatchFlowCache> sparse;
  if (!primed) {
    sparse.emplace(std::size_t{1} << 18);
    for (std::uint64_t s = 0; s < 48; ++s) {
      const ChurnKey k = churn_key(s);
      sparse->insert(k.vf, k.tuple, churn_label(s), /*now_tick=*/0);
    }
  }
  const core::ExactMatchFlowCache& cache = primed ? primed_cache() : *sparse;
  for (auto _ : state) benchmark::DoNotOptimize(cache.occupancy_histogram());
}
BENCHMARK_CAPTURE(BM_OccupancyHistogram, fuzz_2e18, false);
BENCHMARK_CAPTURE(BM_OccupancyHistogram, primed_2e21, true);

}  // namespace

// ---- appended: the check layer per packet ---------------------------------

#include "check/checker.h"
#include "np/nic_pipeline.h"

namespace {

using namespace flowvalve;

/// The standard checkers' cost per packet, which perfbench cannot split
/// out of fuzz_chaos: an in-order stream fed straight to the harness of a
/// NullProcessor pipeline with reorder on, one packet per iteration
/// through submit → dispatch → wire_tx → delivered at one instant. With no
/// engine, the engine-result hook never fires. The stream is clean, so the
/// sink must stay so.
void BM_CheckHarnessPacket(benchmark::State& state) {
  constexpr std::uint32_t kFlows = 64;
  // One 1518-byte frame per µs is about 12 Gb/s, under the default 40G.
  constexpr sim::SimDuration kGap = sim::microseconds(1);
  sim::Simulator sim;
  np::NullProcessor proc;
  const np::NpConfig cfg;
  np::NicPipeline pipeline(sim, cfg, proc);
  check::CheckHarness harness(sim, pipeline, nullptr);
  harness.add_standard_checkers();
  std::vector<std::uint64_t> seq(kFlows + 1, 0);
  net::Packet pkt;
  pkt.wire_bytes = 1518;
  sim::SimTime t = cfg.fixed_pipeline_delay;
  for (auto _ : state) {
    ++pkt.id;
    pkt.flow_id = static_cast<std::uint32_t>(pkt.id % kFlows) + 1;
    pkt.vf_port = static_cast<std::uint16_t>(pkt.flow_id % cfg.num_vfs);
    pkt.seq_in_flow = ++seq[pkt.flow_id];
    t += kGap;
    sim.run_until(t);  // the dispatch hook reads the simulator's clock
    pkt.created_at = pkt.nic_arrival = pkt.tx_enqueue = pkt.wire_tx_done =
        t - cfg.fixed_pipeline_delay;
    pkt.delivered_at = t;
    harness.on_submit(pkt, t);
    harness.on_dispatch(pkt, /*worker=*/0, /*seq=*/pkt.id - 1, t, kGap);
    harness.on_wire_tx(pkt, t);
    harness.on_delivered(pkt, t);
  }
  if (!harness.sink().clean())
    state.SkipWithError(harness.sink().violations().front().to_string().c_str());
  state.counters["per_pkt"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CheckHarnessPacket);

}  // namespace

BENCHMARK_MAIN();
