// fv_perfbench — the simulator's benchmark program.
//
//   fv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--inject leak|bypass] [--trace-out PATH]
//
// Runs one workload single-threaded for about S host seconds: the same
// seed-derived scenario is set up and run to quiescence again and again,
// and every host-time metric is taken from the fastest of those
// repetitions (see fastest()). Every repetition is checked
// (conservation, in-flow order, determinism of the virtual-time
// fingerprint). With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced repetitions and prints the
// per-layer split of the fastest traced one. The first stdout
// line is the build block; the last is one JSON object: {"correct",
// "attempted","failed","metrics":{name:{"value","unit"}}}. README.md in
// this directory describes the workloads and the metrics.
#include <sched.h>
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/runner.h"
#include "core/flowvalve.h"
#include "exp/scenarios.h"
#include "host/probes.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/metrics_hub.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace.h"
#include "traffic/app.h"
#include "traffic/churn.h"
#include "traffic/generators.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-time estimator: the fastest of a run's repetitions. The benchmark
/// host is shared, and other tenants slow stretches of repetitions by up
/// to ~40%, for seconds or minutes; the median moves with the share of
/// slowed repetitions, while the best one stays with the uncontended host
/// whenever the run sees it at all.
std::size_t fastest_index(const std::vector<double>& times) {
  return static_cast<std::size_t>(std::min_element(times.begin(), times.end()) - times.begin());
}

double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : times[fastest_index(times)];
}

/// Linearly interpolated percentile p in [0, 100] of `v` (0 if empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Runs `f` pinned to each CPU the process may use, then restores the
/// original affinity. A measurement of a few milliseconds never leaves the
/// CPU it starts on, and a CPU whose sibling another tenant keeps busy
/// runs it ~1.6x slower, so a single-CPU fastest-of-N is bimodal.
template <typename F>
void on_each_cpu(F&& f) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    f();
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) f();
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// ---------------------------------------------------------------- output --

struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

  std::string json() const {
    std::ostringstream s;
    s << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      s << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    s << "}}";
    return s.str();
  }
};

// ------------------------------------------------------- pipeline scenes --

constexpr std::uint32_t kFrameBytes = 1518;

/// Four equal leaves under the root, VF i → class i (bench_pipeline's
/// "flat" policy and scale_sweep's policy).
std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps() << "gbit\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

/// The traffic of one scene: built (and started, where it starts at t = 0)
/// during set-up, then driven to the horizon by run().
class Sources {
 public:
  virtual ~Sources() = default;
  virtual void run(sim::Simulator& sim) = 0;
  virtual void stop() = 0;
  /// Latency-probe samples at the horizon, for scenes that carry a probe.
  virtual const stats::LatencyStats* probe_delays() const { return nullptr; }
};

struct SceneEnv {
  sim::Simulator& sim;
  traffic::FlowRouter& router;
  traffic::IdAllocator& ids;
  core::FlowValveEngine& engine;
  std::uint64_t seed;
};

struct Scene {
  std::string name;
  np::NpConfig nic;
  std::string policy;
  sim::SimTime horizon = 0;
  sim::SimTime steady_from = 0;    // share / delivered-rate window start
  sim::SimDuration hub_window = 0;
  std::vector<std::uint16_t> share_vfs;  // equal-weight classes compared
  /// Delays come from the NIC sojourn of every delivered packet (false:
  /// from the scene's own probe).
  bool sojourn_delays = true;
  /// Builds the sources; stores EMC priming time in *prime_s.
  std::function<std::unique_ptr<Sources>(SceneEnv&, double* prime_s)> build;
};

// burst_saturated: bench_pipeline's gate cell, run long.
class BurstSources final : public Sources {
 public:
  BurstSources(SceneEnv& env, sim::Rate offered, sim::SimTime horizon) : horizon_(horizon) {
    const sim::Rng rng = sim::Rng(env.seed).split("burst_saturated");
    for (unsigned i = 0; i < 4; ++i) {
      traffic::FlowSpec fs;
      fs.flow_id = env.ids.next_flow_id();
      fs.app_id = i;
      fs.vf_port = static_cast<std::uint16_t>(i);
      fs.wire_bytes = kFrameBytes;
      flows_.push_back(std::make_unique<traffic::CbrFlow>(
          env.sim, env.router, env.ids, fs, offered / 4.0, rng.split("cbr").split(i),
          /*jitter_frac=*/0.05, /*clump=*/16));
    }
    for (auto& f : flows_) f->start();
  }
  void run(sim::Simulator& sim) override { sim.run_until(horizon_); }
  void stop() override {
    for (auto& f : flows_) f->stop();
  }

 private:
  sim::SimTime horizon_;
  std::vector<std::unique_ptr<traffic::CbrFlow>> flows_;
};

/// exp::run_fig14_flowvalve's latency probe: 256 B UDP frames on their own
/// VF (and class), sent at `rate` with jittered gaps.
std::unique_ptr<host::LatencyProbe> make_probe(SceneEnv& env, std::uint16_t vf,
                                               sim::Rate rate, sim::Rng rng) {
  traffic::FlowSpec spec;  // exp::probe_spec
  spec.flow_id = env.ids.next_flow_id();
  spec.app_id = 5;
  spec.vf_port = vf;
  spec.wire_bytes = 256;
  spec.tuple.src_ip = 0x0a0000fe;
  spec.tuple.dst_ip = 0x0a000002;
  spec.tuple.src_port = 40000;
  spec.tuple.dst_port = 5999;
  spec.tuple.proto = net::IpProto::kUdp;
  return std::make_unique<host::LatencyProbe>(env.sim, env.router, env.ids, spec, rate, rng);
}

/// The probe class (weight 0.05, as in Fig. 14) and its filter.
std::string probe_class(std::uint16_t vf) {
  return "fv class add dev nic0 parent 1: classid 1:99 name probe weight 0.05\n"
         "fv filter add dev nic0 pref 5 vf " + std::to_string(vf) + " classid 1:99\n";
}

// churn_1m: scale_sweep's top cell, run long, plus a latency probe: the
// churn's own packets arrive in trains whose NIC sojourn is a staircase
// of structural constants, the same for every seed.
class ChurnSources final : public Sources {
 public:
  ChurnSources(SceneEnv& env, std::size_t live, const np::NpConfig& nic,
               sim::SimTime horizon, double* prime_s)
      : horizon_(horizon) {
    // Prime the EMC with the whole initial live population (the keys the
    // churn workload will service), as scale_sweep does.
    const auto t0 = Clock::now();
    core::Classifier& cls = env.engine.classifier();
    core::ExactMatchFlowCache& cache = cls.cache_for_fault();
    for (std::uint64_t serial = 0; serial < live; ++serial) {
      const net::FiveTuple t = traffic::ChurnWorkload::tuple_for(serial);
      const std::uint16_t vf = traffic::ChurnWorkload::vf_for(serial, kChurnVfs);
      cache.insert(vf, t, cls.rule_walk_label(vf, t), /*now_tick=*/0, cls.label_epoch());
    }
    *prime_s = seconds_since(t0);

    traffic::ChurnWorkloadConfig cfg;
    cfg.target_live_flows = live;
    cfg.flows_per_sec = static_cast<double>(live) * 10.0;
    cfg.min_packets = 16;
    cfg.max_packets = 512;
    cfg.aggregate_rate = nic.wire_rate * 0.9;
    cfg.wire_bytes = kFrameBytes;
    cfg.vf_count = kChurnVfs;
    churn_ = std::make_unique<traffic::ChurnWorkload>(
        env.sim, env.router, env.ids, cfg, sim::Rng(env.seed).split("churn"));
    churn_->start();
    probe_ = make_probe(env, kChurnVfs, sim::Rate::megabits_per_sec(40),
                        sim::Rng(env.seed).split("probe"));
    probe_->start();
  }
  void run(sim::Simulator& sim) override {
    sim.run_until(horizon_);
    at_horizon_ = probe_->latency();
  }
  void stop() override {
    churn_->stop();
    probe_->stop();
  }
  const stats::LatencyStats* probe_delays() const override { return &at_horizon_; }

  static constexpr unsigned kChurnVfs = 4;  // VF 4 carries the probe

 private:
  sim::SimTime horizon_;
  std::unique_ptr<traffic::ChurnWorkload> churn_;
  std::unique_ptr<host::LatencyProbe> probe_;
  stats::LatencyStats at_horizon_;
};

// tcp_probe_40g: exp::run_fig14_flowvalve(40G) rebuilt from its parts.
constexpr sim::SimTime kFig14Warmup = sim::milliseconds(400);
constexpr sim::SimTime kFig14Horizon = sim::milliseconds(1400);

class TcpProbeSources final : public Sources {
 public:
  explicit TcpProbeSources(SceneEnv& env) {
    const sim::Rate link = sim::Rate::gigabits_per_sec(40);
    sim::Rng rng(env.seed);
    for (unsigned i = 0; i < 4; ++i) {  // exp::make_delay_load
      traffic::AppConfig cfg;
      cfg.name = "app" + std::to_string(i);
      cfg.app_id = i;
      cfg.vf_port = static_cast<std::uint16_t>(i);
      cfg.num_connections = 2;
      cfg.wire_bytes = kFrameBytes;
      cfg.tcp.start_rate = link * 0.02;  // exp::greedy_tcp
      cfg.tcp.min_rate = sim::Rate::megabits_per_sec(20);
      cfg.tcp.max_rate = link * 1.4;
      cfg.tcp.rtt = sim::milliseconds(2);
      cfg.tcp.additive_increase = link * 0.02;
      cfg.tcp.md_factor = 0.9;
      cfg.src_port_base = static_cast<std::uint16_t>(21000 + 100 * i);
      apps_.push_back(std::make_unique<traffic::AppProcess>(env.sim, env.router, env.ids,
                                                            cfg, rng.split(cfg.name)));
      apps_.back()->start();
    }
    probe_ = make_probe(env, 5, sim::Rate::megabits_per_sec(4), rng.split("probe"));
  }
  void run(sim::Simulator& sim) override {
    sim.run_until(kFig14Warmup);
    probe_->start();
    sim.run_until(kFig14Horizon);
    at_horizon_ = probe_->latency();  // Fig. 14 reads the probe here
  }
  void stop() override {
    for (auto& a : apps_) a->stop();
    probe_->stop();
  }
  const stats::LatencyStats* probe_delays() const override { return &at_horizon_; }

 private:
  std::vector<std::unique_ptr<traffic::AppProcess>> apps_;
  std::unique_ptr<host::LatencyProbe> probe_;
  stats::LatencyStats at_horizon_;
};

std::vector<Scene> pipeline_scenes() {
  std::vector<Scene> scenes;
  {
    Scene s;
    s.name = "burst_saturated";
    s.nic = np::agilio_cx_40g();
    s.nic.num_workers = 8;
    s.nic.batch_size = 32;
    s.policy = flat_policy(s.nic.wire_rate);
    s.horizon = sim::milliseconds(100);
    s.steady_from = sim::milliseconds(10);
    s.hub_window = sim::microseconds(50);
    s.share_vfs = {0, 1, 2, 3};
    const sim::Rate offered = s.nic.wire_rate * 1.3;
    const sim::SimTime horizon = s.horizon;
    s.build = [offered, horizon](SceneEnv& env, double*) {
      return std::make_unique<BurstSources>(env, offered, horizon);
    };
    scenes.push_back(std::move(s));
  }
  {
    Scene s;
    s.name = "churn_1m";
    s.nic = np::agilio_cx_40g();
    s.nic.num_vfs = ChurnSources::kChurnVfs + 1;
    s.nic.emc_capacity = std::size_t{1} << 21;
    s.nic.emc_idle_timeout = sim::milliseconds(250);
    s.policy = flat_policy(s.nic.wire_rate) + probe_class(ChurnSources::kChurnVfs);
    s.horizon = sim::milliseconds(100);
    s.steady_from = sim::milliseconds(10);  // the EMC is primed: no fill phase
    s.hub_window = sim::microseconds(500);
    s.share_vfs = {0, 1, 2, 3};
    s.sojourn_delays = false;
    const np::NpConfig nic = s.nic;
    const sim::SimTime horizon = s.horizon;
    s.build = [nic, horizon](SceneEnv& env, double* prime_s) {
      return std::make_unique<ChurnSources>(env, std::size_t{1} << 20, nic, horizon,
                                            prime_s);
    };
    scenes.push_back(std::move(s));
  }
  {
    Scene s;
    s.name = "tcp_probe_40g";
    s.nic = np::agilio_cx_40g();
    s.nic.num_vfs = 8;
    s.policy = exp::fair_queueing_script(s.nic.wire_rate, 4) + probe_class(5);
    s.horizon = kFig14Horizon;
    s.steady_from = kFig14Warmup;
    s.hub_window = sim::milliseconds(2);
    s.share_vfs = {0, 1, 2, 3};
    s.sojourn_delays = false;
    s.build = [](SceneEnv& env, double*) { return std::make_unique<TcpProbeSources>(env); };
    scenes.push_back(std::move(s));
  }
  return scenes;
}

/// Everything one repetition of a pipeline scene yields.
struct Rep {
  double setup_s = 0.0;
  double prime_s = 0.0;
  double run_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;  // unaccounted + out of order
  std::uint64_t events = 0;
  double delivered_mpps = 0.0;
  double delay_p50_us = 0.0;
  double delay_p99_us = 0.0;
  double share_error = 0.0;
  std::string fingerprint;       // virtual-time counters + histograms
  std::vector<std::string> problems;
  // Traced repetitions only.
  bool traced = false;
  double ticks_per_s = 0.0;
  std::array<Tracer::Totals, kNumLayers> layers{};
  double root_ticks = 0.0;
  std::uint64_t core_packets = 0;
  obs::CounterSnapshot snap;
  double vf_wait_p99_us = 0.0;
  double reorder_hold_p99_us = 0.0;
  double tx_wait_p99_us = 0.0;
  std::string chrome_json;
};

Rep run_scene(const Scene& scene, std::uint64_t seed, bool traced,
              const np::InjectedFaults& inject) {
  Rep r;
  std::optional<Tracer> tracer;
  if (traced) tracer.emplace(/*time_every=*/32, /*keep_every=*/1024, /*max_spans=*/200000);
  Tracer* tr = tracer ? &*tracer : nullptr;

  const auto setup_start = Clock::now();
  sim::Simulator sim;
  core::FlowValveEngine engine(np::engine_options_for(scene.nic));
  if (std::string err = engine.configure(scene.policy); !err.empty())
    throw std::runtime_error(scene.name + ": policy rejected: " + err);
  np::FlowValveProcessor fv(engine);
  std::optional<TimedProcessor> timed_proc;
  if (tr) timed_proc.emplace(fv, *tr);
  np::NicPipeline pipeline(sim, scene.nic,
                           timed_proc ? static_cast<np::PacketProcessor&>(*timed_proc) : fv);
  pipeline.set_injected_faults(inject);
  DeliveryCheck check(scene.sojourn_delays);
  check.set_window(scene.steady_from, scene.horizon);
  CheckedDevice device(pipeline, check, tr);
  traffic::FlowRouter router(device);
  traffic::IdAllocator ids;
  obs::MetricsHub hub(sim, pipeline, {.window = scene.hub_window});
  hub.attach_engine(engine);
  hub.start();
  std::optional<TimedObserver> timed_obs;
  if (tr) {
    timed_obs.emplace(hub, *tr);
    pipeline.set_observer(&*timed_obs);  // after hub.start() claimed the slot
  }
  SceneEnv env{sim, router, ids, engine, seed};
  std::unique_ptr<Sources> sources = scene.build(env, &r.prime_s);
  r.setup_s = seconds_since(setup_start);

  const std::uint64_t tick0 = ticks();
  const auto run_start = Clock::now();
  sources->run(sim);
  sources->stop();
  hub.stop_sampling();
  sim.run_all();
  r.run_s = seconds_since(run_start);
  const std::uint64_t tick1 = ticks();

  // Correctness: conservation and order at quiescence, cross-checked
  // against the pipeline's and the hub's own books.
  const np::NicPipeline::Stats& nic = pipeline.stats();
  r.submitted = check.submitted();
  r.failed = check.unaccounted() + check.out_of_order();
  r.events = sim.events_executed();
  if (nic.submitted != check.submitted())
    r.problems.push_back("pipeline counted " + std::to_string(nic.submitted) +
                         " submits, the device " + std::to_string(check.submitted()));
  if (pipeline.in_flight() != 0 || !sim.empty())
    r.problems.push_back("not quiescent after run_all");
  const obs::LogHistogram& total = hub.latency().segment(obs::Segment::kTotal);
  if (total.count() != check.delivered())
    r.problems.push_back("hub recorded " + std::to_string(total.count()) +
                         " deliveries, the device " + std::to_string(check.delivered()));

  // Paper-facing virtual-time results.
  const double window_s = static_cast<double>(scene.horizon - scene.steady_from) * 1e-9;
  r.delivered_mpps = static_cast<double>(check.delivered_in_window()) / window_s / 1e6;
  const stats::LatencyStats* delays = sources->probe_delays();
  if (scene.sojourn_delays) {
    delays = &check.sojourn();
    // The exact sojourn median must sit in the hub histogram's bucket.
    const double exact = check.sojourn().percentile_us(50);
    const double bucketed = static_cast<double>(total.p50()) / 1e3;
    if (std::abs(exact - bucketed) > 0.07 * exact + 0.01)
      r.problems.push_back("exact sojourn p50 " + std::to_string(exact) +
                           " us disagrees with the hub's " + std::to_string(bucketed));
  }
  r.delay_p50_us = delays->percentile_us(50);
  r.delay_p99_us = delays->percentile_us(99);
  // Share conformance: per steady throughput window, the largest
  // |measured share - policy share| over the equal-weight classes; the
  // mean over windows (the median is 0 when most windows split evenly).
  std::vector<double> window_errors;
  const double policy = 1.0 / static_cast<double>(scene.share_vfs.size());
  for (const auto& w : hub.throughput().windows()) {
    if (w.start < scene.steady_from || w.end > scene.horizon) continue;
    std::vector<double> bytes;
    double all = 0.0;
    for (std::uint16_t vf : scene.share_vfs) {
      const auto it = w.classes.find(vf);
      bytes.push_back(it == w.classes.end() ? 0.0 : static_cast<double>(it->second.tx_bytes));
      all += bytes.back();
    }
    if (all <= 0.0) continue;
    double worst = 0.0;
    for (double b : bytes) worst = std::max(worst, std::abs(b / all - policy));
    window_errors.push_back(worst);
  }
  double sum = 0.0;
  for (double e : window_errors) sum += e;
  r.share_error = window_errors.empty() ? 0.0 : sum / static_cast<double>(window_errors.size());

  r.fingerprint = obs::metrics_to_json(hub) + "|" + std::to_string(check.delivered()) +
                  "|" + std::to_string(check.dropped()) + "|" +
                  std::to_string(check.out_of_order()) + "|" + std::to_string(r.events);

  if (tr) {
    r.traced = true;
    r.ticks_per_s = static_cast<double>(tick1 - tick0) / r.run_s;
    for (std::size_t l = 0; l < kNumLayers; ++l)
      r.layers[l] = tr->layer_totals(static_cast<Layer>(l));
    r.root_ticks = tr->root_ticks();
    r.core_packets = timed_proc->packets();
    r.snap = hub.snapshot();
    const auto p99_us = [&](obs::Segment s) {
      return static_cast<double>(hub.latency().segment(s).p99()) / 1e3;
    };
    r.vf_wait_p99_us = p99_us(obs::Segment::kVfWait);
    r.reorder_hold_p99_us = p99_us(obs::Segment::kReorderHold);
    r.tx_wait_p99_us = p99_us(obs::Segment::kTxWait);
    r.chrome_json = tr->chrome_json(tick0, r.ticks_per_s / 1e6);
  }
  return r;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inject;  // "", "leak" or "bypass"
  std::string trace_out;
};

/// Repeat `once` at least `min_reps` times, then while another repetition
/// of average length still fits in the time budget.
template <typename F>
void repeat_for(double budget_s, std::size_t min_reps, F&& once) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  while (n < min_reps ||
         seconds_since(t0) * static_cast<double>(n + 1) / static_cast<double>(n) <= budget_s)
    once(n++);
}

void bench_pipeline(const Scene& scene, const Options& opt, Output& out) {
  np::InjectedFaults inject;
  if (opt.inject == "leak") inject.leak_commit_every = 97;
  if (opt.inject == "bypass") inject.bypass_reorder_every = 97;

  // Only the first repetition keeps its fingerprint and Chrome trace, so
  // memory does not grow with the number of repetitions.
  std::vector<Rep> reps;
  std::string chrome;  // the first traced repetition's spans
  repeat_for(opt.seconds, opt.trace ? 4 : 3, [&](std::size_t i) {
    reps.push_back(run_scene(scene, opt.seed, opt.trace && i % 2 == 1, inject));
    Rep& r = reps.back();
    std::cerr << "rep " << i << (r.traced ? " traced" : "") << ": setup " << r.setup_s
              << " s, run " << r.run_s << " s, "
              << static_cast<double>(r.submitted) / r.run_s << " pkts/s\n";
    out.attempted += r.submitted;
    out.failed += r.failed;
    for (const std::string& p : r.problems) out.fail(p);
    if (i > 0) {
      if (r.fingerprint != reps.front().fingerprint)
        out.fail("repetition " + std::to_string(i) + (r.traced ? " (traced)" : "") +
                 ": virtual-time fingerprint " + std::to_string(fnv1a(r.fingerprint)) +
                 " differs from the first's " + std::to_string(fnv1a(reps.front().fingerprint)));
      r.fingerprint.clear();
      r.fingerprint.shrink_to_fit();
    }
    if (r.traced && chrome.empty()) chrome = std::move(r.chrome_json);
    r.chrome_json.clear();
    r.chrome_json.shrink_to_fit();
  });
  if (!opt.trace_out.empty() && !chrome.empty()) obs::write_json_file(opt.trace_out, chrome);
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " packets lost or reordered");
  const Rep& first = reps.front();

  std::vector<double> untraced_run, untraced_setup, untraced_total;
  std::vector<double> traced_run;
  std::vector<const Rep*> traced;
  for (const Rep& r : reps) {
    if (r.traced) {
      traced_run.push_back(r.run_s);
      traced.push_back(&r);
      continue;
    }
    untraced_run.push_back(r.run_s);
    untraced_setup.push_back(r.setup_s);
    untraced_total.push_back(r.setup_s + r.run_s);
  }

  if (!opt.trace) {
    out.metric("pkts_per_s", static_cast<double>(first.submitted) / fastest(untraced_run), "1/s");
    out.metric("scenarios_per_s", 1.0 / fastest(untraced_total), "1/s");
    out.metric("setup_s", fastest(untraced_setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("delivered_mpps", first.delivered_mpps, "Mpps");
    out.metric("delay_p50_us", first.delay_p50_us, "us");
    out.metric("delay_p99_us", first.delay_p99_us, "us");
    out.metric("share_error", first.share_error, "fraction");
    return;
  }

  // Per-layer split of the fastest traced repetition.
  const Rep& t = *traced[fastest_index(traced_run)];
  const auto secs = [&](double ticks) { return ticks / t.ticks_per_s; };
  const auto layer = [&](Layer l) { return t.layers[static_cast<std::size_t>(l)]; };
  const double submitted = static_cast<double>(t.submitted);
  const Tracer::Totals core = layer(Layer::kCore);
  const Tracer::Totals obs = layer(Layer::kObs);
  const core::SchedulerBackend::Stats& sched = t.snap.sched;
  std::vector<double> prime;
  for (const Rep& r : reps) prime.push_back(r.prime_s);

  out.metric("sim.events", static_cast<double>(t.events), "count");
  out.metric("sim.events_per_pkt", static_cast<double>(t.events) / submitted, "count");
  out.metric("sim.residual_self_s", t.run_s - secs(t.root_ticks), "s");
  out.metric("traffic.feedback_calls", static_cast<double>(layer(Layer::kTraffic).calls), "count");
  out.metric("traffic.feedback_self_s", secs(layer(Layer::kTraffic).self_ticks), "s");
  out.metric("np.submit_calls", static_cast<double>(layer(Layer::kNp).calls), "count");
  out.metric("np.submit_self_s", secs(layer(Layer::kNp).self_ticks), "s");
  out.metric("np.burst_fill",
             core.calls ? static_cast<double>(t.core_packets) / static_cast<double>(core.calls) : 0.0,
             "pkts");
  out.metric("np.worker_util", t.snap.worker_utilization, "fraction");
  out.metric("np.vf_drops", static_cast<double>(t.snap.nic.vf_ring_drops), "count");
  out.metric("np.sched_drops", static_cast<double>(t.snap.nic.scheduler_drops), "count");
  out.metric("np.tx_drops", static_cast<double>(t.snap.nic.tx_ring_drops), "count");
  out.metric("np.reorder_peak", static_cast<double>(t.snap.nic.reorder_occupancy_peak), "count");
  out.metric("np.vf_wait_p99_us", t.vf_wait_p99_us, "us");
  out.metric("np.reorder_hold_p99_us", t.reorder_hold_p99_us, "us");
  out.metric("np.tx_wait_p99_us", t.tx_wait_p99_us, "us");
  out.metric("core.batch_calls", static_cast<double>(core.calls), "count");
  out.metric("core.self_s", secs(core.self_ticks), "s");
  out.metric("core.ns_per_pkt",
             t.core_packets ? secs(core.self_ticks) * 1e9 / static_cast<double>(t.core_packets) : 0.0,
             "ns");
  out.metric("core.emc_hit_rate", t.snap.emc.hit_rate(), "fraction");
  out.metric("core.emc_kicks", static_cast<double>(t.snap.emc.kicks), "count");
  out.metric("core.emc_prime_s", fastest(prime), "s");
  const double lock_attempts = static_cast<double>(sched.updates + sched.lock_failures);
  out.metric("core.lock_fail_frac",
             lock_attempts > 0 ? static_cast<double>(sched.lock_failures) / lock_attempts : 0.0,
             "fraction");
  out.metric("core.borrowed", static_cast<double>(sched.borrowed), "count");
  out.metric("obs.calls", static_cast<double>(obs.calls), "count");
  out.metric("obs.self_s", secs(obs.self_ticks), "s");
  out.metric("obs.ns_per_call",
             obs.calls ? secs(obs.self_ticks) * 1e9 / static_cast<double>(obs.calls) : 0.0, "ns");
  for (const char* name : {"check.scenario_ms_p50", "check.scenario_ms_p90",
                           "check.events_per_scenario", "check.violations",
                           "fault.injected", "fault.recovered", "ctrl.reconfigs_committed"})
    out.metric(name, 0.0, std::string(name).find("_ms_") != std::string::npos ? "ms" : "count");
  out.metric("trace_overhead", fastest(traced_run) / fastest(untraced_run) - 1.0, "fraction");
}

// ------------------------------------------------------------ fuzz_chaos --

/// The corpus: fuzz seeds 1..216, the same for every benchmark seed, plus
/// 40 seeds drawn from the benchmark seed. Scenario cost varies a lot (CV
/// ~0.6) and fault-recovery times are coarse, so a wholly seed-drawn corpus
/// of this size moves the corpus cost by ~5% and the median recovery time
/// by ~11% from one benchmark seed to the next; the fixed core keeps both
/// near 2% and 6%, and 40 drawn seeds still move the p99 recovery time.
constexpr std::uint64_t kFuzzFixedSeeds = 216;
constexpr std::uint64_t kFuzzDrawnSeeds = 40;
/// The differential side corpus behind share_error: fixed fuzz seeds 1..4.
/// Their share error is packet-quantization noise (~1e-5), so a seed-drawn
/// set would scatter by tens of percent between benchmark seeds.
constexpr std::uint64_t kShareSeeds = 4;

check::RunOptions chaos_options() {
  check::RunOptions o;
  o.chaos = true;
  o.reconfig_updates = 3;
  return o;
}

/// Fuzz seeds kFuzzFixedSeeds + 1 ..= kFuzzSeedPool all pass every checker
/// under chaos_options(); the drawn seeds come from there, so no benchmark
/// seed lands on a scenario that fails.
constexpr std::uint64_t kFuzzSeedPool = 3072;

/// Ascending fuzz seeds: 1..`fixed`, then `drawn` consecutive seeds of the
/// pool (cyclically) starting at offset `seed` * kFuzzDrawnSeeds.
std::vector<std::uint64_t> fuzz_corpus(std::uint64_t seed, std::uint64_t fixed,
                                       std::uint64_t drawn) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= fixed; ++i) seeds.push_back(i);
  const std::uint64_t pool = kFuzzSeedPool - kFuzzFixedSeeds;
  for (std::uint64_t i = 0; i < drawn; ++i)
    seeds.push_back(kFuzzFixedSeeds + 1 + (seed % pool * kFuzzDrawnSeeds + i) % pool);
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}


void bench_fuzz(const Options& opt, Output& out) {
  check::RunOptions opts = chaos_options();
  if (!opt.inject.empty()) {
    fault::FaultEvent ev;  // permanent from t = 0, as fuzz_check --inject-fault
    ev.kind = opt.inject == "leak" ? fault::FaultKind::kLeakCommit
                                   : fault::FaultKind::kBypassReorder;
    opts.faults.push_back(ev);
  }
  const std::vector<std::uint64_t> seeds =
      fuzz_corpus(opt.seed, kFuzzFixedSeeds, kFuzzDrawnSeeds);

  // Set-up: expanding every seed into its scenario and fault schedule,
  // timed three times on every CPU, before the passes and after them.
  std::vector<double> setup;
  double horizon_s = 0.0;
  const auto expand = [&] {
    on_each_cpu([&] {
      for (int k = 0; k < 3; ++k) {
        const auto t0 = Clock::now();
        double h = 0.0;
        for (std::uint64_t s : seeds)
          h += static_cast<double>(check::resolve_seed(s, opts).sc.horizon) * 1e-9;
        setup.push_back(seconds_since(t0));
        horizon_s = h;
      }
    });
  };
  expand();

  // Every pass runs the whole corpus through check::run_corpus_with at
  // jobs = 1, timing each scenario; traced passes also wrap each one in a
  // check.scenario span.
  struct Pass {
    bool traced = false;
    double wall_s = 0.0;
    std::vector<check::SeedOutcome> outcomes;
    std::vector<double> scenario_s;  // by corpus position
    double root_ticks = 0.0;
    double ticks_per_s = 0.0;
    std::string chrome_json;
  };
  std::vector<Pass> passes;
  // At least two untraced passes, so every scenario's time is a best of two.
  repeat_for(opt.seconds, opt.trace ? 3 : 2, [&](std::size_t i) {
    Pass p;
    p.traced = opt.trace && i % 2 == 1;
    p.scenario_s.resize(seeds.size());
    std::optional<Tracer> tracer;
    if (p.traced) tracer.emplace(/*time_every=*/1, /*keep_every=*/1, /*max_spans=*/100000);
    Tracer* tr = tracer ? &*tracer : nullptr;
    const std::uint64_t tick0 = ticks();
    const auto t0 = Clock::now();
    p.outcomes = check::run_corpus_with(
        seeds,
        [&](std::uint64_t s) {
          const auto pos = std::lower_bound(seeds.begin(), seeds.end(), s) - seeds.begin();
          Span span(tr, SpanKind::kScenario, s);
          const auto st = Clock::now();
          check::CheckReport rep = check::run_seed(s, opts);
          p.scenario_s[static_cast<std::size_t>(pos)] = seconds_since(st);
          return rep;
        },
        /*jobs=*/1);
    p.wall_s = seconds_since(t0);
    const std::uint64_t tick1 = ticks();
    std::cerr << "pass " << i << (p.traced ? " traced" : "") << ": " << p.wall_s << " s, "
              << static_cast<double>(seeds.size()) / p.wall_s << " scenarios/s\n";
    if (tr) {
      p.root_ticks = tr->root_ticks();
      p.ticks_per_s = static_cast<double>(tick1 - tick0) / p.wall_s;
      p.chrome_json = tr->chrome_json(tick0, p.ticks_per_s / 1e6);
    }
    passes.push_back(std::move(p));
  });
  expand();

  // Correctness: every seed clean, every pass bit-identical to the first.
  const Pass& first = passes.front();
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
      const check::SeedOutcome& o = p.outcomes[i];
      ++out.attempted;
      if (!o.ok()) {
        ++out.failed;
        if (&p == &first)
          out.problems.push_back("seed " + std::to_string(o.seed) + ": " +
                                 (o.crashed ? "crashed: " + o.crash_what
                                            : o.report.summary()));
      }
      if (!o.crashed && !first.outcomes[i].crashed &&
          check::report_fingerprint(o.report) !=
              check::report_fingerprint(first.outcomes[i].report))
        out.fail("seed " + std::to_string(o.seed) + " is not deterministic across passes");
    }
  }

  // Fig. 11 conformance on the fuzzer's weighted-fair (differential) family.
  check::RunOptions diff_opts;
  diff_opts.differential = true;
  double sq = 0.0;
  std::size_t samples = 0;
  for (std::uint64_t s : fuzz_corpus(0, kShareSeeds, 0)) {
    const check::CheckReport rep = check::run_seed(s, diff_opts);
    ++out.attempted;
    if (!rep.ok()) {
      ++out.failed;
      out.problems.push_back("differential seed " + std::to_string(s) + ": " + rep.summary());
    }
    for (std::size_t i = 0; i < rep.fv_shares.size(); ++i) {
      const double d = rep.fv_shares[i] - rep.expected_shares[i];
      sq += d * d;
      ++samples;
    }
  }
  const double share_error = samples ? std::sqrt(sq / static_cast<double>(samples)) : 0.0;
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " fuzz seeds failed");

  // Host time of the corpus: each scenario's fastest untraced run, summed
  // (passes are seconds apart, so contention rarely hits both).
  std::vector<double> best(seeds.size(), 0.0);
  std::vector<double> untraced_wall, traced_wall;
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) {
    if (p.traced) {
      traced_wall.push_back(p.wall_s);
      traced.push_back(&p);
      continue;
    }
    untraced_wall.push_back(p.wall_s);
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = untraced_wall.size() == 1 ? p.scenario_s[i] : std::min(best[i], p.scenario_s[i]);
  }
  double corpus_s = 0.0;
  for (double b : best) corpus_s += b;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0, events = 0, violations = 0, injected = 0, recovered = 0,
                committed = 0, reorder_peak = 0;
  np::NicPipeline::Stats nic;
  std::vector<double> recovery_us;
  for (const check::SeedOutcome& o : first.outcomes) {
    const check::CheckReport& r = o.report;
    submitted += r.nic.submitted;
    delivered += r.delivered;
    events += r.events;
    violations += r.violation_total;
    injected += r.faults_injected;
    recovered += r.faults_recovered;
    committed += r.reconfigs_committed;
    nic.vf_ring_drops += r.nic.vf_ring_drops;
    nic.scheduler_drops += r.nic.scheduler_drops;
    nic.tx_ring_drops += r.nic.tx_ring_drops;
    reorder_peak = std::max(reorder_peak, r.nic.reorder_occupancy_peak);
    if (r.faults_recovered > 0) recovery_us.push_back(static_cast<double>(r.worst_recovery) / 1e3);
  }

  if (!opt.trace) {
    out.metric("pkts_per_s", static_cast<double>(submitted) / corpus_s, "1/s");
    out.metric("scenarios_per_s", static_cast<double>(seeds.size()) / corpus_s, "1/s");
    out.metric("setup_s", fastest(setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("delivered_mpps", static_cast<double>(delivered) / horizon_s / 1e6, "Mpps");
    out.metric("delay_p50_us", percentile(recovery_us, 50), "us");
    out.metric("delay_p99_us", percentile(recovery_us, 99), "us");
    out.metric("share_error", share_error, "fraction");
    return;
  }

  const Pass& t = *traced[fastest_index(traced_wall)];
  const double n = static_cast<double>(t.outcomes.size());
  const auto zero = [&](const char* name, const char* unit) { out.metric(name, 0.0, unit); };
  out.metric("sim.events", static_cast<double>(events), "count");
  out.metric("sim.events_per_pkt", static_cast<double>(events) / static_cast<double>(submitted), "count");
  out.metric("sim.residual_self_s", t.wall_s - t.root_ticks / t.ticks_per_s, "s");
  zero("traffic.feedback_calls", "count");
  zero("traffic.feedback_self_s", "s");
  out.metric("np.submit_calls", static_cast<double>(submitted), "count");
  zero("np.submit_self_s", "s");
  zero("np.burst_fill", "pkts");
  zero("np.worker_util", "fraction");
  out.metric("np.vf_drops", static_cast<double>(nic.vf_ring_drops), "count");
  out.metric("np.sched_drops", static_cast<double>(nic.scheduler_drops), "count");
  out.metric("np.tx_drops", static_cast<double>(nic.tx_ring_drops), "count");
  out.metric("np.reorder_peak", static_cast<double>(reorder_peak), "count");
  zero("np.vf_wait_p99_us", "us");
  zero("np.reorder_hold_p99_us", "us");
  zero("np.tx_wait_p99_us", "us");
  zero("core.batch_calls", "count");
  zero("core.self_s", "s");
  zero("core.ns_per_pkt", "ns");
  zero("core.emc_hit_rate", "fraction");
  zero("core.emc_kicks", "count");
  zero("core.emc_prime_s", "s");
  zero("core.lock_fail_frac", "fraction");
  zero("core.borrowed", "count");
  zero("obs.calls", "count");
  zero("obs.self_s", "s");
  zero("obs.ns_per_call", "ns");
  std::vector<double> scenario_ms;
  for (double b : best) scenario_ms.push_back(b * 1e3);
  out.metric("check.scenario_ms_p50", percentile(scenario_ms, 50), "ms");
  out.metric("check.scenario_ms_p90", percentile(scenario_ms, 90), "ms");
  out.metric("check.events_per_scenario", static_cast<double>(events) / n, "count");
  out.metric("check.violations", static_cast<double>(violations), "count");
  out.metric("fault.injected", static_cast<double>(injected), "count");
  out.metric("fault.recovered", static_cast<double>(recovered), "count");
  out.metric("ctrl.reconfigs_committed", static_cast<double>(committed), "count");
  out.metric("trace_overhead", fastest(traced_wall) / fastest(untraced_wall) - 1.0, "fraction");

  if (!opt.trace_out.empty()) obs::write_json_file(opt.trace_out, t.chrome_json);
}

int usage() {
  std::cerr << "usage: fv_perfbench --workload burst_saturated|churn_1m|tcp_probe_40g|"
               "fuzz_chaos --seed N --seconds S --trace 0|1 [--inject leak|bypass] "
               "[--trace-out PATH]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef __GLIBC__
  // Fixed allocator policy: keep freed memory in the process and serve
  // blocks up to 32 MiB from the heap. With glibc's adaptive defaults,
  // whether a repetition's set-up re-faults fresh pages depends on what the
  // benchmark's own bookkeeping last freed (a 3x swing in setup_s).
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 0);
    else if (a == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--inject") opt.inject = v;
    else if (a == "--trace-out") opt.trace_out = v;
    else return usage();
  }
  if (!opt.inject.empty() && opt.inject != "leak" && opt.inject != "bypass") return usage();

  std::cout << "{\"build_type\": \"" FV_BUILD_TYPE "\", \"compiler\": \"" FV_CXX_COMPILER
               "\", \"flags\": \"" FV_CXX_FLAGS "\", \"ndebug\": "
#ifdef NDEBUG
            << "true"
#else
            << "false"
#endif
            << "}\n";

  Output out;
  try {
    if (opt.workload == "fuzz_chaos") {
      bench_fuzz(opt, out);
    } else {
      const std::vector<Scene> scenes = pipeline_scenes();
      const auto it = std::find_if(scenes.begin(), scenes.end(),
                                   [&](const Scene& s) { return s.name == opt.workload; });
      if (it == scenes.end()) return usage();
      bench_pipeline(*it, opt, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "fv_perfbench: " << e.what() << "\n";
    return 1;
  }
  for (std::size_t i = 0; i < out.problems.size() && i < 20; ++i)
    std::cerr << "check: " << out.problems[i] << "\n";
  if (out.problems.size() > 20)
    std::cerr << "check: ... " << out.problems.size() - 20 << " more\n";
  std::cout << out.json() << std::endl;
  return 0;
}
