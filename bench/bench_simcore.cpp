// Simulation-core wall-clock bench: measures events/sec and simulated
// packets/sec of the event kernel on two scenarios, on both scheduler
// backends, and writes BENCH_simcore.json — the committed regression
// baseline for the hot-path overhaul (event pool + timing wheel + ring
// buffers). CI's perf-smoke job reruns it with --check against the
// committed artifact and fails on a >20% events/sec regression.
//
// Scenarios:
//   kernel_storm    — 256 self-rearming timers with pointer-sized closures;
//                     isolates the scheduler kernel (no pipeline).
//   bench_pipeline  — the flat-policy NP pipeline point from bench_pipeline
//                     (50 workers, load 0.8, four CBR flows, 40 ms horizon);
//                     the kernel plus the full per-packet domain logic.
//
// Each (scenario, scheduler) cell runs one discarded warmup plus --reps
// timed repetitions and reports the BEST events/sec (the least-interference
// estimate on a noisy host) alongside the median. The pre-change heap
// baseline constants below were measured on the same host from a worktree
// of the pre-overhaul tree (std::function + shared_ptr<bool> kernel,
// std::map reorder window, std::deque rings) with identical scenario code,
// the same CMake Release build, and best-of-3x3 interleaved rounds.
//
// Usage: bench_simcore [--out PATH] [--quick] [--reps N]
//                      [--check BASELINE.json [--tolerance F]]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/flowvalve.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "traffic/generators.h"

namespace {

using namespace flowvalve;

// Pre-change heap kernel, best-of-4 interleaved with the post-change build
// (see file header). Conservative: the BEST observed baseline rep is used,
// so the recorded speedup is a floor, not an average.
constexpr double kPrechangeStormEps = 1.069e7;
constexpr double kPrechangePipelineEps = 5.574e6;
constexpr double kTargetSpeedup = 3.0;

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  double best_eps = 0.0;    // events per second, best rep
  double median_eps = 0.0;  // events per second, median rep
  double best_pps = 0.0;    // delivered packets per second, best rep
};

// ---------------------------------------------------------------- storm ----

// Self-rearming timer whose closure captures a single pointer: the smallest
// realistic event, so the measurement is the kernel and nothing else.
struct StormTimer {
  sim::Simulator* sim;
  std::uint64_t* lcg;
  std::uint64_t limit;
  void fire() {
    if (sim->events_executed() < limit) {
      *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim->schedule_after(
          1 + static_cast<sim::SimDuration>((*lcg >> 33) % 1000),
          [this] { fire(); });
    }
  }
};

double storm_once(sim::SchedulerKind kind, std::uint64_t limit,
                  std::uint64_t* events_out) {
  sim::Simulator sim(kind);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  std::vector<StormTimer> timers(256);
  for (auto& t : timers) t = StormTimer{&sim, &lcg, limit};
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& t : timers) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    sim.schedule_after(1 + static_cast<sim::SimDuration>((lcg >> 33) % 1000),
                       [&t] { t.fire(); });
  }
  sim.run_all();
  const double ms = wall_ms(t0);
  *events_out = sim.events_executed();
  return static_cast<double>(sim.events_executed()) / (ms / 1e3);
}

// ------------------------------------------------------------- pipeline ----

std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps()
    << "gbit\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < 4; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

double pipeline_once(sim::SchedulerKind kind, sim::SimTime horizon,
                     std::uint64_t* events_out, std::uint64_t* packets_out,
                     double* pps_out) {
  np::NpConfig cfg = np::agilio_cx_40g();
  cfg.num_workers = 50;
  // This bench measures EVENT KERNEL throughput, so it pins one-packet
  // bursts: every packet still costs a worker-completion event and a drain
  // event (~3 events/packet with traffic generation), while full bursts
  // collapse events ~20x and would turn this into a (much lighter)
  // pipeline bench.
  cfg.batch_size = 1;
  sim::Simulator sim(kind);
  core::FlowValveEngine engine(np::engine_options_for(cfg));
  if (std::string err = engine.configure(flat_policy(cfg.wire_rate));
      !err.empty()) {
    std::cerr << "policy configure failed: " << err << "\n";
    std::exit(1);
  }
  np::FlowValveProcessor processor(engine);
  np::NicPipeline pipeline(sim, cfg, processor);
  traffic::FlowRouter router(pipeline);
  traffic::IdAllocator ids;
  const sim::Rate offered = cfg.wire_rate * 0.8;
  const sim::Rng rng(0xb13cu ^ 50u);
  std::vector<std::unique_ptr<traffic::CbrFlow>> flows;
  for (unsigned i = 0; i < 4; ++i) {
    traffic::FlowSpec fs;
    fs.flow_id = ids.next_flow_id();
    fs.app_id = i;
    fs.vf_port = static_cast<std::uint16_t>(i);
    fs.wire_bytes = 1518;
    flows.push_back(std::make_unique<traffic::CbrFlow>(
        sim, router, ids, fs, offered / 4.0, rng.split("cbr").split(i), 0.05));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& f : flows) f->start();
  sim.run_until(horizon);
  for (auto& f : flows) f->stop();
  sim.run_all();
  const double ms = wall_ms(t0);
  *events_out = sim.events_executed();
  *packets_out = pipeline.stats().forwarded_to_wire;
  *pps_out = static_cast<double>(*packets_out) / (ms / 1e3);
  return static_cast<double>(sim.events_executed()) / (ms / 1e3);
}

// ------------------------------------------------------- reorder window ----

// Map-vs-ring micro comparison: replays the sliding-window access pattern
// (out-of-order commit within a worker-pool-sized window, then in-order
// release) against the pre-change std::map representation and the
// post-change power-of-two ring. Pure data-structure cost, no simulator.
struct MicroPkt {
  std::uint64_t seq;
  unsigned char payload[88];
};

double reorder_map_ops_per_sec(std::uint64_t ops) {
  std::map<std::uint64_t, std::optional<MicroPkt>> window;
  std::uint64_t next_release = 0, committed = 0, lcg = 12345;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (committed < ops) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t seq = committed + (lcg >> 33) % 8;  // jitter <= window
    if (window.find(seq) == window.end() && seq >= next_release)
      window[seq] = MicroPkt{seq, {}};
    ++committed;
    for (auto it = window.begin();
         it != window.end() && it->first == next_release;
         it = window.erase(it), ++next_release)
      if (it->second) sink += it->second->seq;
  }
  const double ms = wall_ms(t0);
  if (sink == 0xdeadbeef) std::cerr << "";  // defeat dead-code elimination
  return static_cast<double>(ops) / (ms / 1e3);
}

double reorder_ring_ops_per_sec(std::uint64_t ops) {
  struct Slot {
    enum class St : unsigned char { kEmpty, kPacket } st = St::kEmpty;
    MicroPkt pkt{};
  };
  std::vector<Slot> ring(64);
  const std::uint64_t mask = ring.size() - 1;
  std::uint64_t next_release = 0, committed = 0, lcg = 12345;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (committed < ops) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t seq = committed + (lcg >> 33) % 8;
    Slot& s = ring[seq & mask];
    if (s.st == Slot::St::kEmpty && seq >= next_release) {
      s.st = Slot::St::kPacket;
      s.pkt = MicroPkt{seq, {}};
    }
    ++committed;
    for (Slot* r = &ring[next_release & mask]; r->st == Slot::St::kPacket;
         r = &ring[next_release & mask]) {
      sink += r->pkt.seq;
      r->st = Slot::St::kEmpty;
      ++next_release;
    }
  }
  const double ms = wall_ms(t0);
  if (sink == 0xdeadbeef) std::cerr << "";
  return static_cast<double>(ops) / (ms / 1e3);
}

// ------------------------------------------------------------ harness ------

template <class RunFn>
RunResult repeat(unsigned reps, RunFn run) {
  RunResult r;
  std::vector<double> eps;
  run(&r);  // warmup, discarded
  for (unsigned i = 0; i < reps; ++i) {
    RunResult rep;
    eps.push_back(run(&rep));
    if (eps.back() >= r.best_eps) {
      r.best_eps = eps.back();
      r.best_pps = rep.best_pps;
    }
    r.events = rep.events;
    r.packets = rep.packets;
  }
  std::sort(eps.begin(), eps.end());
  r.median_eps = eps[eps.size() / 2];
  return r;
}

void emit_run(obs::JsonWriter& w, const char* scenario, const char* scheduler,
              const RunResult& r, unsigned reps) {
  w.begin_object()
      .key("scenario").value(scenario)
      .key("scheduler").value(scheduler)
      .key("reps").value(reps)
      .key("events").value(r.events)
      .key("packets").value(r.packets)
      .key("best_events_per_sec").value(r.best_eps)
      .key("median_events_per_sec").value(r.median_eps)
      .key("best_pkts_per_sec").value(r.best_pps)
      .end_object();
}

/// Extract `"key": <number>` from a JSON string (flat scan; enough for the
/// emitter's own compact output — there is no JSON parser in the repo).
bool extract_number(const std::string& json, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + pos + needle.size(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_simcore.json";
  std::string check_path;
  double tolerance = 0.20;
  bool quick = false;
  unsigned reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<unsigned>(std::atoi(argv[++i]));
    } else {
      std::cerr << "usage: bench_simcore [--out PATH] [--quick] [--reps N] "
                   "[--check BASELINE.json [--tolerance F]]\n";
      return 2;
    }
  }
  if (quick && reps == 5) reps = 3;
  reps = std::max(1u, reps);
  const std::uint64_t storm_limit = quick ? 500'000 : 2'000'000;
  const sim::SimTime horizon = sim::milliseconds(quick ? 10 : 40);
  const std::uint64_t micro_ops = quick ? 2'000'000 : 10'000'000;

  struct Cell {
    const char* scenario;
    sim::SchedulerKind kind;
    RunResult result;
  };
  std::vector<Cell> cells = {
      {"kernel_storm", sim::SchedulerKind::kHeap, {}},
      {"kernel_storm", sim::SchedulerKind::kWheel, {}},
      {"bench_pipeline", sim::SchedulerKind::kHeap, {}},
      {"bench_pipeline", sim::SchedulerKind::kWheel, {}},
  };
  for (Cell& c : cells) {
    if (std::strcmp(c.scenario, "kernel_storm") == 0) {
      c.result = repeat(reps, [&](RunResult* r) {
        return storm_once(c.kind, storm_limit, &r->events);
      });
    } else {
      c.result = repeat(reps, [&](RunResult* r) {
        return pipeline_once(c.kind, horizon, &r->events, &r->packets,
                             &r->best_pps);
      });
    }
    std::cout << c.scenario << " scheduler=" << scheduler_kind_name(c.kind)
              << " events=" << c.result.events
              << " best_eps=" << c.result.best_eps
              << " median_eps=" << c.result.median_eps << "\n";
  }
  // Same-binary sanity: the two backends must replay identical scenarios.
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    if (cells[i].result.events != cells[i + 1].result.events ||
        cells[i].result.packets != cells[i + 1].result.packets) {
      std::cerr << "determinism violation: heap and wheel disagree on "
                << cells[i].scenario << "\n";
      return 1;
    }
  }

  const double map_ops = reorder_map_ops_per_sec(micro_ops);
  const double ring_ops = reorder_ring_ops_per_sec(micro_ops);
  std::cout << "reorder_window map_ops_per_sec=" << map_ops
            << " ring_ops_per_sec=" << ring_ops << "\n";

  const RunResult& storm_wheel = cells[1].result;
  const RunResult& pipe_heap = cells[2].result;
  const RunResult& pipe_wheel = cells[3].result;
  const double storm_speedup = storm_wheel.best_eps / kPrechangeStormEps;
  const double pipe_speedup = pipe_wheel.best_eps / kPrechangePipelineEps;
  std::cout << "speedup_vs_prechange storm=" << storm_speedup
            << " bench_pipeline=" << pipe_speedup
            << " (target " << kTargetSpeedup << ")\n";

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    double gate = 0.0;
    if (!extract_number(ss.str(), "gate_events_per_sec", &gate)) {
      std::cerr << "baseline has no gate_events_per_sec\n";
      return 1;
    }
    const double floor = gate * (1.0 - tolerance);
    std::cout << "regression gate: measured " << pipe_wheel.best_eps
              << " events/sec vs committed " << gate << " (floor " << floor
              << ", tolerance " << tolerance << ")\n";
    if (pipe_wheel.best_eps < floor) {
      std::cerr << "FAIL: bench_pipeline events/sec regressed more than "
                << (tolerance * 100) << "% against the committed baseline\n";
      return 1;
    }
    std::cout << "gate OK\n";
    return 0;  // check mode does not rewrite the committed artifact
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("bench_simcore");
  w.key("quick").value(quick);
  w.key("reps").value(reps);
  w.key("storm_event_limit").value(storm_limit);
  w.key("pipeline_horizon_ns").value(static_cast<std::int64_t>(horizon));
  w.key("prechange_baseline").begin_object()
      .key("note")
      .value("heap kernel of the pre-overhaul tree (std::function + "
             "shared_ptr<bool> events, std::map reorder window, std::deque "
             "rings), identical scenario code and CMake Release build on "
             "the same host, best of 3x3 interleaved rounds")
      .key("kernel_storm_events_per_sec").value(kPrechangeStormEps)
      .key("bench_pipeline_events_per_sec").value(kPrechangePipelineEps)
      .end_object();
  w.key("runs").begin_array();
  for (const Cell& c : cells)
    emit_run(w, c.scenario, scheduler_kind_name(c.kind), c.result, reps);
  w.end_array();
  w.key("reorder_window").begin_object()
      .key("ops").value(micro_ops)
      .key("map_ops_per_sec").value(map_ops)
      .key("ring_ops_per_sec").value(ring_ops)
      .key("ring_vs_map_speedup").value(ring_ops / map_ops)
      .end_object();
  w.key("speedup").begin_object()
      .key("target_vs_prechange").value(kTargetSpeedup)
      .key("kernel_storm_wheel_vs_prechange").value(storm_speedup)
      .key("bench_pipeline_wheel_vs_prechange").value(pipe_speedup)
      .key("kernel_storm_wheel_vs_heap")
      .value(storm_wheel.best_eps / cells[0].result.best_eps)
      .key("bench_pipeline_wheel_vs_heap")
      .value(pipe_wheel.best_eps / pipe_heap.best_eps)
      .end_object();
  w.key("gate_events_per_sec").value(pipe_wheel.best_eps);
  w.end_object();

  if (!obs::write_json_file(out_path, w.str())) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
