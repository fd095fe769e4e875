// Recovery sweep: MTTR percentiles per fault kind × scheduler backend
// (BENCH_recovery.json). Every cell injects its fault family into a loaded
// NP pipeline over several seeds and aggregates the fault plane's measured
// clear→healthy recovery times into p50/p95/max, alongside packets lost to
// the fault. The single-fault rows (worker-stall/crash, wire-dip,
// reorder-stall) are the honest pre-change baselines: they exercise only the
// recovery machinery that existed before island failure domains landed. The
// island-blackout, flapping-worker, and compound-campaign rows measure the
// crash-recovery path added with DESIGN.md §16.
//
// CI's perf-smoke job re-runs the fixed gate cell with --check: a
// differential run with an island blackout, whose post-blackout share
// reconvergence time (measured by the RecoverySloChecker) must reproduce
// within the tolerance of the committed value — the regression gate on
// "how fast do shares come back after an island dies".
//
// Usage: recovery_sweep [--out PATH] [--quick] [--horizon-ms N] [--seed S]
//                       [--check BASELINE.json [--tolerance F]] [--jobs N]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/runner.h"
#include "core/flowvalve.h"
#include "exp/parallel_runner.h"
#include "fault/fault_plane.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/recovery_tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "stats/stats.h"
#include "traffic/generators.h"

namespace {

using namespace flowvalve;

constexpr std::uint32_t kFrameBytes = 1518;
constexpr unsigned kNumClasses = 4;

std::string flat_policy(sim::Rate link) {
  std::ostringstream s;
  s << "fv qdisc add dev nic0 root handle 1: htb rate " << link.gbps() << "gbit\n";
  for (unsigned i = 0; i < kNumClasses; ++i)
    s << "fv class add dev nic0 parent 1: classid 1:1" << i << " name C" << i
      << " weight 1\n";
  for (unsigned i = 0; i < kNumClasses; ++i)
    s << "fv filter add dev nic0 pref " << (10 * (i + 1)) << " vf " << i
      << " classid 1:1" << i << "\n";
  return s.str();
}

/// Sweep rows: the single-fault pre-change baselines, then the island
/// failure-domain kinds, then the compound campaign (kind == nullopt).
struct KindSpec {
  const char* label;
  bool campaign;                 // derive a compound campaign per seed
  fault::FaultKind kind;         // ignored when campaign
};
const KindSpec kKinds[] = {
    {"worker-stall", false, fault::FaultKind::kWorkerStall},
    {"worker-crash", false, fault::FaultKind::kWorkerCrash},
    {"wire-dip", false, fault::FaultKind::kWireDip},
    {"reorder-stall", false, fault::FaultKind::kReorderStall},
    {"island-blackout", false, fault::FaultKind::kIslandBlackout},
    {"flapping-worker", false, fault::FaultKind::kFlappingWorker},
    {"campaign", true, fault::FaultKind::kWorkerStall},
};
const core::BackendKind kBackends[] = {
    core::BackendKind::kFlowValve, core::BackendKind::kStfq,
    core::BackendKind::kEiffel};

struct CellResult {
  std::string kind;
  core::BackendKind backend = core::BackendKind::kFlowValve;
  unsigned reps = 0;
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t packets_lost = 0;
  sim::SimDuration mttr_p50 = -1;
  sim::SimDuration mttr_p95 = -1;
  sim::SimDuration mttr_max = -1;
};

/// One loaded-pipeline run of the cell's fault family; returns through the
/// accumulators. The whole simulation universe is local to the call.
void run_once(const KindSpec& spec, core::BackendKind backend,
              sim::SimTime horizon, std::uint64_t seed, CellResult& cell,
              std::vector<sim::SimDuration>& times) {
  np::NpConfig cfg = np::agilio_cx_40g();
  cfg.recovery.admission_enabled = true;
  cfg.backend = backend;

  sim::Simulator sim;
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

  obs::RecoveryTracker tracker;
  fault::FaultPlane plane(sim, pipeline, &engine, &tracker);
  const fault::FaultSchedule schedule =
      spec.campaign
          ? fault::generate_campaign_schedule(seed, horizon, cfg)
          : fault::single_fault(spec.kind, horizon / 3, horizon / 6, cfg);
  plane.arm(schedule);

  const sim::Rate offered = cfg.wire_rate * 1.3;  // sustained overload
  const sim::Rng rng(seed);
  std::vector<std::unique_ptr<traffic::CbrFlow>> flows;
  for (unsigned i = 0; i < kNumClasses; ++i) {
    traffic::FlowSpec fs;
    fs.flow_id = ids.next_flow_id();
    fs.app_id = i;
    fs.vf_port = static_cast<std::uint16_t>(i);
    fs.wire_bytes = kFrameBytes;
    flows.push_back(std::make_unique<traffic::CbrFlow>(
        sim, router, ids, fs, offered / double(kNumClasses),
        rng.split("cbr").split(i), 0.05));
  }
  for (auto& f : flows) f->start();

  sim.run_until(horizon);
  for (auto& f : flows) f->stop();
  sim.run_all();
  plane.finalize();

  cell.injected += tracker.injected();
  cell.recovered += tracker.recovered();
  cell.packets_lost += tracker.total_packets_lost();
  const std::vector<sim::SimDuration> t = tracker.recovery_times();
  times.insert(times.end(), t.begin(), t.end());
}

CellResult run_cell(const KindSpec& spec, core::BackendKind backend,
                    sim::SimTime horizon, std::uint64_t seed, unsigned reps) {
  CellResult cell;
  cell.kind = spec.label;
  cell.backend = backend;
  cell.reps = reps;
  std::vector<sim::SimDuration> times;
  for (unsigned r = 0; r < reps; ++r)
    run_once(spec, backend, horizon, seed + r * 7919, cell, times);
  std::sort(times.begin(), times.end());
  cell.mttr_p50 = obs::RecoveryTracker::percentile(times, 0.50);
  cell.mttr_p95 = obs::RecoveryTracker::percentile(times, 0.95);
  cell.mttr_max = times.empty() ? -1 : times.back();
  return cell;
}

bool extract_number(const std::string& json, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + pos + needle.size(), nullptr);
  return true;
}

// Fixed regression-gate cell: a differential scenario with an island
// blackout over [40%, 60%] of the horizon, run under the RecoverySloChecker.
// Deterministic, so the measured post-blackout share-reconvergence time must
// reproduce the committed value within the tolerance.
constexpr std::uint64_t kGateSeed = 0x15a4dull;
check::CheckReport run_gate_cell() {
  check::FuzzScenario sc = check::generate_differential_scenario(kGateSeed);
  sc.nic.recovery.admission_enabled = true;
  check::RunOptions opts;
  opts.differential = true;
  opts.campaign = true;  // arms the RecoverySloChecker
  opts.faults = fault::single_fault(fault::FaultKind::kIslandBlackout,
                                    sc.horizon * 2 / 5, sc.horizon / 5,
                                    sc.nic);
  return check::run_scenario(sc, opts);
}

std::string backend_name(core::BackendKind b) {
  return core::backend_kind_name(b);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_recovery.json";
  std::string check_path;
  double tolerance = 0.10;
  bool quick = false;
  std::int64_t horizon_ms = 20;
  std::uint64_t seed = 0x3ec0u;
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--horizon-ms") == 0 && i + 1 < argc) {
      horizon_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else {
      std::cerr << "usage: recovery_sweep [--out PATH] [--quick] "
                   "[--horizon-ms N] [--seed S] "
                   "[--check BASELINE.json [--tolerance F]] [--jobs N]\n";
      return 2;
    }
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::cerr << "cannot read baseline " << check_path << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    double gate_reconv = 0.0, gate_recovered = 0.0;
    if (!extract_number(ss.str(), "gate_share_reconvergence_ns", &gate_reconv) ||
        !extract_number(ss.str(), "gate_recovered", &gate_recovered)) {
      std::cerr
          << "baseline has no gate_share_reconvergence_ns/gate_recovered\n";
      return 1;
    }
    const check::CheckReport g = run_gate_cell();
    if (!g.ok()) {
      std::cout << "REGRESSION: gate cell fails its invariants: "
                << g.summary() << "\n";
      return 1;
    }
    // Relative tolerance plus one SLO window (500 µs) of absolute slack: a
    // committed baseline of 0 (reconverged within the first window) must not
    // mean zero headroom, only that reconvergence stays ~immediate.
    const double ceiling =
        gate_reconv * (1.0 + tolerance) + double(sim::microseconds(500));
    std::cout << "regression gate: measured share reconvergence "
              << static_cast<std::int64_t>(g.share_reconvergence)
              << " ns vs committed " << gate_reconv << " (ceiling " << ceiling
              << ", tolerance " << tolerance << "), recovered "
              << g.faults_recovered << " vs " << gate_recovered << "\n";
    if (g.share_reconvergence < 0 ||
        static_cast<double>(g.share_reconvergence) > ceiling ||
        static_cast<double>(g.faults_recovered) < gate_recovered) {
      std::cout << "REGRESSION: post-blackout reconvergence degraded against "
                   "the committed baseline\n";
      return 1;
    }
    std::cout << "gate OK\n";
    return 0;  // check mode does not rewrite the committed artifact
  }

  const sim::SimTime horizon = sim::milliseconds(quick ? 8 : horizon_ms);
  const unsigned reps = quick ? 2 : 4;

  struct CellSpec {
    std::size_t kind;
    std::size_t backend;
  };
  std::vector<CellSpec> specs;
  constexpr std::size_t num_kinds = sizeof(kKinds) / sizeof(kKinds[0]);
  constexpr std::size_t num_backends = sizeof(kBackends) / sizeof(kBackends[0]);
  for (std::size_t k = 0; k < num_kinds; ++k)
    for (std::size_t b = 0; b < num_backends; ++b) specs.push_back({k, b});

  exp::ParallelRunner runner(jobs);
  auto cells = runner.map<CellResult>(specs.size(), [&](std::size_t i) {
    const CellSpec& s = specs[i];
    return run_cell(kKinds[s.kind], kBackends[s.backend], horizon,
                    seed + 104729 * s.kind + 1299709 * s.backend, reps);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].ok()) {
      std::cerr << "recovery cell " << i
                << " crashed: " << cells[i].failure->what << "\n";
      return 1;
    }
  }
  const check::CheckReport gate = run_gate_cell();
  if (!gate.ok()) {
    std::cerr << "gate cell fails its invariants: " << gate.summary() << "\n";
    return 1;
  }

  stats::TablePrinter table({"kind", "backend", "injected", "recovered",
                             "pkts_lost", "mttr_p50_us", "mttr_p95_us",
                             "mttr_max_us"});
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value("recovery_sweep");
  w.key("frame_bytes").value(kFrameBytes);
  w.key("classes").value(kNumClasses);
  w.key("horizon_ns").value(static_cast<std::int64_t>(horizon));
  w.key("offered_load").value(1.3);
  w.key("seed").value(static_cast<std::int64_t>(seed));
  w.key("reps_per_cell").value(reps);
  w.key("runs").begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = *cells[i].result;
    w.begin_object()
        .key("kind").value(c.kind)
        .key("backend").value(backend_name(c.backend))
        .key("reps").value(c.reps)
        .key("injected").value(c.injected)
        .key("recovered").value(c.recovered)
        .key("packets_lost").value(c.packets_lost)
        .key("mttr_p50_ns").value(static_cast<std::int64_t>(c.mttr_p50))
        .key("mttr_p95_ns").value(static_cast<std::int64_t>(c.mttr_p95))
        .key("mttr_max_ns").value(static_cast<std::int64_t>(c.mttr_max))
        .end_object();
    table.add_row({c.kind, backend_name(c.backend), std::to_string(c.injected),
                   std::to_string(c.recovered), std::to_string(c.packets_lost),
                   stats::TablePrinter::fmt(double(c.mttr_p50) / 1e3, 1),
                   stats::TablePrinter::fmt(double(c.mttr_p95) / 1e3, 1),
                   stats::TablePrinter::fmt(double(c.mttr_max) / 1e3, 1)});
  }
  w.end_array();

  w.key("gate").begin_object()
      .key("seed").value(static_cast<std::int64_t>(kGateSeed))
      .key("fault").value("island-blackout @ 40%..60% of horizon")
      .key("scenario").value("differential family, RecoverySloChecker armed")
      .end_object();
  w.key("gate_share_reconvergence_ns")
      .value(static_cast<std::int64_t>(gate.share_reconvergence));
  w.key("gate_recovered").value(gate.faults_recovered);
  w.key("gate_worst_recovery_ns")
      .value(static_cast<std::int64_t>(gate.worst_recovery));
  w.end_object();

  table.print();
  if (!obs::write_json_file(out_path, w.str())) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
