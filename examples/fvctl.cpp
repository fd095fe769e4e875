// fvctl — a command-line harness around the FlowValve library: load an fv
// policy script from a file, attach greedy TCP apps to VF ports, run the
// simulated SmartNIC, and print per-app throughput over time. The control
// subcommands drive the src/ctrl live-reconfiguration plane: `apply`
// submits a policy update mid-run through shadow validation and the
// epoch-versioned staged rollout, `rollback` demonstrates the operator
// restore path, and `status` reports the control-plane state.
//
// Usage:
//   fvctl run POLICY.fv   [--apps N] [--seconds S] [--conns C] [--wire GBPS]
//                         [--seed SEED] [--csv out.csv]
//   fvctl apply POLICY.fv UPDATE [--at-ms T] [...run options]
//   fvctl rollback POLICY.fv UPDATE [--at-ms T] [...run options]
//   fvctl status POLICY.fv [...run options]
//
//   (a bare `fvctl POLICY.fv ...` still works and means `run`)
//
// UPDATE is either a full fv script (lines starting with "fv ", swapped in
// atomically after structural compatibility checks) or per-class deltas:
//   delta gold weight=4
//   delta silver ceil=2gbit guarantee=500mbit prio=1
//
// Example policy file (see README for the grammar):
//   fv qdisc add dev nic0 root handle 1: htb rate 10gbit
//   fv class add dev nic0 parent 1: classid 1:10 name gold weight 2
//   fv class add dev nic0 parent 1: classid 1:11 name silver weight 1
//   fv filter add dev nic0 pref 1 vf 0 classid 1:10
//   fv filter add dev nic0 pref 2 vf 1 classid 1:11
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flowvalve.h"
#include "core/frontend.h"
#include "core/introspect.h"
#include "ctrl/reconfig_manager.h"
#include "exp/scenarios.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/reconfig_tracker.h"
#include "sim/parse_uint.h"
#include "sim/simulator.h"
#include "stats/series_export.h"
#include "traffic/app.h"

using namespace flowvalve;

namespace {

enum class Command { kRun, kApply, kRollback, kStatus };

struct Args {
  Command command = Command::kRun;
  std::string policy_path;
  std::string update_path;  // apply / rollback
  double at_ms = -1.0;      // submission instant; <0 ⇒ mid-run
  unsigned apps = 2;
  double seconds = 5.0;
  unsigned conns = 1;
  double wire_gbps = 40.0;
  std::uint64_t seed = 42;
  std::string csv_path;
};

/// Bounds on the double-valued flags. The throughput table has ten rows of
/// seconds/10 each, so a run shorter than 10 ns would make a zero-width
/// row. 1e9 s (and 1e9 Gbps) keeps every instant and rate finite and well
/// inside SimTime's range, with room for the delays a run adds past them.
/// The wire floor is the 1 kbit/s the paced senders put on any rate; far
/// below it, one frame's serialization time overflows SimTime.
constexpr double kMinSeconds = 1e-8;
constexpr double kMaxSeconds = 1e9;
constexpr double kMinWireGbps = 1e-6;
constexpr double kMaxWireGbps = 1e9;

/// `s` as a finite double in [lo, hi] with nothing after it.
bool parse_double(const char* s, double lo, double hi, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

/// `s` as an unsigned integer that fits `T` (sim::parse_uint).
template <class T>
bool parse_count(const char* s, T* out) {
  const auto v = sim::parse_uint(s, std::numeric_limits<T>::max());
  if (v) *out = static_cast<T>(*v);
  return v.has_value();
}

bool parse_args(int argc, char** argv, Args* out) {
  int i = 1;
  if (argc < 2) return false;
  const std::string first = argv[1];
  if (first == "run") {
    out->command = Command::kRun;
    ++i;
  } else if (first == "apply") {
    out->command = Command::kApply;
    ++i;
  } else if (first == "rollback") {
    out->command = Command::kRollback;
    ++i;
  } else if (first == "status") {
    out->command = Command::kStatus;
    ++i;
  }  // anything else: legacy `fvctl POLICY.fv ...` ⇒ run
  if (i >= argc) return false;
  out->policy_path = argv[i++];
  if (out->command == Command::kApply || out->command == Command::kRollback) {
    if (i >= argc || argv[i][0] == '-') return false;
    out->update_path = argv[i++];
  }
  for (; i < argc; i += 2) {
    if (i + 1 >= argc) return false;  // a flag without its value
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    bool ok = true;
    if (key == "--apps") ok = parse_count(val, &out->apps) && out->apps > 0;
    else if (key == "--seconds") ok = parse_double(val, kMinSeconds, kMaxSeconds, &out->seconds);
    else if (key == "--conns") ok = parse_count(val, &out->conns);
    else if (key == "--wire") ok = parse_double(val, kMinWireGbps, kMaxWireGbps, &out->wire_gbps);
    else if (key == "--seed") ok = parse_count(val, &out->seed);
    else if (key == "--csv") out->csv_path = val;
    else if (key == "--at-ms") ok = parse_double(val, 0.0, kMaxSeconds * 1e3, &out->at_ms);
    else ok = false;
    if (!ok) return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Parse an UPDATE file: full fv script, or `delta NAME key=value...` lines.
bool parse_update(const std::string& text, ctrl::PolicyUpdate* out,
                  std::string* error) {
  std::istringstream lines(text);
  std::string line;
  bool any_fv = false, any_delta = false;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    if (word == "fv") {
      any_fv = true;
      continue;
    }
    if (word != "delta") {
      *error = "unrecognized update line: " + line;
      return false;
    }
    any_delta = true;
    ctrl::PolicyDelta d;
    if (!(ls >> d.class_name)) {
      *error = "delta line without a class name: " + line;
      return false;
    }
    while (ls >> word) {
      const std::size_t eq = word.find('=');
      if (eq == std::string::npos) {
        *error = "expected key=value, got '" + word + "'";
        return false;
      }
      const std::string key = word.substr(0, eq);
      const std::string val = word.substr(eq + 1);
      try {
        if (key == "weight") {
          // Any finite number here; validate_deltas refuses one <= 0.
          double weight = 0.0;
          if (!parse_double(val.c_str(), std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::max(), &weight))
            throw std::invalid_argument("not a finite number");
          d.weight = weight;
        } else if (key == "prio") {
          core::PrioLevel prio = 0;
          if (!parse_count(val.c_str(), &prio))
            throw std::invalid_argument("not an integer in [0, 255]");
          d.prio = prio;
        }
        else if (key == "rate" || key == "guarantee") d.guarantee = core::parse_rate(val);
        else if (key == "ceil") d.ceil = core::parse_rate(val);
        else {
          *error = "unknown delta key '" + key + "'";
          return false;
        }
      } catch (const std::exception& e) {
        *error = "bad value for '" + key + "': " + e.what();
        return false;
      }
    }
    out->deltas.push_back(std::move(d));
  }
  if (any_fv && any_delta) {
    *error = "update mixes a full fv script with delta lines — use one or the other";
    return false;
  }
  if (any_fv) {
    out->fv_script = text;
    out->deltas.clear();
  } else if (!any_delta) {
    *error = "update file contains neither fv script lines nor delta lines";
    return false;
  }
  return true;
}

/// Prints every control-plane lifecycle event with its virtual timestamp.
class PrintObserver final : public ctrl::ReconfigManager::Observer {
 public:
  void on_staged(std::uint32_t epoch, sim::SimTime now) override {
    std::printf("[%8.3f ms] staged rollout of epoch %u\n", ms(now), epoch);
  }
  void on_committed(std::uint32_t epoch, sim::SimTime now) override {
    std::printf("[%8.3f ms] committed epoch %u (probation passed)\n", ms(now),
                epoch);
  }
  void on_rolled_back(std::uint32_t from, std::uint32_t to,
                      const std::string& reason, sim::SimTime now) override {
    std::printf("[%8.3f ms] ROLLED BACK epoch %u -> %u: %s\n", ms(now), from,
                to, reason.c_str());
  }
  void on_stall(std::uint32_t epoch, sim::SimTime now) override {
    std::printf("[%8.3f ms] rollout of epoch %u stalled; forcing cutover\n",
                ms(now), epoch);
  }

 private:
  static double ms(sim::SimTime t) { return static_cast<double>(t) / 1e6; }
};

const char* state_name(ctrl::ReconfigManager::State s) {
  switch (s) {
    case ctrl::ReconfigManager::State::kIdle: return "idle";
    case ctrl::ReconfigManager::State::kRollout: return "rollout";
    case ctrl::ReconfigManager::State::kProbation: return "probation";
  }
  return "?";
}

int run_command(const Args& args) {
  std::string policy;
  if (!read_file(args.policy_path, &policy)) {
    std::fprintf(stderr, "cannot open policy file '%s'\n",
                 args.policy_path.c_str());
    return 1;
  }

  ctrl::PolicyUpdate update;
  if (args.command == Command::kApply || args.command == Command::kRollback) {
    std::string text, err;
    if (!read_file(args.update_path, &text)) {
      std::fprintf(stderr, "cannot open update file '%s'\n",
                   args.update_path.c_str());
      return 1;
    }
    if (!parse_update(text, &update, &err)) {
      std::fprintf(stderr, "update parse error: %s\n", err.c_str());
      return 1;
    }
  }

  sim::Simulator simulator;
  np::NpConfig nic = np::agilio_cx_40g();
  nic.wire_rate = sim::Rate::gigabits_per_sec(args.wire_gbps);

  core::FlowValveEngine engine(exp::superpacket_engine_options(nic));
  try {
    const std::string err = engine.configure(policy);
    if (!err.empty()) {
      std::fprintf(stderr, "policy error: %s\n", err.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "policy parse error: %s\n", e.what());
    return 1;
  }

  np::FlowValveProcessor processor(engine);
  np::NicPipeline pipeline(simulator, nic, processor);
  sim::Rng rng(args.seed);
  traffic::IdAllocator ids;
  traffic::FlowRouter router(pipeline);

  obs::ReconfigTracker tracker;
  PrintObserver print_observer;
  std::unique_ptr<ctrl::ReconfigManager> mgr;
  if (args.command != Command::kRun) {
    mgr = std::make_unique<ctrl::ReconfigManager>(simulator, pipeline, engine,
                                                  &tracker);
    mgr->set_observer(&print_observer);
  }

  std::vector<std::unique_ptr<stats::ThroughputSeries>> series;
  std::vector<std::unique_ptr<traffic::AppProcess>> apps;
  std::vector<stats::NamedSeries> named;
  for (unsigned i = 0; i < args.apps; ++i) {
    series.push_back(std::make_unique<stats::ThroughputSeries>(sim::milliseconds(100)));
    router.track_app(i, series.back().get());
    traffic::AppConfig cfg;
    cfg.name = "app" + std::to_string(i);
    cfg.app_id = i;
    cfg.vf_port = static_cast<std::uint16_t>(i);
    cfg.num_connections = args.conns;
    cfg.wire_bytes = exp::kSuperPacketBytes;
    cfg.tcp.max_rate = nic.wire_rate * 1.4;
    cfg.tcp.additive_increase = nic.wire_rate * 0.02;
    cfg.tcp.md_factor = 0.9;
    auto app = std::make_unique<traffic::AppProcess>(simulator, router, ids, cfg,
                                                     rng.split(cfg.name));
    app->start();
    named.push_back({cfg.name, series.back().get()});
    apps.push_back(std::move(app));
  }

  const sim::SimTime horizon = sim::seconds_f(args.seconds);

  if (args.command == Command::kApply || args.command == Command::kRollback) {
    const sim::SimTime at = args.at_ms >= 0.0
                                ? static_cast<sim::SimTime>(args.at_ms * 1e6)
                                : horizon / 2;
    ctrl::ReconfigManager* m = mgr.get();
    const ctrl::PolicyUpdate* u = &update;
    simulator.schedule_at(at, [m, u] {
      if (std::string err = m->apply(*u); !err.empty())
        std::printf("update REJECTED by shadow validation: %s\n", err.c_str());
    });
    if (args.command == Command::kRollback) {
      // Operator restore: yank the update back mid-probation.
      simulator.schedule_at(at + sim::milliseconds(4),
                            [m] { m->rollback("operator"); });
    }
  }

  simulator.run_until(horizon);

  std::printf("fvctl — %s | %u apps × %u conns | wire %.0fG | %.1fs | seed %llu\n\n",
              args.policy_path.c_str(), args.apps, args.conns, args.wire_gbps,
              args.seconds, static_cast<unsigned long long>(args.seed));
  std::printf("%s\n",
              stats::series_to_table(named, horizon, sim::seconds_f(args.seconds / 10.0))
                  .c_str());

  std::printf("fv class show (%s):\n%s\n",
              core::render_engine_summary(engine).c_str(),
              core::render_class_show(engine.tree()).c_str());

  if (mgr) {
    const ctrl::ReconfigManager::Stats& rs = mgr->stats();
    std::printf("control plane: epoch %u | state %s | %llu applied, "
                "%llu committed, %llu rolled back, %llu rejected, "
                "%llu coalesced | %llu mixed-epoch pkts\n",
                mgr->epoch(), state_name(mgr->state()),
                static_cast<unsigned long long>(rs.applied),
                static_cast<unsigned long long>(rs.committed),
                static_cast<unsigned long long>(rs.rolled_back),
                static_cast<unsigned long long>(rs.rejected),
                static_cast<unsigned long long>(rs.coalesced),
                static_cast<unsigned long long>(rs.mixed_epoch_packets));
    obs::JsonWriter w;
    obs::reconfig_json(w, tracker);
    std::printf("reconfig records: %s\n", w.str().c_str());
  }

  if (!args.csv_path.empty()) {
    if (stats::write_series_csv(args.csv_path, named, horizon))
      std::printf("\nwrote %s\n", args.csv_path.c_str());
    else
      std::fprintf(stderr, "\nfailed to write %s\n", args.csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s [run] POLICY.fv [--apps N] [--seconds S] [--conns C]\n"
                 "          [--wire GBPS] [--seed SEED] [--csv out.csv]\n"
                 "       %s apply POLICY.fv UPDATE [--at-ms T] [...run options]\n"
                 "       %s rollback POLICY.fv UPDATE [--at-ms T] [...run options]\n"
                 "       %s status POLICY.fv [...run options]\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  return run_command(args);
}
