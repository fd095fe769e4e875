#include "check/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "exp/parallel_runner.h"

#include "check/convergence.h"
#include "check/differential.h"
#include "check/reconfig_check.h"
#include "check/recovery_slo.h"
#include "core/flowvalve.h"
#include "ctrl/reconfig_manager.h"
#include "fault/fault_plane.h"
#include "np/flowvalve_processor.h"
#include "obs/reconfig_tracker.h"
#include "obs/recovery_tracker.h"
#include "traffic/churn.h"
#include "traffic/generators.h"
#include "traffic/tcp.h"

namespace flowvalve::check {

namespace {

/// Settling time after the last timed fault clears before the share
/// re-convergence window opens (differential runs with faults only).
constexpr sim::SimDuration kRecoverySettle = sim::milliseconds(30);

/// Non-failing "checker" that rides the harness to collect per-VF wire
/// bytes after the warmup cutoff (the differential oracle's FV-side input).
class ShareCollector final : public InvariantChecker {
 public:
  ShareCollector(std::size_t vfs, sim::SimTime warmup)
      : bytes_(vfs, 0), warmup_(warmup) {}

  std::string_view name() const override { return "share-collector"; }

  void on_wire_tx(const net::Packet& pkt, sim::SimTime now) override {
    if (now >= warmup_ && pkt.vf_port < bytes_.size())
      bytes_[pkt.vf_port] += pkt.wire_bytes;
  }

  const std::vector<std::uint64_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint64_t> bytes_;
  sim::SimTime warmup_;
};

/// Uniform handle over the concrete generator types.
struct Source {
  std::unique_ptr<traffic::CbrFlow> cbr;
  std::unique_ptr<traffic::PoissonFlow> poisson;
  std::unique_ptr<traffic::OnOffFlow> onoff;
  std::unique_ptr<traffic::TcpAimdFlow> tcp;
  std::unique_ptr<traffic::ChurnWorkload> churn;

  void start() {
    if (cbr) cbr->start();
    if (poisson) poisson->start();
    if (onoff) onoff->start();
    if (tcp) tcp->start();
    if (churn) churn->start();
  }
  void stop() {
    if (cbr) cbr->stop();
    if (poisson) poisson->stop();
    if (onoff) onoff->stop();
    if (tcp) tcp->stop();
    if (churn) churn->stop();
  }
};

Source make_source(sim::Simulator& sim, traffic::FlowRouter& router,
                   traffic::IdAllocator& ids, const FuzzFlow& f,
                   unsigned vf_count, sim::Rng rng) {
  traffic::FlowSpec spec;
  spec.flow_id = ids.next_flow_id();
  spec.app_id = f.app_id;
  spec.vf_port = f.vf;
  spec.wire_bytes = f.frame_bytes;

  Source src;
  switch (f.kind) {
    case FuzzFlow::Kind::kCbr:
      src.cbr = std::make_unique<traffic::CbrFlow>(sim, router, ids, spec,
                                                   f.rate, rng, 0.05);
      break;
    case FuzzFlow::Kind::kPoisson:
      src.poisson = std::make_unique<traffic::PoissonFlow>(sim, router, ids,
                                                           spec, f.rate, rng);
      break;
    case FuzzFlow::Kind::kOnOff:
      src.onoff = std::make_unique<traffic::OnOffFlow>(
          sim, router, ids, spec, f.rate * 2.0, sim::milliseconds(1),
          sim::milliseconds(1), rng);
      break;
    case FuzzFlow::Kind::kTcp: {
      traffic::TcpAimdConfig cfg;
      cfg.start_rate = f.rate * 0.25;
      cfg.min_rate = f.rate * 0.05;
      cfg.max_rate = f.rate;
      cfg.rtt = sim::milliseconds(2);
      cfg.additive_increase = f.rate * 0.1;
      src.tcp = std::make_unique<traffic::TcpAimdFlow>(sim, router, ids, spec,
                                                       cfg, rng);
      break;
    }
    case FuzzFlow::Kind::kChurn: {
      traffic::ChurnWorkloadConfig cfg;
      cfg.target_live_flows = f.live_flows > 0 ? f.live_flows : 1024;
      cfg.aggregate_rate = f.rate;
      cfg.wire_bytes = f.frame_bytes;
      cfg.app_id = f.app_id;
      cfg.vf_count = std::max(1u, vf_count);
      src.churn = std::make_unique<traffic::ChurnWorkload>(sim, router, ids,
                                                           cfg, rng);
      break;
    }
  }
  return src;
}

/// Last instant at which a timed fault clears (0 if the schedule is empty
/// or all events are permanent).
sim::SimTime last_fault_clear(const fault::FaultSchedule& schedule) {
  sim::SimTime last = 0;
  for (const fault::FaultEvent& ev : schedule)
    if (ev.duration > 0) last = std::max(last, ev.at + ev.duration);
  return last;
}

bool has_permanent_fault(const fault::FaultSchedule& schedule) {
  for (const fault::FaultEvent& ev : schedule)
    if (ev.duration <= 0) return true;
  return false;
}

/// Fair per-VF wire-byte fractions from the differential scenario's static
/// shares (empty when the leaves carry no share plan).
std::vector<double> expected_vf_fractions(const FuzzScenario& sc) {
  double total_bps = 0.0;
  for (const FuzzLeaf& l : sc.leaves) total_bps += l.static_share.bps();
  std::vector<double> expected;
  if (total_bps <= 0.0) return expected;
  for (const FuzzLeaf& l : sc.leaves) {
    if (l.vf >= expected.size()) expected.resize(l.vf + 1, 0.0);
    expected[l.vf] += l.static_share.bps() / total_bps;
  }
  return expected;
}

/// Build and submit one seed-derived live policy update against the current
/// tree: a leaf's weight is rescaled, which always passes shadow validation
/// (positive, finite, guarantees untouched) and genuinely moves shares.
void submit_fuzz_update(ctrl::ReconfigManager& mgr,
                        const core::FlowValveEngine& engine, sim::Rng rng) {
  const core::SchedulingTree& tree = engine.tree();
  std::vector<core::ClassId> leaves;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const core::ClassId id = static_cast<core::ClassId>(i);
    if (tree.at(id).is_leaf()) leaves.push_back(id);
  }
  if (leaves.empty()) return;
  const core::SchedClass& c =
      tree.at(leaves[rng.next_u64() % leaves.size()]);
  static constexpr double kFactors[] = {0.5, 2.0, 1.25};
  ctrl::PolicyDelta d;
  d.class_name = c.name;
  d.weight = c.policy.weight * kFactors[rng.next_u64() % 3];
  ctrl::PolicyUpdate u;
  u.deltas.push_back(std::move(d));
  mgr.apply(u);  // acceptance/coalescing/rejection lands in the tracker
}

/// Seed-derived schedule of update submission instants inside the middle of
/// the run, plus (3 times in 4) one control-plane fault chosen from
/// torn-update / stale-epoch / update-storm that overlaps them.
std::vector<sim::SimTime> plan_reconfig(const FuzzScenario& sc,
                                        unsigned updates,
                                        fault::FaultSchedule& out_faults) {
  sim::Rng rng = sim::Rng(sc.seed).split("reconfig");
  std::vector<sim::SimTime> times;
  times.reserve(updates);
  for (unsigned i = 0; i < updates; ++i)
    times.push_back(static_cast<sim::SimTime>(
        rng.uniform(0.25 * static_cast<double>(sc.horizon),
                    0.75 * static_cast<double>(sc.horizon))));
  std::sort(times.begin(), times.end());

  const std::uint64_t pick = rng.next_u64() % 4;
  if (pick < 3 && !times.empty()) {
    fault::FaultEvent ev;
    ev.kind = pick == 0   ? fault::FaultKind::kTornUpdate
              : pick == 1 ? fault::FaultKind::kStaleEpoch
                          : fault::FaultKind::kUpdateStorm;
    ev.at = std::max<sim::SimTime>(1, times.front() - sim::microseconds(50));
    // Cover every submission, then clear so the run ends with a healthy
    // control plane (the epoch-confinement checker asserts idle at drain).
    ev.duration = (times.back() - ev.at) + sim::milliseconds(8);
    if (ev.kind == fault::FaultKind::kStaleEpoch)
      ev.worker = static_cast<unsigned>(rng.next_u64() %
                                        std::max(1u, sc.nic.num_workers));
    if (ev.kind == fault::FaultKind::kUpdateStorm)
      ev.period = static_cast<sim::SimDuration>(4 + rng.next_u64() % 5);
    out_faults.push_back(ev);
  }
  return times;
}

}  // namespace

CheckReport run_scenario(const FuzzScenario& sc, const RunOptions& opts) {
  CheckReport report;
  report.seed = sc.seed;
  report.differential = opts.differential;
  report.backend = sc.nic.backend;

  sim::Simulator sim(opts.scheduler);
  core::FlowValveEngine engine(np::engine_options_for(sc.nic));
  if (std::string err = engine.configure(sc.fv_script); !err.empty()) {
    // The fuzzer must only emit valid policies — a config error IS a bug.
    report.violation_total = 1;
    report.violations.push_back({"configure", 0, std::move(err)});
    return report;
  }

  np::FlowValveProcessor processor(engine);
  np::NicPipeline pipeline(sim, sc.nic, processor);
  traffic::FlowRouter router(pipeline);
  traffic::IdAllocator ids;

  CheckHarness harness(sim, pipeline, &engine);
  harness.add_standard_checkers();
  ShareCollector* collector = nullptr;
  if (opts.differential) {
    auto c = std::make_unique<ShareCollector>(sc.leaves.size(),
                                              differential_warmup(sc));
    collector = c.get();
    harness.add(std::move(c));
  }

  // Live reconfiguration: manager + its invariant checkers + a seed-derived
  // submission plan (and usually one control-plane fault riding the plane).
  obs::ReconfigTracker reconfig_tracker;
  std::unique_ptr<ctrl::ReconfigManager> reconfig;
  fault::FaultSchedule armed = opts.faults;
  std::vector<sim::SimTime> update_times;
  if (opts.reconfig_updates > 0) {
    reconfig = std::make_unique<ctrl::ReconfigManager>(sim, pipeline, engine,
                                                       &reconfig_tracker);
    harness.add(std::make_unique<EpochConfinementChecker>(reconfig.get()));
    harness.add(
        std::make_unique<SwapConservationChecker>(reconfig.get(), &pipeline));
    update_times = plan_reconfig(sc, opts.reconfig_updates, armed);
  }

  obs::RecoveryTracker tracker;
  std::unique_ptr<fault::FaultPlane> plane;
  RecoverySloChecker* slo = nullptr;
  if (!armed.empty()) {
    plane = std::make_unique<fault::FaultPlane>(sim, pipeline, &engine,
                                                &tracker);
    plane->set_reconfig(reconfig.get());
    plane->arm(armed);

    // A fair static share plan exists only for the differential family,
    // only when every armed fault actually clears before the horizon, and
    // only without live updates (a committed update legitimately moves the
    // shares off the static plan).
    const bool fair_plan_valid = opts.differential &&
                                 !has_permanent_fault(armed) &&
                                 opts.reconfig_updates == 0;

    // Re-convergence bar: after the last timed fault clears and the pipeline
    // has had kRecoverySettle to heal, per-VF wire shares must match the
    // weighted-fair allocation.
    const sim::SimTime from = last_fault_clear(armed) + kRecoverySettle;
    if (fair_plan_valid && from < sc.horizon) {
      std::vector<double> expected = expected_vf_fractions(sc);
      if (!expected.empty())
        harness.add(std::make_unique<ShareConvergenceChecker>(
            std::move(expected), from, sc.horizon));
    }

    // Recovery-SLO oracle: campaign runs must bound every episode's MTTR,
    // and (when a fair plan exists) the post-quiet share-reconvergence time.
    if (opts.campaign) {
      RecoverySloChecker::Options so;
      so.quiet_at = last_fault_clear(armed);
      so.horizon = sc.horizon;
      if (fair_plan_valid && so.quiet_at < sc.horizon)
        so.expected_fractions = expected_vf_fractions(sc);
      auto c = std::make_unique<RecoverySloChecker>(&tracker, so);
      slo = c.get();
      harness.add(std::move(c));
    }
  }

  const sim::Rng rng(sc.seed);
  std::vector<Source> sources;
  sources.reserve(sc.flows.size());
  for (const FuzzFlow& f : sc.flows)
    sources.push_back(make_source(sim, router, ids, f, sc.nic.num_vfs,
                                  rng.split("src").split(f.app_id)));
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    Source* src = &sources[i];
    sim.schedule_at(sc.flows[i].start, [src] { src->start(); });
    sim.schedule_at(sc.flows[i].stop, [src] { src->stop(); });
  }
  for (std::size_t i = 0; i < update_times.size(); ++i) {
    ctrl::ReconfigManager* mgr = reconfig.get();
    const core::FlowValveEngine* eng = &engine;
    const sim::Rng ur = sim::Rng(sc.seed).split("reconfig-update").split(i);
    sim.schedule_at(update_times[i],
                    [mgr, eng, ur] { submit_fuzz_update(*mgr, *eng, ur); });
  }

  harness.start();
  sim.run_until(sc.horizon);
  for (Source& src : sources) src.stop();
  harness.stop_sampling();
  sim.run_all();  // drain every in-flight packet to quiescence
  if (plane) plane->finalize();
  harness.finish();

  report.nic = pipeline.stats();
  report.faults_injected = tracker.injected();
  report.faults_recovered = tracker.recovered();
  report.packets_lost_to_faults = tracker.total_packets_lost();
  report.worst_recovery = tracker.worst_recovery_time();
  if (slo) report.share_reconvergence = slo->share_reconvergence();
  if (reconfig) {
    const ctrl::ReconfigManager::Stats& rs = reconfig->stats();
    report.reconfigs_applied = rs.applied;
    report.reconfigs_committed = rs.committed;
    report.reconfigs_rolled_back = rs.rolled_back;
    report.mixed_epoch_packets = rs.mixed_epoch_packets;
  }
  report.events = sim.events_executed();
  report.delivered = harness.delivered_packets();
  report.violation_total = harness.sink().total();
  report.violations = harness.sink().violations();

  if (opts.differential && collector) {
    const DifferentialOutcome diff =
        run_reference_and_compare(sc, collector->bytes());
    report.fv_shares = diff.fv_shares;
    report.ref_shares = diff.ref_shares;
    report.expected_shares = diff.expected_shares;
    report.worst_share_delta = diff.worst_delta;
    // Committed live updates legitimately move shares away from the static
    // reference plan, so the oracle only fails runs without a control plane.
    if (diff.worst_delta > kDifferentialTolerance && opts.reconfig_updates == 0) {
      std::ostringstream s;
      s << "per-class shares diverge from reference HTB by "
        << diff.worst_delta << " (tolerance " << kDifferentialTolerance << "):";
      for (std::size_t i = 0; i < diff.fv_shares.size(); ++i)
        s << " [" << sc.leaves[i].name << " fv=" << diff.fv_shares[i]
          << " htb=" << diff.ref_shares[i] << " exp=" << diff.expected_shares[i]
          << "]";
      ++report.violation_total;
      report.violations.push_back({"differential", sc.horizon, s.str()});
    }
  }
  return report;
}

ResolvedSeed resolve_seed(std::uint64_t seed, const RunOptions& opts) {
  FuzzScenario sc = opts.differential ? generate_differential_scenario(seed)
                                      : generate_scenario(seed);
  RunOptions effective = opts;
  if (opts.chaos) {
    fault::FaultSchedule extra =
        fault::generate_fault_schedule(seed, sc.horizon, sc.nic);
    effective.faults.insert(effective.faults.end(), extra.begin(), extra.end());
  }
  if (opts.campaign) {
    fault::FaultSchedule extra =
        fault::generate_campaign_schedule(seed, sc.horizon, sc.nic);
    effective.faults.insert(effective.faults.end(), extra.begin(), extra.end());
  }
  // Explicit storm opt-ins (`fuzz_check --storm ...`): one default-intensity
  // event over the middle half of the run, cleared well before the horizon
  // so degraded-mode hysteresis has room to heal.
  const auto arm_storm = [&](fault::FaultKind kind) {
    fault::FaultSchedule one =
        fault::single_fault(kind, sc.horizon / 4, sc.horizon / 2, sc.nic);
    effective.faults.insert(effective.faults.end(), one.begin(), one.end());
  };
  if (opts.storm_collision) arm_storm(fault::FaultKind::kHashCollisionStorm);
  if (opts.storm_churn) arm_storm(fault::FaultKind::kChurnStorm);
  if (!effective.faults.empty()) {
    // Fault runs exercise the full recovery layer, including graceful
    // degradation; the admission knob defaults off to keep fault-free
    // baselines byte-exact.
    sc.nic.recovery.admission_enabled = true;
    // The bypass fault only exists on the reorder path; injecting it into a
    // scenario that rolled reorder off would be a silent no-op.
    for (const fault::FaultEvent& ev : effective.faults)
      if (ev.kind == fault::FaultKind::kBypassReorder)
        sc.nic.enforce_reorder = true;
  }
  if (opts.horizon_override > 0) {
    sc.horizon = opts.horizon_override;
    for (FuzzFlow& f : sc.flows) {
      f.start = std::min(f.start, sc.horizon / 4);
      f.stop = std::min(f.stop, sc.horizon);
      if (f.stop <= f.start) f.stop = sc.horizon;
    }
  }
  // Forced burst size and discipline land in the scenario itself, after the
  // schedules that read its NP config, so describe() names what runs.
  if (opts.batch_size > 0) sc.nic.batch_size = opts.batch_size;
  if (opts.backend) sc.nic.backend = *opts.backend;
  return {std::move(sc), std::move(effective)};
}

std::string ResolvedSeed::describe() const {
  std::string s = sc.describe();
  s += opts.faults.empty() ? "faults: none\n" : "faults:\n";
  for (const fault::FaultEvent& ev : opts.faults) s += "  " + ev.describe() + "\n";
  return s;
}

CheckReport run_seed(std::uint64_t seed, const RunOptions& opts) {
  ResolvedSeed r = resolve_seed(seed, opts);
  return run_scenario(r.sc, r.opts);
}

fault::FaultSchedule minimize_schedule(const ResolvedSeed& resolved) {
  const auto still_fails = [&](const fault::FaultSchedule& faults) {
    RunOptions o = resolved.opts;
    o.faults = faults;
    try {
      return !run_scenario(resolved.sc, o).ok();
    } catch (...) {
      return true;  // a crash is the strongest kind of "still fails"
    }
  };
  fault::FaultSchedule current = resolved.opts.faults;
  bool shrunk = true;
  while (shrunk && !current.empty()) {
    shrunk = false;
    // One removal can unlock another (compound failures), so sweep to a
    // fixpoint rather than stopping after the first clean pass.
    for (std::size_t i = 0; i < current.size();) {
      fault::FaultSchedule candidate = current;
      candidate.erase(candidate.begin() +
                      static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        shrunk = true;
      } else {
        ++i;
      }
    }
  }
  return current;
}

namespace {

/// Hexfloat rendering: every bit of the double lands in the string, so the
/// fingerprint distinguishes values an ostream's default precision would
/// conflate.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
  out += '|';
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += '|';
}

}  // namespace

std::string report_fingerprint(const CheckReport& r) {
  std::string fp;
  fp.reserve(512);
  append_u64(fp, r.seed);
  append_u64(fp, r.differential ? 1 : 0);
  fp += core::backend_kind_name(r.backend);
  fp += '|';
  const np::NicPipeline::Stats& n = r.nic;
  for (std::uint64_t v :
       {n.submitted, n.vf_ring_drops, n.scheduler_drops, n.tx_ring_drops,
        n.reorder_flush_drops, n.forwarded_to_wire, n.wire_bytes,
        n.worker_busy_ns, n.processed, n.processing_cycles, n.reorder_flushes,
        n.reorder_occupancy_peak, n.watchdog_requeues, n.watchdog_drops,
        n.reorder_timeout_flushes, n.reorder_timeout_drops, n.admission_drops,
        n.workers_repaired, n.island_restart_drops, n.islands_restarted})
    append_u64(fp, v);
  append_u64(fp, r.events);
  append_u64(fp, r.delivered);
  append_u64(fp, r.violation_total);
  for (const Violation& v : r.violations) {
    fp += v.checker;
    fp += '@';
    append_u64(fp, static_cast<std::uint64_t>(v.at));
    fp += v.detail;
    fp += '|';
  }
  for (const std::vector<double>* shares :
       {&r.fv_shares, &r.ref_shares, &r.expected_shares}) {
    append_u64(fp, shares->size());
    for (double s : *shares) append_double(fp, s);
  }
  append_double(fp, r.worst_share_delta);
  append_u64(fp, r.faults_injected);
  append_u64(fp, r.faults_recovered);
  append_u64(fp, r.packets_lost_to_faults);
  append_u64(fp, static_cast<std::uint64_t>(r.worst_recovery));
  append_u64(fp, r.reconfigs_applied);
  append_u64(fp, r.reconfigs_committed);
  append_u64(fp, r.reconfigs_rolled_back);
  append_u64(fp, r.mixed_epoch_packets);
  append_u64(fp, static_cast<std::uint64_t>(r.share_reconvergence));
  return fp;
}

std::uint64_t corpus_digest(const std::vector<SeedOutcome>& outcomes) {
  // FNV-1a over each fingerprint plus a record separator, so moving bytes
  // across a seed boundary changes the digest.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto absorb = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
    h = (h ^ 0x1eU) * 0x100000001b3ULL;
  };
  for (const SeedOutcome& o : outcomes)
    absorb(o.crashed ? "crash|" + std::to_string(o.seed) + '|' + o.crash_what
                     : report_fingerprint(o.report));
  return h;
}

std::vector<SeedOutcome> run_corpus_with(
    const std::vector<std::uint64_t>& seeds,
    const std::function<CheckReport(std::uint64_t)>& body, unsigned jobs) {
  exp::ParallelRunner runner(jobs);
  auto outcomes = runner.map<CheckReport>(
      seeds.size(), [&](std::size_t i) { return body(seeds[i]); });
  std::vector<SeedOutcome> merged(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    merged[i].seed = seeds[i];
    if (outcomes[i].ok()) {
      merged[i].report = std::move(*outcomes[i].result);
    } else {
      merged[i].crashed = true;
      merged[i].crash_what = std::move(outcomes[i].failure->what);
    }
  }
  return merged;
}

std::vector<SeedOutcome> run_corpus(const std::vector<std::uint64_t>& seeds,
                                    const RunOptions& opts, unsigned jobs) {
  return run_corpus_with(
      seeds, [&opts](std::uint64_t seed) { return run_seed(seed, opts); },
      jobs);
}

std::string CheckReport::summary() const {
  std::ostringstream s;
  s << "seed 0x" << std::hex << seed << std::dec
    << (differential ? " [diff]" : "");
  if (backend != core::BackendKind::kFlowValve)
    s << " [" << core::backend_kind_name(backend) << "]";
  s << ": " << (ok() ? "OK" : "FAIL") << " ("
    << nic.submitted << " submitted, " << nic.forwarded_to_wire << " on wire, "
    << (nic.vf_ring_drops + nic.scheduler_drops + nic.tx_ring_drops +
        nic.reorder_flush_drops + nic.reorder_timeout_drops +
        nic.watchdog_drops + nic.admission_drops + nic.island_restart_drops)
    << " dropped, " << events << " events";
  if (differential) s << ", worst share delta " << worst_share_delta;
  if (faults_injected > 0)
    s << ", " << faults_injected << " faults / " << faults_recovered
      << " recovered / " << packets_lost_to_faults << " pkts lost";
  if (reconfigs_applied > 0)
    s << ", " << reconfigs_applied << " reconfigs / " << reconfigs_committed
      << " committed / " << reconfigs_rolled_back << " rolled back / "
      << mixed_epoch_packets << " mixed-epoch pkts";
  if (!ok()) s << ", " << violation_total << " violations";
  s << ")";
  return s.str();
}

}  // namespace flowvalve::check
