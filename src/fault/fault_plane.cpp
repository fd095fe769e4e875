#include "fault/fault_plane.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "ctrl/reconfig_manager.h"

namespace flowvalve::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWorkerStall: return "worker-stall";
    case FaultKind::kWorkerCrash: return "worker-crash";
    case FaultKind::kWireDip: return "wire-dip";
    case FaultKind::kTxBackpressure: return "tx-backpressure";
    case FaultKind::kReorderStall: return "reorder-stall";
    case FaultKind::kCacheStorm: return "cache-storm";
    case FaultKind::kCachePoison: return "cache-poison";
    case FaultKind::kHashCollisionStorm: return "hash-collision-storm";
    case FaultKind::kChurnStorm: return "churn-storm";
    case FaultKind::kLeakCommit: return "leak-commit";
    case FaultKind::kBypassReorder: return "bypass-reorder";
    case FaultKind::kTornUpdate: return "torn-update";
    case FaultKind::kStaleEpoch: return "stale-epoch";
    case FaultKind::kUpdateStorm: return "update-storm";
    case FaultKind::kIslandBlackout: return "island-blackout";
    case FaultKind::kFlappingWorker: return "flapping-worker";
    case FaultKind::kCtrlPartition: return "ctrl-partition";
  }
  return "unknown";
}

bool fault_kind_from_name(const std::string& name, FaultKind& out) {
  for (FaultKind k : kAllFaultKinds) {
    if (name == fault_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::string FaultEvent::describe() const {
  std::ostringstream s;
  s << fault_kind_name(kind) << " at=" << at << "ns dur=" << duration << "ns";
  switch (kind) {
    case FaultKind::kWorkerStall:
    case FaultKind::kWorkerCrash:
      s << " workers=[" << worker << "," << worker + worker_count << ")";
      break;
    case FaultKind::kWireDip:
    case FaultKind::kTxBackpressure:
    case FaultKind::kCachePoison:
      s << " magnitude=" << magnitude;
      break;
    case FaultKind::kCacheStorm:
      s << " period=" << period << "ns";
      break;
    case FaultKind::kHashCollisionStorm:
    case FaultKind::kChurnStorm:
      s << " magnitude=" << magnitude << " period=" << period << "ns";
      break;
    case FaultKind::kLeakCommit:
    case FaultKind::kBypassReorder:
      s << " every=" << (period > 0 ? period : 97);
      break;
    case FaultKind::kTornUpdate:
      s << " torn_fraction=" << magnitude;
      break;
    case FaultKind::kStaleEpoch:
      s << " worker=" << worker;
      break;
    case FaultKind::kUpdateStorm:
      s << " updates=" << (period > 0 ? period : 8);
      break;
    case FaultKind::kIslandBlackout:
      s << " island=" << worker;
      break;
    case FaultKind::kFlappingWorker:
      s << " workers=[" << worker << "," << worker + worker_count << ")"
        << " period=" << period << "ns";
      break;
    case FaultKind::kCtrlPartition:
      s << " workers=[" << worker << "," << worker + worker_count << ")";
      break;
    case FaultKind::kReorderStall:
      break;
  }
  return s.str();
}

std::string format_fault_event(const FaultEvent& ev) {
  char mag[64];
  std::snprintf(mag, sizeof(mag), "%.17g", ev.magnitude);
  std::ostringstream s;
  s << fault_kind_name(ev.kind) << '@' << ev.at << ',' << ev.duration << ','
    << ev.worker << ',' << ev.worker_count << ',' << mag << ',' << ev.period;
  return s.str();
}

bool parse_fault_event(const std::string& text, FaultEvent& out) {
  const std::size_t at_pos = text.find('@');
  if (at_pos == std::string::npos) return false;
  FaultEvent ev;
  if (!fault_kind_from_name(text.substr(0, at_pos), ev.kind)) return false;
  const char* p = text.c_str() + at_pos + 1;
  char* end = nullptr;
  auto comma = [&]() {
    if (*p != ',') return false;
    ++p;
    return true;
  };
  auto i64 = [&](auto& v) {
    v = static_cast<std::decay_t<decltype(v)>>(std::strtoll(p, &end, 10));
    if (end == p) return false;
    p = end;
    return true;
  };
  auto u32 = [&](unsigned& v) {
    const unsigned long raw = std::strtoul(p, &end, 10);
    if (end == p) return false;
    v = static_cast<unsigned>(raw);
    p = end;
    return true;
  };
  if (!i64(ev.at) || !comma() || !i64(ev.duration) || !comma() ||
      !u32(ev.worker) || !comma() || !u32(ev.worker_count) || !comma())
    return false;
  ev.magnitude = std::strtod(p, &end);
  if (end == p) return false;
  p = end;
  if (!comma() || !i64(ev.period)) return false;
  if (*p != '\0') return false;
  out = ev;
  return true;
}

std::string describe_schedule(const FaultSchedule& schedule) {
  std::ostringstream s;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i) s << "; ";
    s << schedule[i].describe();
  }
  return s.str();
}

namespace {

/// Kinds whose clearing is a restore of shared state — a zero duration
/// would leave the pipeline degraded forever and the run could never
/// drain, so these get a floor instead of "permanent".
bool needs_duration_floor(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWireDip:
    case FaultKind::kTxBackpressure:
    case FaultKind::kReorderStall:
    case FaultKind::kCacheStorm:
    case FaultKind::kHashCollisionStorm:
    case FaultKind::kChurnStorm:
    // Control-plane faults are latched/sticky on the reconfiguration
    // manager: the floor guarantees a clear() runs to un-latch them and
    // start the recovery probe that closes the FaultRecord.
    case FaultKind::kTornUpdate:
    case FaultKind::kStaleEpoch:
    case FaultKind::kUpdateStorm:
    // A blackout that never restarts (or a partition/flap that never heals)
    // leaves an island dead and, for the blackout, its restart path never
    // exercised — the clearing IS the recovery under test.
    case FaultKind::kIslandBlackout:
    case FaultKind::kFlappingWorker:
    case FaultKind::kCtrlPartition:
      return true;
    default:
      return false;
  }
}

}  // namespace

FaultSchedule single_fault(FaultKind kind, sim::SimTime at,
                           sim::SimDuration duration, const np::NpConfig& cfg) {
  FaultEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.duration = duration;
  switch (kind) {
    case FaultKind::kWorkerStall:
    case FaultKind::kWorkerCrash:
      ev.worker = 0;
      ev.worker_count = std::max(1u, cfg.num_workers / 4);
      break;
    case FaultKind::kWireDip: ev.magnitude = 0.25; break;
    case FaultKind::kTxBackpressure: ev.magnitude = 0.10; break;
    case FaultKind::kCachePoison: ev.magnitude = 0.50; break;
    case FaultKind::kCacheStorm: ev.period = duration / 8; break;
    case FaultKind::kHashCollisionStorm:
      ev.magnitude = 1.0;
      ev.period = duration / 8;
      break;
    case FaultKind::kChurnStorm:
      ev.magnitude = 0.25;
      ev.period = duration / 8;
      break;
    case FaultKind::kReorderStall: break;
    case FaultKind::kLeakCommit:
    case FaultKind::kBypassReorder:
      ev.period = 97;
      break;
    case FaultKind::kTornUpdate: ev.magnitude = 0.5; break;
    case FaultKind::kStaleEpoch:
      ev.worker = 0;
      ev.worker_count = 1;
      break;
    case FaultKind::kUpdateStorm: ev.period = 8; break;
    case FaultKind::kIslandBlackout:
      ev.worker = 0;  // island index
      break;
    case FaultKind::kFlappingWorker: {
      const auto range = cfg.island_range(0);
      ev.worker = range.first;
      ev.worker_count = range.second - range.first;
      ev.period = duration / 6;
      break;
    }
    case FaultKind::kCtrlPartition: {
      const auto range = cfg.island_range(0);
      ev.worker = range.first;
      ev.worker_count = range.second - range.first;
      break;
    }
  }
  return {ev};
}

FaultSchedule generate_fault_schedule(std::uint64_t seed,
                                      sim::SimDuration horizon,
                                      const np::NpConfig& cfg) {
  sim::Rng rng = sim::Rng(seed).split("fault-schedule");
  // Distinct kinds per schedule: it also guarantees same-kind faults never
  // overlap, so each clearing restores exactly the state its injection
  // changed. Leak/bypass are deliberate accounting bugs, not survivable
  // faults — a chaos run must stay checker-clean, so they are excluded.
  std::vector<FaultKind> pool = {
      FaultKind::kWorkerStall,  FaultKind::kWorkerCrash,
      FaultKind::kWireDip,      FaultKind::kTxBackpressure,
      FaultKind::kReorderStall, FaultKind::kCacheStorm,
      FaultKind::kCachePoison,  FaultKind::kHashCollisionStorm,
      FaultKind::kChurnStorm,
  };
  const std::size_t n = 1 + rng.next_below(4);
  FaultSchedule out;
  for (std::size_t i = 0; i < n && !pool.empty(); ++i) {
    const std::size_t pick = rng.next_below(pool.size());
    const FaultKind kind = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));

    FaultEvent ev;
    ev.kind = kind;
    ev.at = static_cast<sim::SimTime>(static_cast<double>(horizon) *
                                      rng.uniform(0.2, 0.6));
    ev.duration = static_cast<sim::SimDuration>(static_cast<double>(horizon) *
                                                rng.uniform(0.05, 0.2));
    // Everything must clear by 0.9 × horizon so the run drains and the
    // shares have a window to re-converge in.
    const sim::SimTime latest_clear =
        static_cast<sim::SimTime>(static_cast<double>(horizon) * 0.9);
    if (ev.at + ev.duration > latest_clear)
      ev.duration = std::max<sim::SimDuration>(latest_clear - ev.at,
                                               sim::microseconds(200));
    switch (kind) {
      case FaultKind::kWorkerStall:
      case FaultKind::kWorkerCrash: {
        const unsigned span = std::max(1u, cfg.num_workers / 4);
        ev.worker_count = 1 + static_cast<unsigned>(rng.next_below(span));
        ev.worker = static_cast<unsigned>(
            rng.next_below(std::max(1u, cfg.num_workers - ev.worker_count + 1)));
        break;
      }
      case FaultKind::kWireDip: ev.magnitude = rng.uniform(0.0, 0.5); break;
      case FaultKind::kTxBackpressure:
        ev.magnitude = rng.uniform(0.05, 0.3);
        break;
      case FaultKind::kCachePoison:
        ev.magnitude = rng.uniform(0.25, 0.75);
        break;
      case FaultKind::kCacheStorm:
        ev.period = ev.duration / (4 + rng.next_below(8));
        break;
      case FaultKind::kHashCollisionStorm:
        ev.magnitude = rng.uniform(0.5, 2.0);
        ev.period = ev.duration / (4 + rng.next_below(8));
        break;
      case FaultKind::kChurnStorm:
        ev.magnitude = rng.uniform(0.1, 0.5);
        ev.period = ev.duration / (4 + rng.next_below(8));
        break;
      case FaultKind::kReorderStall:
      case FaultKind::kLeakCommit:
      case FaultKind::kBypassReorder:
      case FaultKind::kTornUpdate:
      case FaultKind::kStaleEpoch:
      case FaultKind::kUpdateStorm:
      case FaultKind::kIslandBlackout:
      case FaultKind::kFlappingWorker:
      case FaultKind::kCtrlPartition:
        break;
    }
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return out;
}

FaultSchedule generate_campaign_schedule(std::uint64_t seed,
                                         sim::SimDuration horizon,
                                         const np::NpConfig& cfg) {
  sim::Rng rng = sim::Rng(seed).split("fault-campaign");
  // Episodes deliberately OVERLAP (at-windows interleave), unlike the
  // single-fault chaos generator. Independence comes from the failure-
  // domain geometry instead: every worker-scoped episode owns a distinct
  // island, so each clearing restores exactly the workers its injection
  // took, and global kinds are drawn at most once each.
  const unsigned n_islands = cfg.effective_islands();
  std::vector<unsigned> islands;
  for (unsigned i = 0; i < n_islands; ++i) islands.push_back(i);
  std::vector<FaultKind> worker_pool = {
      FaultKind::kIslandBlackout, FaultKind::kFlappingWorker,
      FaultKind::kWorkerStall,    FaultKind::kWorkerCrash,
      FaultKind::kCtrlPartition,
  };
  std::vector<FaultKind> global_pool = {
      FaultKind::kWireDip,     FaultKind::kTxBackpressure,
      FaultKind::kReorderStall, FaultKind::kCacheStorm,
      FaultKind::kCachePoison, FaultKind::kHashCollisionStorm,
      FaultKind::kChurnStorm,
  };
  const std::size_t n = 2 + rng.next_below(4);  // 2–5 overlapping episodes
  const sim::SimTime latest_clear =
      static_cast<sim::SimTime>(static_cast<double>(horizon) * 0.9);
  FaultSchedule out;
  for (std::size_t i = 0; i < n; ++i) {
    // The first episode is always worker-scoped, so every campaign
    // exercises at least one correlated failure-domain fault.
    const bool pick_worker =
        !worker_pool.empty() && !islands.empty() &&
        (i == 0 || global_pool.empty() || rng.next_below(2) == 0);
    if (!pick_worker && global_pool.empty()) break;

    FaultEvent ev;
    ev.at = static_cast<sim::SimTime>(static_cast<double>(horizon) *
                                      rng.uniform(0.15, 0.55));
    ev.duration = static_cast<sim::SimDuration>(static_cast<double>(horizon) *
                                                rng.uniform(0.08, 0.25));
    if (ev.at + ev.duration > latest_clear)
      ev.duration = std::max<sim::SimDuration>(latest_clear - ev.at,
                                               sim::microseconds(200));
    if (pick_worker) {
      std::size_t pick = rng.next_below(worker_pool.size());
      ev.kind = worker_pool[pick];
      worker_pool.erase(worker_pool.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      pick = rng.next_below(islands.size());
      const unsigned island = islands[pick];
      islands.erase(islands.begin() + static_cast<std::ptrdiff_t>(pick));
      const auto range = cfg.island_range(island);
      const unsigned size = range.second - range.first;
      switch (ev.kind) {
        case FaultKind::kIslandBlackout:
          ev.worker = island;  // island index, not a worker id
          break;
        case FaultKind::kFlappingWorker:
          ev.worker = range.first;
          ev.worker_count = 1 + static_cast<unsigned>(rng.next_below(size));
          // 3–6 full crash/heal cycles across the episode.
          ev.period = ev.duration /
                      static_cast<sim::SimDuration>(3 + rng.next_below(4));
          break;
        case FaultKind::kCtrlPartition:
          ev.worker = range.first;
          ev.worker_count = size;  // the whole island loses the ctrl plane
          break;
        case FaultKind::kWorkerStall:
        case FaultKind::kWorkerCrash:
          ev.worker_count = 1 + static_cast<unsigned>(rng.next_below(size));
          ev.worker = range.first + static_cast<unsigned>(rng.next_below(
                                        size - ev.worker_count + 1));
          break;
        default:
          break;
      }
    } else {
      const std::size_t pick = rng.next_below(global_pool.size());
      ev.kind = global_pool[pick];
      global_pool.erase(global_pool.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      switch (ev.kind) {
        case FaultKind::kWireDip: ev.magnitude = rng.uniform(0.1, 0.5); break;
        case FaultKind::kTxBackpressure:
          ev.magnitude = rng.uniform(0.05, 0.3);
          break;
        case FaultKind::kCachePoison:
          ev.magnitude = rng.uniform(0.25, 0.75);
          break;
        case FaultKind::kCacheStorm:
          ev.period = ev.duration / (4 + rng.next_below(8));
          break;
        case FaultKind::kHashCollisionStorm:
          ev.magnitude = rng.uniform(0.5, 2.0);
          ev.period = ev.duration / (4 + rng.next_below(8));
          break;
        case FaultKind::kChurnStorm:
          ev.magnitude = rng.uniform(0.1, 0.5);
          ev.period = ev.duration / (4 + rng.next_below(8));
          break;
        default:
          break;
      }
    }
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return out;
}

// --- FaultPlane ------------------------------------------------------------

FaultPlane::FaultPlane(sim::Simulator& sim, np::NicPipeline& pipeline,
                       core::FlowValveEngine* engine,
                       obs::RecoveryTracker* tracker)
    : sim_(sim), pipeline_(pipeline), engine_(engine), tracker_(tracker) {}

sim::SimDuration FaultPlane::probe_interval() const {
  return std::max(kMinProbePeriod, pipeline_.watchdog_scan_period());
}

FaultPlane::Counters FaultPlane::read_counters() const {
  const auto& s = pipeline_.stats();
  return Counters{s.watchdog_drops, s.reorder_timeout_drops,
                  s.admission_drops, s.island_restart_drops};
}

void FaultPlane::arm(const FaultSchedule& schedule) {
  const np::NpConfig& cfg = pipeline_.config();
  const unsigned workers = cfg.num_workers;
  for (const FaultEvent& src : schedule) {
    auto holder = std::make_unique<ActiveFault>();
    ActiveFault* f = holder.get();
    f->ev = src;
    if (f->ev.duration <= 0 && needs_duration_floor(f->ev.kind))
      f->ev.duration = sim::milliseconds(1);
    if (f->ev.kind == FaultKind::kWorkerStall ||
        f->ev.kind == FaultKind::kWorkerCrash ||
        f->ev.kind == FaultKind::kFlappingWorker ||
        f->ev.kind == FaultKind::kCtrlPartition) {
      f->ev.worker = std::min(f->ev.worker, workers - 1);
      f->ev.worker_count =
          std::min(f->ev.worker_count, workers - f->ev.worker);
      // A permanent fault must leave at least one micro-engine alive or
      // nothing could ever drain the rings.
      if (f->ev.duration <= 0 && f->ev.worker_count >= workers)
        f->ev.worker_count = workers - 1;
      if (f->ev.worker_count == 0) continue;
    }
    if (f->ev.kind == FaultKind::kIslandBlackout)
      f->ev.worker = std::min(f->ev.worker, cfg.effective_islands() - 1);
    active_.push_back(std::move(holder));
    sim_.schedule_at(std::max<sim::SimTime>(f->ev.at, 0),
                     [this, f] { inject(*f); });
    if (f->ev.duration > 0) {
      const sim::SimTime clear_at =
          std::max<sim::SimTime>(f->ev.at, 0) + f->ev.duration;
      last_scheduled_clear_ = std::max(last_scheduled_clear_, clear_at);
      sim_.schedule_at(clear_at, [this, f] { clear(*f); });
    }
  }
}

void FaultPlane::inject(ActiveFault& f) {
  f.rec.kind = fault_kind_name(f.ev.kind);
  f.rec.injected_at = sim_.now();
  f.at_inject = read_counters();
  const FaultEvent& ev = f.ev;
  switch (ev.kind) {
    case FaultKind::kWorkerStall:
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w) {
        // A zero-duration stall never resumes: model it as a crash.
        if (ev.duration > 0)
          pipeline_.fault_stall_worker(w, ev.duration);
        else
          pipeline_.fault_crash_worker(w);
      }
      break;
    case FaultKind::kWorkerCrash:
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.fault_crash_worker(w);
      break;
    case FaultKind::kWireDip:
      pipeline_.fault_set_wire_factor(std::clamp(ev.magnitude, 0.0, 1.0));
      break;
    case FaultKind::kTxBackpressure: {
      const auto cap = static_cast<std::size_t>(
          static_cast<double>(pipeline_.config().tx_ring_capacity) *
              std::clamp(ev.magnitude, 0.0, 1.0) +
          0.5);
      pipeline_.fault_set_tx_capacity(std::max<std::size_t>(1, cap));
      break;
    }
    case FaultKind::kReorderStall:
      pipeline_.fault_freeze_reorder(true);
      break;
    case FaultKind::kCacheStorm:
    case FaultKind::kHashCollisionStorm:
    case FaultKind::kChurnStorm: {
      if (!engine_) break;
      storm_action(f, 0);
      sim::SimDuration period = ev.period > 0 ? ev.period : ev.duration / 8;
      period = std::max<sim::SimDuration>(period, sim::microseconds(10));
      storm_tick(&f, sim_.now() + ev.duration, period, 1);
      break;
    }
    case FaultKind::kCachePoison: {
      if (!engine_) break;
      const double fraction = std::clamp(ev.magnitude, 0.01, 1.0);
      const auto stride = static_cast<std::size_t>(
          std::max(1.0, std::round(1.0 / fraction)));
      const auto label_count = static_cast<net::ClassLabelId>(
          engine_->frontend().labels().size());
      engine_->classifier().cache_for_fault().poison(stride, label_count);
      break;
    }
    case FaultKind::kLeakCommit: {
      np::InjectedFaults inj = pipeline_.injected_faults();
      inj.leak_commit_every = ev.period > 0 ? ev.period : 97;
      pipeline_.set_injected_faults(inj);
      break;
    }
    case FaultKind::kBypassReorder: {
      np::InjectedFaults inj = pipeline_.injected_faults();
      inj.bypass_reorder_every = ev.period > 0 ? ev.period : 97;
      pipeline_.set_injected_faults(inj);
      break;
    }
    case FaultKind::kTornUpdate: {
      if (!reconfig_) break;
      const double fraction = std::clamp(ev.magnitude, 0.01, 1.0);
      const auto stride =
          static_cast<unsigned>(std::max(1.0, std::round(1.0 / fraction)));
      reconfig_->fault_tear_update(stride);
      break;
    }
    case FaultKind::kStaleEpoch:
      if (reconfig_) reconfig_->fault_stale_worker(ev.worker);
      break;
    case FaultKind::kUpdateStorm:
      if (reconfig_)
        reconfig_->storm(ev.period > 0 ? static_cast<unsigned>(ev.period) : 8u);
      break;
    case FaultKind::kIslandBlackout:
      // Snapshot the scheduler/meter runtime BEFORE the crash wipes the
      // island: the restart reconstructs from this, not from whatever the
      // dead workers left mid-update (DESIGN.md §16).
      if (engine_) {
        f.tree_snapshot = engine_->tree().snapshot_runtime();
        f.has_snapshot = true;
      }
      pipeline_.fault_blackout_island(ev.worker);
      break;
    case FaultKind::kFlappingWorker: {
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.fault_crash_worker(w);
      f.flap_down = true;
      sim::SimDuration half =
          (ev.period > 0 ? ev.period : ev.duration / 6) / 2;
      half = std::max<sim::SimDuration>(half, sim::microseconds(20));
      flap_tick(&f, sim_.now() + ev.duration, half);
      break;
    }
    case FaultKind::kCtrlPartition:
      // Each partitioned worker stops acking epoch cutovers; any rollout
      // including one of them stalls at the ack wave and must take the
      // probation/rollback path. No-op without a control plane to lose.
      if (reconfig_)
        for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
          reconfig_->fault_stale_worker(w);
      break;
  }
}

void FaultPlane::flap_tick(ActiveFault* f, sim::SimTime end,
                           sim::SimDuration half) {
  const sim::SimTime next = sim_.now() + half;
  if (next >= end) return;  // clear() performs the final repair
  sim_.schedule_at(next, [this, f, end, half] {
    const FaultEvent& ev = f->ev;
    if (f->flap_down) {
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.repair_worker(w);
    } else {
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.fault_crash_worker(w);
    }
    f->flap_down = !f->flap_down;
    flap_tick(f, end, half);
  });
}

void FaultPlane::storm_action(ActiveFault& f, std::uint64_t tick) {
  if (!engine_) return;
  auto& cache = engine_->classifier().cache_for_fault();
  const auto now_tick = static_cast<std::uint64_t>(sim_.now());
  switch (f.ev.kind) {
    case FaultKind::kCacheStorm:
      cache.invalidate_all();
      break;
    case FaultKind::kHashCollisionStorm: {
      // Same seed every tick: the attack hammers one bucket pair with one
      // stable adversarial key set for the fault's whole lifetime. Resident
      // keys refresh; the overflow keys fail their kick search again each
      // wave, keeping the pressure score up while the storm lasts.
      const std::uint64_t seed =
          0x9e3779b97f4a7c15ULL *
          (static_cast<std::uint64_t>(f.ev.at) + 0x1dULL);
      const double m = f.ev.magnitude > 0.0 ? f.ev.magnitude : 1.0;
      const auto n = static_cast<std::size_t>(std::clamp(m, 0.25, 4.0) * 64.0);
      cache.fault_collision_storm(seed, n, now_tick);
      break;
    }
    case FaultKind::kChurnStorm: {
      // Fresh keys every tick: an arrival-rate spike of short-lived flows.
      const std::uint64_t seed =
          0x9e3779b97f4a7c15ULL *
          (static_cast<std::uint64_t>(f.ev.at) + tick + 0x2eULL);
      const double m =
          std::clamp(f.ev.magnitude > 0.0 ? f.ev.magnitude : 0.25, 0.01, 1.0);
      const auto n = std::max<std::size_t>(
          64, static_cast<std::size_t>(
                  static_cast<double>(cache.capacity()) * m / 8.0));
      cache.fault_churn_storm(seed, n, now_tick);
      break;
    }
    default:
      break;
  }
}

void FaultPlane::storm_tick(ActiveFault* f, sim::SimTime end,
                            sim::SimDuration period, std::uint64_t tick) {
  const sim::SimTime next = sim_.now() + period;
  if (next >= end) return;
  sim_.schedule_at(next, [this, f, end, period, tick] {
    storm_action(*f, tick);
    storm_tick(f, end, period, tick + 1);
  });
}

void FaultPlane::clear(ActiveFault& f) {
  f.rec.cleared_at = sim_.now();
  const FaultEvent& ev = f.ev;
  switch (ev.kind) {
    case FaultKind::kWorkerStall:
    case FaultKind::kWorkerCrash:
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.repair_worker(w);
      break;
    case FaultKind::kWireDip:
      pipeline_.fault_set_wire_factor(1.0);
      break;
    case FaultKind::kTxBackpressure:
      pipeline_.fault_set_tx_capacity(0);
      break;
    case FaultKind::kReorderStall:
      pipeline_.fault_freeze_reorder(false);
      break;
    case FaultKind::kCacheStorm:
    case FaultKind::kHashCollisionStorm:
    case FaultKind::kChurnStorm:
      // The storm chains stop on their own at `end`. No flush: degraded-
      // mode hysteresis must re-admit gradually on its own (DESIGN.md §14);
      // leftover synthetic entries age out under normal pressure.
      break;
    case FaultKind::kCachePoison:
      // Flush the corrupted entries so correct labels repopulate.
      if (engine_) engine_->classifier().cache_for_fault().invalidate_all();
      break;
    case FaultKind::kLeakCommit: {
      np::InjectedFaults inj = pipeline_.injected_faults();
      inj.leak_commit_every = 0;
      pipeline_.set_injected_faults(inj);
      break;
    }
    case FaultKind::kBypassReorder: {
      np::InjectedFaults inj = pipeline_.injected_faults();
      inj.bypass_reorder_every = 0;
      pipeline_.set_injected_faults(inj);
      break;
    }
    case FaultKind::kTornUpdate:
      if (reconfig_) reconfig_->clear_tear_fault();
      break;
    case FaultKind::kStaleEpoch:
      if (reconfig_) reconfig_->repair_stale_workers();
      break;
    case FaultKind::kUpdateStorm:
      break;  // the storm is instantaneous; nothing to un-latch
    case FaultKind::kIslandBlackout:
      // Crash-recovery restart: reconstruct scheduler/meter runtime from
      // the injection-time snapshot (buckets conservatively drained, Γ and
      // activity restored, θ/lendable re-derived by the refresh_theta
      // sweep), flush the EMC so labels re-warm lazily through the honest
      // rule-walk fallback, then re-admit the island's workers — under
      // admission probation when configured.
      if (engine_) {
        if (f.has_snapshot)
          engine_->tree().restore_runtime(f.tree_snapshot, sim_.now());
        engine_->classifier().cache_for_fault().invalidate_all();
      }
      pipeline_.restart_island(ev.worker);
      break;
    case FaultKind::kFlappingWorker:
      // The oscillator chain stopped before `end`; whatever half-cycle it
      // parked in, the final repair is idempotent per worker.
      for (unsigned w = ev.worker; w < ev.worker + ev.worker_count; ++w)
        pipeline_.repair_worker(w);
      break;
    case FaultKind::kCtrlPartition:
      if (reconfig_) reconfig_->repair_stale_workers();
      break;
  }
  f.at_last_probe = read_counters();
  ActiveFault* fp = &f;
  sim_.schedule_after(probe_interval(), [this, fp] { probe(*fp); });
}

void FaultPlane::probe(ActiveFault& f) {
  if (f.closed) return;
  const Counters now_c = read_counters();
  const bool quiescent = now_c.watchdog_drops == f.at_last_probe.watchdog_drops &&
                         now_c.timeout_drops == f.at_last_probe.timeout_drops &&
                         now_c.admission_drops == f.at_last_probe.admission_drops &&
                         now_c.restart_drops == f.at_last_probe.restart_drops;
  const bool cache_healthy =
      engine_ == nullptr ||
      engine_->classifier().cache().health() ==
          core::ExactMatchFlowCache::Health::kHealthy;
  if (quiescent && cache_healthy && pipeline_.hung_workers() == 0 &&
      pipeline_.retry_backlog() == 0 && (!reconfig_ || !reconfig_->busy())) {
    close(f, sim_.now());
    return;
  }
  f.at_last_probe = now_c;
  // In a compound campaign this fault's probe window can overlap other
  // still-active faults, during which health is unreachable through no
  // fault of this episode's recovery — so the give-up clock anchors at the
  // campaign's LAST scheduled clearing, not this fault's own.
  const sim::SimTime quiet_at =
      std::max(f.rec.cleared_at, last_scheduled_clear_);
  if (sim_.now() - quiet_at >= kProbeDeadline) {
    close(f, -1);  // the pipeline never probed healthy: recorded as such
    return;
  }
  ActiveFault* fp = &f;
  sim_.schedule_after(probe_interval(), [this, fp] { probe(*fp); });
}

void FaultPlane::close(ActiveFault& f, sim::SimTime recovered_at) {
  f.rec.recovered_at = recovered_at;
  const Counters now_c = read_counters();
  f.rec.lost_watchdog = now_c.watchdog_drops - f.at_inject.watchdog_drops;
  f.rec.lost_timeout = now_c.timeout_drops - f.at_inject.timeout_drops;
  f.rec.lost_admission = now_c.admission_drops - f.at_inject.admission_drops;
  f.rec.lost_restart = now_c.restart_drops - f.at_inject.restart_drops;
  f.closed = true;
  if (tracker_) tracker_->record(f.rec);
}

void FaultPlane::finalize() {
  for (auto& f : active_)
    if (!f->closed) close(*f, -1);
}

}  // namespace flowvalve::fault
