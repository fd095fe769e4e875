#include "obs/export.h"

#include <cstdio>
#include <fstream>

#include <unistd.h>

namespace flowvalve::obs {

void histogram_json(JsonWriter& w, const LogHistogram& h) {
  w.begin_object()
      .key("count").value(h.count())
      .key("min_ns").value(h.min())
      .key("max_ns").value(h.max())
      .key("mean_ns").value(h.mean())
      .key("p50_ns").value(h.p50())
      .key("p90_ns").value(h.p90())
      .key("p99_ns").value(h.p99())
      .key("p999_ns").value(h.p999())
      .end_object();
}

void latency_json(JsonWriter& w, const LatencyRecorder& r) {
  w.begin_object();
  w.key("recorded").value(r.recorded());
  w.key("segments").begin_object();
  for (std::size_t i = 0; i < kNumSegments; ++i) {
    const auto seg = static_cast<Segment>(i);
    w.key(segment_name(seg));
    histogram_json(w, r.segment(seg));
  }
  w.end_object();
  w.key("per_class_total").begin_object();
  for (const auto& [vf, hist] : r.per_class_total()) {
    w.key(std::to_string(vf));
    histogram_json(w, hist);
  }
  w.end_object();
  w.end_object();
}

namespace {

void class_window_json(JsonWriter& w, const ThroughputTracker::ClassWindow& c) {
  w.begin_object()
      .key("tx_bytes").value(c.tx_bytes)
      .key("tx_packets").value(c.tx_packets)
      .key("drops").value(c.drops)
      .key("borrows").value(c.borrows)
      .end_object();
}

}  // namespace

void throughput_json(JsonWriter& w, const ThroughputTracker& t) {
  w.begin_object();
  w.key("windows").begin_array();
  for (const auto& win : t.windows()) {
    w.begin_object()
        .key("start_ns").value(static_cast<std::int64_t>(win.start))
        .key("end_ns").value(static_cast<std::int64_t>(win.end));
    w.key("classes").begin_object();
    for (const auto& [vf, c] : win.classes) {
      w.key(std::to_string(vf));
      w.begin_object()
          .key("tx_bytes").value(c.tx_bytes)
          .key("tx_packets").value(c.tx_packets)
          .key("drops").value(c.drops)
          .key("borrows").value(c.borrows)
          .key("gbps").value(win.rate(vf).gbps())
          .end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("totals").begin_object();
  for (const auto& [vf, c] : t.totals()) {
    w.key(std::to_string(vf));
    class_window_json(w, c);
  }
  w.end_object();
  w.end_object();
}

void snapshot_json(JsonWriter& w, const CounterSnapshot& s) {
  w.begin_object();
  w.key("at_ns").value(static_cast<std::int64_t>(s.at));
  w.key("nic").begin_object()
      .key("submitted").value(s.nic.submitted)
      .key("vf_ring_drops").value(s.nic.vf_ring_drops)
      .key("scheduler_drops").value(s.nic.scheduler_drops)
      .key("tx_ring_drops").value(s.nic.tx_ring_drops)
      .key("reorder_flush_drops").value(s.nic.reorder_flush_drops)
      .key("forwarded_to_wire").value(s.nic.forwarded_to_wire)
      .key("wire_bytes").value(s.nic.wire_bytes)
      .key("worker_busy_ns").value(s.nic.worker_busy_ns)
      .key("processed").value(s.nic.processed)
      .key("processing_cycles").value(s.nic.processing_cycles)
      .key("reorder_flushes").value(s.nic.reorder_flushes)
      .key("reorder_occupancy_peak").value(s.nic.reorder_occupancy_peak)
      .key("watchdog_requeues").value(s.nic.watchdog_requeues)
      .key("watchdog_drops").value(s.nic.watchdog_drops)
      .key("reorder_timeout_flushes").value(s.nic.reorder_timeout_flushes)
      .key("reorder_timeout_drops").value(s.nic.reorder_timeout_drops)
      .key("admission_drops").value(s.nic.admission_drops)
      .key("workers_repaired").value(s.nic.workers_repaired)
      .key("island_restart_drops").value(s.nic.island_restart_drops)
      .key("islands_restarted").value(s.nic.islands_restarted)
      .end_object();
  if (s.have_sched) {
    w.key("sched").begin_object()
        .key("backend").value(core::backend_kind_name(s.backend))
        .key("forwarded").value(s.sched.forwarded)
        .key("dropped").value(s.sched.dropped)
        .key("borrowed").value(s.sched.borrowed)
        .key("updates").value(s.sched.updates)
        .key("lock_failures").value(s.sched.lock_failures)
        .key("policy_commits").value(s.sched.policy_commits)
        .key("rank_admissions").value(s.sched.rank_admissions)
        .key("rank_lead_drops").value(s.sched.rank_lead_drops)
        .key("rank_horizon_drops").value(s.sched.rank_horizon_drops)
        .key("calendar_rebases").value(s.sched.calendar_rebases)
        .end_object();
  }
  if (s.have_emc) {
    w.key("emc").begin_object()
        .key("health").value(core::health_name(s.emc_health))
        .key("size").value(s.emc_size)
        .key("capacity").value(s.emc_capacity)
        .key("hits").value(s.emc.hits)
        .key("misses").value(s.emc.misses)
        .key("hit_rate").value(s.emc.hit_rate())
        .key("insertions").value(s.emc.insertions)
        .key("evictions").value(s.emc.evictions)
        .key("stale_invalidations").value(s.emc.stale_invalidations)
        .key("idle_evictions").value(s.emc.idle_evictions)
        .key("kicks").value(s.emc.kicks)
        .key("kick_failures").value(s.emc.kick_failures)
        .key("corruption_detected").value(s.emc.corruption_detected)
        .key("suppressed_inserts").value(s.emc.suppressed_inserts)
        .key("degraded_transitions").value(s.emc.degraded_transitions)
        .key("degraded_dwell_lookups").value(s.emc.degraded_dwell_lookups)
        .key("recovering_dwell_lookups").value(s.emc.recovering_dwell_lookups);
    w.key("bucket_occupancy").begin_array();
    for (std::uint64_t n : s.emc_occupancy) w.value(n);
    w.end_array();
    w.end_object();
  }
  w.key("worker_utilization").value(s.worker_utilization);
  w.key("reorder_occupancy").value(s.reorder_occupancy);
  w.key("in_flight").value(s.in_flight);
  w.end_object();
}

void recovery_json(JsonWriter& w, const RecoveryTracker& t) {
  w.begin_object();
  w.key("injected").value(static_cast<std::uint64_t>(t.injected()));
  w.key("recovered").value(static_cast<std::uint64_t>(t.recovered()));
  w.key("total_packets_lost").value(t.total_packets_lost());
  w.key("worst_recovery_ns")
      .value(static_cast<std::int64_t>(t.worst_recovery_time()));
  w.key("faults").begin_array();
  for (const FaultRecord& r : t.records()) {
    w.begin_object()
        .key("kind").value(r.kind)
        .key("injected_at_ns").value(static_cast<std::int64_t>(r.injected_at))
        .key("cleared_at_ns").value(static_cast<std::int64_t>(r.cleared_at))
        .key("recovered_at_ns").value(static_cast<std::int64_t>(r.recovered_at))
        .key("recovery_ns").value(static_cast<std::int64_t>(r.recovery_time()))
        .key("packets_lost").value(r.packets_lost())
        .key("lost_watchdog").value(r.lost_watchdog)
        .key("lost_timeout").value(r.lost_timeout)
        .key("lost_admission").value(r.lost_admission)
        .key("lost_restart").value(r.lost_restart)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

void reconfig_json(JsonWriter& w, const ReconfigTracker& t) {
  w.begin_object();
  w.key("updates").value(static_cast<std::uint64_t>(t.records().size()));
  w.key("committed").value(t.committed());
  w.key("rolled_back").value(t.rolled_back());
  w.key("rejected").value(t.rejected());
  w.key("coalesced").value(t.coalesced());
  w.key("worst_swap_latency_ns")
      .value(static_cast<std::int64_t>(t.worst_swap_latency()));
  w.key("mixed_epoch_packets").value(t.total_mixed_epoch_packets());
  w.key("records").begin_array();
  for (const ReconfigRecord& r : t.records()) {
    w.begin_object()
        .key("target_epoch").value(r.target_epoch)
        .key("kind").value(r.kind)
        .key("submitted_at_ns").value(static_cast<std::int64_t>(r.submitted_at))
        .key("committed_at_ns").value(static_cast<std::int64_t>(r.committed_at))
        .key("rolled_back_at_ns").value(static_cast<std::int64_t>(r.rolled_back_at))
        .key("swap_latency_ns").value(static_cast<std::int64_t>(r.swap_latency()))
        .key("mixed_epoch_packets").value(r.mixed_epoch_packets)
        .key("cutover_workers").value(r.cutover_workers)
        .key("forced_cutovers").value(r.forced_cutovers)
        .key("stalled").value(r.stalled)
        .key("shed_engaged").value(r.shed_engaged)
        .key("outcome").value(r.outcome)
        .end_object();
  }
  w.end_array();
  w.end_object();
}

std::string metrics_to_json(const MetricsHub& hub) {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  snapshot_json(w, hub.snapshot());
  w.key("latency");
  latency_json(w, hub.latency());
  w.key("throughput");
  throughput_json(w, hub.throughput());
  if (hub.recovery()) {
    w.key("recovery");
    recovery_json(w, *hub.recovery());
  }
  w.end_object();
  return w.str();
}

bool write_json_file(const std::string& path, const std::string& json) {
  // Atomic publish: write a sibling temp file, then rename over the target.
  // A parallel or interrupted run can therefore never commit a truncated
  // BENCH_*.json — readers see either the old artifact or the complete new
  // one. The temp name is pid-qualified so two writers racing on the same
  // path cannot interleave inside one temp file either.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << json << "\n";
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace flowvalve::obs
