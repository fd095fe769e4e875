// Tier-1 coverage for the fault plane + self-healing pipeline (ISSUE 3):
// every survivable fault kind, injected at its default intensity into a
// saturated differential scenario, must (a) let the simulation drain to
// quiescence (the run returning at all is the no-deadlock assertion — a
// wedged pipeline would spin run_all() forever or trip the conservation
// checker at drain), (b) keep every invariant checker clean, including the
// post-clear share re-convergence window, and (c) be observed as recovered
// by the fault plane's health probe within its bounded deadline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/runner.h"
#include "fault/fault.h"
#include "fault/fault_plane.h"
#include "np/nic_pipeline.h"
#include "sim/simulator.h"

namespace flowvalve::check {
namespace {

net::Packet packet_on(std::uint16_t vf, std::uint64_t id) {
  net::Packet p;
  p.id = id;
  p.vf_port = vf;
  p.flow_id = vf;
  p.wire_bytes = 1518;
  return p;
}

/// Worker-bound pipeline: 2 slow workers (~100 µs per packet: the fixed
/// per-packet cycles at a slowed clock) on a fast wire, so a crashed worker
/// is guaranteed to be holding a packet.
np::NpConfig slow_worker_config() {
  np::NpConfig cfg;
  cfg.num_vfs = 1;
  cfg.num_workers = 2;
  cfg.freq_ghz = (np::kBaseRxCycles + np::kBaseTxCycles) / 100'000.0;
  return cfg;
}

std::string first_violation(const CheckReport& r) {
  return r.violations.empty() ? std::string("(none stored)")
                              : r.violations.front().to_string();
}

/// One fault of `kind` dropped into the middle of a saturated differential
/// scenario: inject at 40% of the horizon, clear at 60%, leaving the last
/// 40% for recovery + the share re-convergence window.
CheckReport run_single_fault(fault::FaultKind kind, std::uint64_t seed,
                             bool force_reorder = false) {
  FuzzScenario sc = generate_differential_scenario(seed);
  if (force_reorder) sc.nic.enforce_reorder = true;
  sc.nic.recovery.admission_enabled = true;
  RunOptions opts;
  opts.differential = true;  // arms the share re-convergence checker
  opts.faults = fault::single_fault(kind, sc.horizon * 2 / 5, sc.horizon / 5,
                                    sc.nic);
  return run_scenario(sc, opts);
}

class FaultRecovery : public ::testing::TestWithParam<fault::FaultKind> {};

TEST_P(FaultRecovery, SurvivesCleanlyAndReconverges) {
  const CheckReport report = run_single_fault(GetParam(), 1);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n" << first_violation(report);
  ASSERT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.faults_recovered, 1u)
      << "pipeline never probed healthy after "
      << fault::fault_kind_name(GetParam());
  EXPECT_GT(report.nic.forwarded_to_wire, 0u);
  EXPECT_EQ(report.delivered, report.nic.forwarded_to_wire);
}

INSTANTIATE_TEST_SUITE_P(
    AllSurvivableKinds, FaultRecovery,
    ::testing::Values(fault::FaultKind::kWorkerStall,
                      fault::FaultKind::kWorkerCrash,
                      fault::FaultKind::kWireDip,
                      fault::FaultKind::kTxBackpressure,
                      fault::FaultKind::kReorderStall,
                      fault::FaultKind::kCacheStorm,
                      fault::FaultKind::kCachePoison,
                      fault::FaultKind::kHashCollisionStorm,
                      fault::FaultKind::kChurnStorm,
                      fault::FaultKind::kIslandBlackout,
                      fault::FaultKind::kFlappingWorker,
                      fault::FaultKind::kCtrlPartition),
    [](const ::testing::TestParamInfo<fault::FaultKind>& info) {
      std::string name = fault::fault_kind_name(info.param);
      for (char& c : name)
        if (c == '-') c = '_';  // gtest param names must be alphanumeric
      return name;
    });

TEST(FaultRecovery, WatchdogSalvagesCrashedWorkersPackets) {
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.recovery.watchdog_budget = sim::microseconds(400);
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  int delivered = 0, dropped = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });
  for (std::uint64_t i = 0; i < 8; ++i) pipe.submit(packet_on(0, i));
  // Both workers picked up a packet at t=0; kill worker 0 mid-execution.
  // The watchdog must salvage its packet onto the healthy worker, and the
  // repair must bring the dead micro-engine back with nothing lost.
  sim.schedule_at(sim::microseconds(10), [&] { pipe.fault_crash_worker(0); });
  sim.schedule_at(sim::milliseconds(5), [&] { pipe.repair_worker(0); });
  sim.run_all();
  EXPECT_GE(pipe.stats().watchdog_requeues, 1u);
  EXPECT_EQ(pipe.stats().workers_repaired, 1u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.hung_workers(), 0u);
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(dropped, 0);
}

TEST(FaultRecovery, ReorderTimeoutUnwedgesTheWindow) {
  // A crash with reorder enforcement on leaves a head-of-line hole parked
  // behind the dead worker's sequence number. With the watchdog budget too
  // generous to salvage in time, the bounded window timeout must declare
  // the hole lost and flush past it instead of wedging the Tx path.
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.enforce_reorder = true;
  cfg.recovery.watchdog_budget = sim::milliseconds(2);
  cfg.recovery.reorder_timeout = sim::microseconds(300);
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  int delivered = 0, dropped = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });
  for (std::uint64_t i = 0; i < 8; ++i) pipe.submit(packet_on(0, i));
  sim.schedule_at(sim::microseconds(10), [&] { pipe.fault_crash_worker(0); });
  sim.schedule_at(sim::milliseconds(5), [&] { pipe.repair_worker(0); });
  sim.run_all();
  EXPECT_GE(pipe.stats().reorder_timeout_flushes, 1u);
  EXPECT_GE(pipe.stats().reorder_timeout_drops, 1u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.hung_workers(), 0u);
  // The crashed worker's packet is the only loss; everything parked behind
  // the hole must have been released and delivered.
  EXPECT_EQ(delivered + dropped, 8);
  EXPECT_GE(delivered, 7);
}

/// 4 slow workers in 2 islands: blackout must drop the doomed in-flight
/// work of exactly its own island, and restart must bring every frozen
/// worker back with conservation intact. Every packet is submitted before
/// the restart, so the restart's admission probation has nothing to shed.
TEST(FaultRecovery, IslandBlackoutDropsInFlightAndRestartsCleanly) {
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.num_workers = 4;
  cfg.num_islands = 2;
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  int delivered = 0, dropped = 0;
  pipe.set_on_delivered([&](const net::Packet&) { ++delivered; });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });
  for (std::uint64_t i = 0; i < 12; ++i) pipe.submit(packet_on(0, i));
  // All four workers are busy at t=10µs; island 0 = workers {0,1}.
  sim.schedule_at(sim::microseconds(10),
                  [&] { pipe.fault_blackout_island(0); });
  sim.schedule_at(sim::milliseconds(5), [&] { pipe.restart_island(0); });
  sim.run_all();
  EXPECT_EQ(pipe.stats().island_restart_drops, 2u);  // one per island-0 worker
  EXPECT_EQ(pipe.stats().islands_restarted, 1u);
  EXPECT_EQ(pipe.stats().workers_repaired, 2u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.hung_workers(), 0u);
  EXPECT_EQ(pipe.stats().admission_drops, 0u);
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(dropped, 2);
}

constexpr sim::SimTime kRestartAt = sim::microseconds(100);
constexpr sim::SimTime kProbationEnd =
    kRestartAt + np::NicPipeline::kRestartProbation;

TEST(FaultRecovery, IslandRestartProbationEngagesAndAutoReleases) {
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.num_workers = 4;
  cfg.num_islands = 2;
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  sim.schedule_at(sim::microseconds(10),
                  [&] { pipe.fault_blackout_island(0); });
  sim.schedule_at(kRestartAt, [&] { pipe.restart_island(0); });
  // Mid-probation the valve is held by the restart, not a reconfig swap.
  sim.schedule_at((kRestartAt + kProbationEnd) / 2, [&] {
    EXPECT_TRUE(pipe.admission_forced());
    EXPECT_TRUE(pipe.restart_probation_active());
  });
  // Probation self-releases kRestartProbation after the restart.
  sim.schedule_at(kProbationEnd + sim::microseconds(100), [&] {
    EXPECT_FALSE(pipe.admission_forced());
    EXPECT_FALSE(pipe.restart_probation_active());
  });
  sim.run_all();
}

/// A reconfig taking the admission valve mid-probation must supersede the
/// probation cleanly: the timed release becomes a no-op instead of yanking
/// the valve out from under the control plane.
TEST(FaultRecovery, ControlPlaneSupersedesRestartProbation) {
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.num_workers = 4;
  cfg.num_islands = 2;
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  sim.schedule_at(sim::microseconds(10),
                  [&] { pipe.fault_blackout_island(0); });
  sim.schedule_at(kRestartAt, [&] { pipe.restart_island(0); });
  sim.schedule_at(kRestartAt + sim::microseconds(100), [&] {
    pipe.control_force_admission(4);  // reconfig swap takes over the valve
    EXPECT_FALSE(pipe.restart_probation_active());
  });
  // Past the probation deadline, the stale timed release must NOT have
  // released the control plane's hold.
  sim.schedule_at(kProbationEnd + sim::microseconds(300), [&] {
    EXPECT_TRUE(pipe.admission_forced());
    pipe.control_release_admission();
  });
  sim.run_all();
  EXPECT_FALSE(pipe.admission_forced());
}

/// Satellite regression: overlapping same-worker faults — a stall whose
/// watchdog deadline is pending, then a crash (and repair) of the same
/// worker mid-stall — must not let the stale watchdog epoch double-requeue
/// the packet or break ingress_seq delivery order.
TEST(FaultRecovery, WatchdogEpochGuardSurvivesOverlappingWorkerFaults) {
  sim::Simulator sim;
  np::NpConfig cfg = slow_worker_config();
  cfg.enforce_reorder = true;
  cfg.recovery.watchdog_budget = sim::microseconds(400);
  np::NullProcessor proc;
  np::NicPipeline pipe(sim, cfg, proc);
  std::vector<std::uint64_t> order;
  int dropped = 0;
  pipe.set_on_delivered([&](const net::Packet& p) { order.push_back(p.id); });
  pipe.set_on_dropped([&](const net::Packet&) { ++dropped; });
  for (std::uint64_t i = 0; i < 8; ++i) pipe.submit(packet_on(0, i));
  // Stall worker 0 long enough to arm its watchdog deadline, then crash the
  // same worker before the stall clears, then repair. The watchdog entry
  // armed for the stall epoch is stale by the time it fires.
  sim.schedule_at(sim::microseconds(10),
                  [&] { pipe.fault_stall_worker(0, sim::milliseconds(2)); });
  sim.schedule_at(sim::microseconds(200), [&] { pipe.fault_crash_worker(0); });
  sim.schedule_at(sim::milliseconds(5), [&] { pipe.repair_worker(0); });
  sim.run_all();
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.hung_workers(), 0u);
  // Conservation: every packet resolved exactly once.
  EXPECT_EQ(order.size() + static_cast<std::size_t>(dropped), 8u);
  // No duplicate delivery and no ingress_seq inversion past the reorder
  // window: delivered ids must be strictly increasing.
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]) << "delivery order inverted at " << i;
}

/// kCtrlPartition against a live control plane: stale workers must be
/// repaired when the partition heals, and the run must stay clean.
TEST(FaultRecovery, CtrlPartitionWithLiveReconfigHeals) {
  FuzzScenario sc = generate_differential_scenario(1);
  sc.nic.recovery.admission_enabled = true;
  RunOptions opts;
  opts.differential = true;
  opts.reconfig_updates = 2;
  opts.faults = fault::single_fault(fault::FaultKind::kCtrlPartition,
                                    sc.horizon * 2 / 5, sc.horizon / 5,
                                    sc.nic);
  const CheckReport report = run_scenario(sc, opts);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                           << first_violation(report);
  EXPECT_GE(report.faults_recovered, 1u);
}

TEST(FaultRecovery, RecoveryTimeIsBoundedByProbeDeadline) {
  for (const fault::FaultKind kind :
       {fault::FaultKind::kWorkerCrash, fault::FaultKind::kWireDip,
        fault::FaultKind::kReorderStall}) {
    const CheckReport report = run_single_fault(kind, 2);
    ASSERT_TRUE(report.ok()) << fault::fault_kind_name(kind) << ": "
                             << report.summary();
    ASSERT_EQ(report.faults_recovered, 1u) << fault::fault_kind_name(kind);
    EXPECT_LE(report.worst_recovery, fault::FaultPlane::kProbeDeadline)
        << fault::fault_kind_name(kind);
  }
}

TEST(FaultRecovery, PermanentBugIsNeverMarkedRecovered) {
  FuzzScenario sc = generate_differential_scenario(1);
  RunOptions opts;
  fault::FaultEvent leak;
  leak.kind = fault::FaultKind::kLeakCommit;
  leak.at = 0;
  leak.duration = 0;  // permanent
  leak.period = 97;
  opts.faults.push_back(leak);
  const CheckReport report = run_scenario(sc, opts);
  EXPECT_FALSE(report.ok());  // conservation must catch the leak
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.faults_recovered, 0u);
}

TEST(FaultRecovery, FaultRunsAreDeterministic) {
  const CheckReport a = run_single_fault(fault::FaultKind::kWorkerCrash, 3);
  const CheckReport b = run_single_fault(fault::FaultKind::kWorkerCrash, 3);
  EXPECT_EQ(a.nic.submitted, b.nic.submitted);
  EXPECT_EQ(a.nic.forwarded_to_wire, b.nic.forwarded_to_wire);
  EXPECT_EQ(a.nic.watchdog_requeues, b.nic.watchdog_requeues);
  EXPECT_EQ(a.nic.reorder_timeout_drops, b.nic.reorder_timeout_drops);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.worst_recovery, b.worst_recovery);
  EXPECT_EQ(a.packets_lost_to_faults, b.packets_lost_to_faults);
}

}  // namespace
}  // namespace flowvalve::check
