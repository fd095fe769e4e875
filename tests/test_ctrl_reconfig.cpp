// Control-plane reconfiguration tests (DESIGN.md §11): shadow validation
// rejection shapes, epoch-versioned staged rollout, probation + automatic
// rollback under injected control-plane faults, update-storm coalescing,
// flow-cache epoch invalidation on filter swaps, and the degradation
// guarantees (no reconfiguration-caused drops, bounded mixed-epoch window).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/flowvalve.h"
#include "ctrl/reconfig_manager.h"
#include "ctrl/validator.h"
#include "fault/fault_plane.h"
#include "np/flowvalve_processor.h"
#include "np/nic_pipeline.h"
#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/reconfig_tracker.h"
#include "sim/simulator.h"
#include "traffic/generators.h"

namespace flowvalve {
namespace {

using sim::Rate;

constexpr char kPolicy[] =
    "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
    "fv class add dev nic0 parent 1: classid 1:10 name gold weight 2\n"
    "fv class add dev nic0 parent 1: classid 1:11 name silver weight 1\n"
    "fv filter add dev nic0 pref 1 vf 0 classid 1:10\n"
    "fv filter add dev nic0 pref 2 vf 1 classid 1:11\n";

ctrl::PolicyUpdate weight_delta(const std::string& cls, double weight) {
  ctrl::PolicyDelta d;
  d.class_name = cls;
  d.weight = weight;
  ctrl::PolicyUpdate u;
  u.deltas.push_back(std::move(d));
  return u;
}

using Manager = ctrl::ReconfigManager;

/// Updates are applied at kApplyAt; by kSettled a rollout has had time to
/// stall and then sit out its whole probation, so every update has
/// committed or rolled back.
constexpr sim::SimTime kApplyAt = sim::milliseconds(2);
constexpr sim::SimTime kSettled =
    kApplyAt + Manager::kStallTimeout + Manager::kProbation + sim::milliseconds(1);

/// Full stack with a live control plane: 4-worker pipeline, two CBR flows
/// overloading a 10G link, tracker + manager at the shipped timescales.
struct Stack {
  sim::Simulator sim;
  core::FlowValveEngine engine;
  np::FlowValveProcessor processor;
  np::NicPipeline pipeline;
  traffic::FlowRouter router;
  traffic::IdAllocator ids;
  obs::ReconfigTracker tracker;
  std::unique_ptr<ctrl::ReconfigManager> mgr;
  std::vector<std::unique_ptr<traffic::CbrFlow>> flows;

  static np::NpConfig config() {
    np::NpConfig cfg = np::agilio_cx_40g();
    cfg.num_workers = 4;
    cfg.wire_rate = Rate::gigabits_per_sec(10);
    return cfg;
  }

  explicit Stack(const char* policy = kPolicy)
      : engine(np::engine_options_for(config())),
        processor(engine),
        pipeline(sim, config(), processor),
        router(pipeline) {
    EXPECT_EQ(engine.configure(policy), "");
    mgr = std::make_unique<ctrl::ReconfigManager>(sim, pipeline, engine,
                                                  &tracker);
    const Rate per_flow = Rate::gigabits_per_sec(6);
    for (unsigned i = 0; i < 2; ++i) {
      traffic::FlowSpec fs;
      fs.flow_id = ids.next_flow_id();
      fs.app_id = i;
      fs.vf_port = static_cast<std::uint16_t>(i);
      fs.wire_bytes = 1500;
      flows.push_back(std::make_unique<traffic::CbrFlow>(
          sim, router, ids, fs, per_flow, sim::Rng(7).split(i), 0.05));
    }
  }

  void run(sim::SimTime horizon) {
    for (auto& f : flows) f->start();
    sim.run_until(horizon);
    for (auto& f : flows) f->stop();
    sim.run_all();
  }
};

// --- Shadow validation -----------------------------------------------------

TEST(ReconfigValidator, RejectsUnknownClass) {
  Stack s;
  const ctrl::ValidatedUpdate v =
      ctrl::validate_update(s.engine, weight_delta("missing", 2.0));
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.error.find("unknown class"), std::string::npos) << v.error;
}

TEST(ReconfigValidator, RejectsNonPositiveWeight) {
  Stack s;
  EXPECT_FALSE(ctrl::validate_update(s.engine, weight_delta("gold", 0.0)).ok());
  EXPECT_FALSE(ctrl::validate_update(s.engine, weight_delta("gold", -1.0)).ok());
}

TEST(ReconfigValidator, RejectsGuaranteeAboveCeil) {
  Stack s;
  ctrl::PolicyDelta d;
  d.class_name = "gold";
  d.guarantee = Rate::gigabits_per_sec(9);
  d.ceil = Rate::gigabits_per_sec(2);
  ctrl::PolicyUpdate u;
  u.deltas.push_back(d);
  const ctrl::ValidatedUpdate v = ctrl::validate_update(s.engine, u);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.error.find("guarantee exceeds ceil"), std::string::npos) << v.error;
}

TEST(ReconfigValidator, RejectsChildGuaranteesAboveParentCeil) {
  Stack s;
  // gold 6G + silver 6G guarantees > root's 10G ceiling.
  ctrl::PolicyUpdate u;
  for (const char* name : {"gold", "silver"}) {
    ctrl::PolicyDelta d;
    d.class_name = name;
    d.guarantee = Rate::gigabits_per_sec(6);
    u.deltas.push_back(d);
  }
  const ctrl::ValidatedUpdate v = ctrl::validate_update(s.engine, u);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.error.find("summing above the parent ceil"), std::string::npos)
      << v.error;
}

TEST(ReconfigValidator, RejectsScriptParseError) {
  Stack s;
  ctrl::PolicyUpdate u;
  u.fv_script = "fv qdisc add dev nic0 root handle 1: htb rate NONSENSE\n";
  const ctrl::ValidatedUpdate v = ctrl::validate_update(s.engine, u);
  EXPECT_FALSE(v.ok());
}

TEST(ReconfigValidator, RejectsStructuralChange) {
  Stack s;
  ctrl::PolicyUpdate u;
  u.fv_script =
      "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
      "fv class add dev nic0 parent 1: classid 1:10 name gold weight 2\n"
      "fv class add dev nic0 parent 1: classid 1:11 name silver weight 1\n"
      "fv class add dev nic0 parent 1: classid 1:12 name bronze weight 1\n";
  const ctrl::ValidatedUpdate v = ctrl::validate_update(s.engine, u);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.error.find("structural change"), std::string::npos) << v.error;
}

TEST(ReconfigValidator, AcceptsWeightRescaleScript) {
  Stack s;
  ctrl::PolicyUpdate u;
  u.fv_script =
      "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
      "fv class add dev nic0 parent 1: classid 1:10 name gold weight 1\n"
      "fv class add dev nic0 parent 1: classid 1:11 name silver weight 4\n"
      "fv filter add dev nic0 pref 1 vf 0 classid 1:11\n"
      "fv filter add dev nic0 pref 2 vf 1 classid 1:10\n";
  const ctrl::ValidatedUpdate v = ctrl::validate_update(s.engine, u);
  EXPECT_TRUE(v.ok()) << v.error;
  EXPECT_TRUE(v.replace_filters);
  EXPECT_EQ(v.filters.size(), 2u);
}

// --- Staged rollout --------------------------------------------------------

TEST(ReconfigRollout, DeltaCommitsAndChangesLivePolicy) {
  Stack s;
  s.sim.schedule_at(kApplyAt,
                    [&s] { EXPECT_EQ(s.mgr->apply(weight_delta("gold", 8.0)), ""); });
  s.run(kSettled);

  EXPECT_EQ(s.mgr->state(), ctrl::ReconfigManager::State::kIdle);
  EXPECT_EQ(s.mgr->epoch(), 1u);
  EXPECT_EQ(s.mgr->stats().committed, 1u);
  EXPECT_EQ(s.mgr->stats().rolled_back, 0u);
  const core::SchedulingTree& tree = s.engine.tree();
  EXPECT_DOUBLE_EQ(tree.at(tree.find("gold")).policy.weight, 8.0);
  // Degradation guarantee: the swap itself dropped nothing.
  EXPECT_FALSE(s.mgr->stats().admission_forced);
  EXPECT_FALSE(s.pipeline.admission_forced());
  ASSERT_EQ(s.tracker.records().size(), 1u);
  EXPECT_EQ(s.tracker.records()[0].outcome, "committed");
  EXPECT_GE(s.tracker.records()[0].swap_latency(), 0);
}

TEST(ReconfigRollout, RejectionLeavesTreeUntouched) {
  Stack s;
  const double before = s.engine.tree().at(s.engine.tree().find("gold")).policy.weight;
  EXPECT_NE(s.mgr->apply(weight_delta("gold", -3.0)), "");
  EXPECT_EQ(s.mgr->state(), ctrl::ReconfigManager::State::kIdle);
  EXPECT_EQ(s.mgr->epoch(), 0u);
  EXPECT_DOUBLE_EQ(s.engine.tree().at(s.engine.tree().find("gold")).policy.weight,
                   before);
  EXPECT_EQ(s.mgr->stats().rejected, 1u);
  ASSERT_EQ(s.tracker.records().size(), 1u);
  EXPECT_EQ(s.tracker.records()[0].outcome.rfind("rejected", 0), 0u);
}

TEST(ReconfigRollout, MixedEpochConfinedToRolloutWindow) {
  Stack s;
  s.sim.schedule_at(kApplyAt,
                    [&s] { s.mgr->apply(weight_delta("silver", 5.0)); });
  s.run(kSettled);
  // Whatever mixed-epoch packets occurred, they were all inside the rollout
  // window of the single update (tracked per record, totalled in stats).
  ASSERT_EQ(s.tracker.records().size(), 1u);
  EXPECT_EQ(s.tracker.records()[0].mixed_epoch_packets,
            s.mgr->stats().mixed_epoch_packets);
}

// --- Faults and rollback ---------------------------------------------------

TEST(ReconfigRollback, TornUpdateDetectedAndRolledBack) {
  Stack s;
  s.mgr->fault_tear_update(1);  // every staged class loses its word
  s.sim.schedule_at(kApplyAt,
                    [&s] { EXPECT_EQ(s.mgr->apply(weight_delta("gold", 8.0)), ""); });
  s.run(kSettled);

  EXPECT_EQ(s.mgr->stats().rolled_back, 1u);
  EXPECT_EQ(s.mgr->stats().committed, 0u);
  // Prior policy restored, at a strictly higher epoch (monotonic epochs).
  const core::SchedulingTree& tree = s.engine.tree();
  EXPECT_DOUBLE_EQ(tree.at(tree.find("gold")).policy.weight, 2.0);
  EXPECT_GE(s.mgr->epoch(), 2u);
  ASSERT_EQ(s.tracker.records().size(), 1u);
  EXPECT_NE(s.tracker.records()[0].outcome.find("torn-update"), std::string::npos);
  EXPECT_EQ(s.pipeline.stats().admission_drops, 0u);
}

TEST(ReconfigRollback, StaleEpochWorkerStallsThenRollsBack) {
  Stack s;
  s.mgr->fault_stale_worker(0);
  s.sim.schedule_at(kApplyAt,
                    [&s] { s.mgr->apply(weight_delta("gold", 8.0)); });
  s.run(kSettled);

  EXPECT_EQ(s.mgr->stats().rolled_back, 1u);
  const core::SchedulingTree& tree = s.engine.tree();
  EXPECT_DOUBLE_EQ(tree.at(tree.find("gold")).policy.weight, 2.0);
  ASSERT_EQ(s.tracker.records().size(), 1u);
  EXPECT_NE(s.tracker.records()[0].outcome.find("stale-epoch"), std::string::npos);
}

TEST(ReconfigRollback, RollbackIsDeterministic) {
  auto run_once = [] {
    Stack s;
    s.mgr->fault_tear_update(1);
    s.sim.schedule_at(kApplyAt,
                      [&s] { s.mgr->apply(weight_delta("gold", 8.0)); });
    s.run(kSettled);
    return std::make_tuple(s.pipeline.stats().forwarded_to_wire,
                           s.pipeline.stats().wire_bytes, s.mgr->epoch(),
                           s.tracker.records()[0].rolled_back_at);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ReconfigRollback, OperatorRollbackRestoresPriorPolicy) {
  Stack s;
  s.sim.schedule_at(kApplyAt,
                    [&s] { s.mgr->apply(weight_delta("gold", 8.0)); });
  // Mid-probation (cutover is fast under load).
  static_assert(sim::milliseconds(1) < Manager::kProbation);
  s.sim.schedule_at(kApplyAt + sim::milliseconds(1),
                    [&s] { EXPECT_TRUE(s.mgr->rollback("operator")); });
  s.run(kSettled);
  const core::SchedulingTree& tree = s.engine.tree();
  EXPECT_DOUBLE_EQ(tree.at(tree.find("gold")).policy.weight, 2.0);
  EXPECT_EQ(s.mgr->stats().rolled_back, 1u);
  EXPECT_FALSE(s.mgr->rollback("idle"));  // nothing in flight afterwards
}

TEST(ReconfigStorm, UpdatesCoalesceToNewestPending) {
  Stack s;
  s.sim.schedule_at(kApplyAt, [&s] { s.mgr->storm(8); });
  // Two rollouts back to back, each through its probation.
  s.run(kSettled + Manager::kProbation);
  const ctrl::ReconfigManager::Stats& st = s.mgr->stats();
  EXPECT_EQ(st.applied, 8u);
  EXPECT_EQ(st.coalesced, 6u);  // first starts, the other 7 overwrite a queue of 1
  EXPECT_EQ(st.committed, 2u);  // the first rollout + the surviving queued one
  EXPECT_EQ(s.mgr->state(), ctrl::ReconfigManager::State::kIdle);
  EXPECT_EQ(s.tracker.coalesced(), 6u);
}

TEST(ReconfigFaultPlane, TornUpdateThroughScheduleRollsBack) {
  Stack s;
  obs::RecoveryTracker recovery;
  fault::FaultPlane plane(s.sim, s.pipeline, &s.engine, &recovery);
  plane.set_reconfig(s.mgr.get());
  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kTornUpdate;
  ev.at = sim::milliseconds(1);
  ev.duration = sim::milliseconds(6);
  plane.arm({ev});
  s.sim.schedule_at(kApplyAt,
                    [&s] { s.mgr->apply(weight_delta("gold", 8.0)); });
  s.run(sim::milliseconds(12));
  plane.finalize();

  EXPECT_EQ(s.mgr->stats().rolled_back, 1u);
  EXPECT_EQ(recovery.injected(), 1u);
  EXPECT_EQ(recovery.recovered(), 1u);
  // Degradation guarantee: the failed reconfiguration cost zero packets.
  EXPECT_EQ(s.pipeline.stats().admission_drops, 0u);
}

// --- Flow-cache epoch invalidation ----------------------------------------

TEST(ReconfigCache, FilterSwapInvalidatesStaleEntriesLazily) {
  Stack s;
  ctrl::PolicyUpdate u;
  u.fv_script =  // same shape, filters redirected gold<->silver
      "fv qdisc add dev nic0 root handle 1: htb rate 10gbit\n"
      "fv class add dev nic0 parent 1: classid 1:10 name gold weight 2\n"
      "fv class add dev nic0 parent 1: classid 1:11 name silver weight 1\n"
      "fv filter add dev nic0 pref 1 vf 0 classid 1:11\n"
      "fv filter add dev nic0 pref 2 vf 1 classid 1:10\n";
  s.sim.schedule_at(kApplyAt, [&s, &u] {
    EXPECT_EQ(s.mgr->apply(u), "");
  });
  s.run(kSettled);

  EXPECT_EQ(s.mgr->stats().committed, 1u);
  // The swap bumped the label epoch instead of flushing: stale cached
  // entries were invalidated in place on their next hit and re-classified.
  const core::ExactMatchFlowCache::Stats& cs =
      s.engine.classifier().cache().stats();
  EXPECT_GT(cs.stale_invalidations, 0u);
  // Traffic on vf 0 now lands in silver.
  const core::SchedulingTree& tree = s.engine.tree();
  EXPECT_GT(tree.at(tree.find("silver")).fwd_packets, 0u);
}

// --- Observability ---------------------------------------------------------

TEST(ReconfigObs, TrackerJsonRoundTrip) {
  Stack s;
  s.sim.schedule_at(kApplyAt,
                    [&s] { s.mgr->apply(weight_delta("gold", 4.0)); });
  s.run(kSettled);
  obs::JsonWriter w;
  obs::reconfig_json(w, s.tracker);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"updates\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\":\"committed\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"target_epoch\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace flowvalve
