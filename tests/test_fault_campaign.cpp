// Tier-1 coverage for compound-fault campaigns (DESIGN.md §16): the fault
// taxonomy is exhaustive-by-construction, fault events round-trip through
// their wire format, seed-derived campaigns are bit-deterministic (including
// across --jobs N), island blackout survives every backend × batch size, the
// recovery-SLO oracle actually fires, and the CLI repro line + schedule
// minimizer reproduce and shrink failures.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/cli_options.h"
#include "check/fuzzer.h"
#include "check/recovery_slo.h"
#include "check/runner.h"
#include "fault/fault.h"
#include "np/nic_pipeline.h"
#include "np/np_config.h"

namespace flowvalve::check {
namespace {

// --- Taxonomy ------------------------------------------------------------

TEST(FaultTaxonomy, KindTableIsExhaustiveAndDense) {
  // kAllFaultKinds must mirror the enum exactly: one entry per kind, in
  // declaration order. The covered switch in fault_kind_name (no default)
  // makes adding an enum value without extending the table a compile error;
  // this test closes the loop at runtime.
  std::set<std::string> names;
  for (std::size_t i = 0; i < fault::kFaultKindCount; ++i) {
    const fault::FaultKind kind = fault::kAllFaultKinds[i];
    EXPECT_EQ(static_cast<std::size_t>(kind), i)
        << "kAllFaultKinds out of declaration order at " << i;
    const std::string name = fault::fault_kind_name(kind);
    EXPECT_NE(name, "unknown") << "kind " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate fault kind name '" << name << "'";
    fault::FaultKind parsed;
    ASSERT_TRUE(fault::fault_kind_from_name(name, parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
  }
  fault::FaultKind parsed;
  EXPECT_FALSE(fault::fault_kind_from_name("no-such-fault", parsed));
  EXPECT_FALSE(fault::fault_kind_from_name("", parsed));
}

TEST(FaultTaxonomy, EventWireFormatRoundTrips) {
  for (std::size_t i = 0; i < fault::kFaultKindCount; ++i) {
    fault::FaultEvent ev;
    ev.kind = fault::kAllFaultKinds[i];
    ev.at = 123456789 + static_cast<sim::SimTime>(i);
    ev.duration = 987654 + static_cast<sim::SimDuration>(i);
    ev.worker = static_cast<unsigned>(i % 7);
    ev.worker_count = static_cast<unsigned>(1 + i % 3);
    ev.magnitude = 0.12345678901234567 * static_cast<double>(i + 1);
    ev.period = static_cast<sim::SimDuration>(i * 31);
    fault::FaultEvent back;
    ASSERT_TRUE(fault::parse_fault_event(fault::format_fault_event(ev), back))
        << fault::format_fault_event(ev);
    EXPECT_EQ(back.kind, ev.kind);
    EXPECT_EQ(back.at, ev.at);
    EXPECT_EQ(back.duration, ev.duration);
    EXPECT_EQ(back.worker, ev.worker);
    EXPECT_EQ(back.worker_count, ev.worker_count);
    EXPECT_EQ(back.magnitude, ev.magnitude);  // %.17g: bit-exact
    EXPECT_EQ(back.period, ev.period);
  }
  fault::FaultEvent ev;
  EXPECT_FALSE(fault::parse_fault_event("", ev));
  EXPECT_FALSE(fault::parse_fault_event("worker-crash", ev));
  EXPECT_FALSE(fault::parse_fault_event("no-such@1,2,3,4,5,6", ev));
  EXPECT_FALSE(fault::parse_fault_event("worker-crash@1,2,3", ev));
  EXPECT_FALSE(fault::parse_fault_event("worker-crash@1,2,3,4,5,6,junk", ev));
}

// --- Campaign generator --------------------------------------------------

TEST(FaultCampaign, ScheduleIsDeterministicAndWellFormed) {
  const np::NpConfig cfg;
  const sim::SimDuration horizon = sim::milliseconds(20);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const fault::FaultSchedule a =
        fault::generate_campaign_schedule(seed, horizon, cfg);
    const fault::FaultSchedule b =
        fault::generate_campaign_schedule(seed, horizon, cfg);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    ASSERT_GE(a.size(), 2u);
    ASSERT_LE(a.size(), 5u);
    std::set<unsigned> islands_hit;
    std::set<fault::FaultKind> globals_hit;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(fault::format_fault_event(a[i]),
                fault::format_fault_event(b[i]))
          << "seed " << seed << " event " << i;
      EXPECT_GT(a[i].duration, 0) << "campaign events must all clear";
      EXPECT_LE(a[i].at + a[i].duration, horizon * 9 / 10)
          << "seed " << seed << " event " << i << " clears too late";
      if (i + 1 < a.size()) {
        EXPECT_LE(a[i].at, a[i + 1].at);
      }
      switch (a[i].kind) {
        case fault::FaultKind::kIslandBlackout:
          EXPECT_TRUE(islands_hit.insert(a[i].worker).second)
              << "two worker-scoped episodes on island " << a[i].worker;
          break;
        case fault::FaultKind::kFlappingWorker:
        case fault::FaultKind::kWorkerStall:
        case fault::FaultKind::kWorkerCrash:
        case fault::FaultKind::kCtrlPartition:
          EXPECT_TRUE(islands_hit.insert(cfg.island_of(a[i].worker)).second)
              << "two worker-scoped episodes on island "
              << cfg.island_of(a[i].worker);
          break;
        default:
          EXPECT_TRUE(globals_hit.insert(a[i].kind).second)
              << "global kind repeated: "
              << fault::fault_kind_name(a[i].kind);
          break;
      }
    }
    EXPECT_FALSE(islands_hit.empty())
        << "seed " << seed << ": no worker-scoped episode";
  }
}

TEST(FaultCampaign, RunsAreBitDeterministicAcrossJobs) {
  RunOptions opts;
  opts.campaign = true;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const std::vector<SeedOutcome> seq = run_corpus(seeds, opts, /*jobs=*/1);
  const std::vector<SeedOutcome> par = run_corpus(seeds, opts, /*jobs=*/4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_FALSE(seq[i].crashed) << seq[i].crash_what;
    ASSERT_FALSE(par[i].crashed) << par[i].crash_what;
    EXPECT_TRUE(seq[i].report.ok()) << seq[i].report.summary();
    EXPECT_EQ(report_fingerprint(seq[i].report),
              report_fingerprint(par[i].report))
        << "seed " << seeds[i] << " diverges under --jobs 4";
  }
}

// --- Island blackout across the backend × batch matrix -------------------

class BlackoutMatrix
    : public ::testing::TestWithParam<std::pair<core::BackendKind, unsigned>> {
};

TEST_P(BlackoutMatrix, SurvivesWithConservationIntact) {
  const auto [backend, batch] = GetParam();
  FuzzScenario sc = generate_differential_scenario(1);
  sc.nic.recovery.admission_enabled = true;
  sc.nic.backend = backend;
  sc.nic.batch_size = batch;
  RunOptions opts;
  opts.differential = true;
  opts.campaign = true;  // arms the RecoverySloChecker
  opts.faults = fault::single_fault(fault::FaultKind::kIslandBlackout,
                                    sc.horizon * 2 / 5, sc.horizon / 5,
                                    sc.nic);
  const CheckReport report = run_scenario(sc, opts);
  EXPECT_TRUE(report.ok())
      << report.summary() << "\n"
      << (report.violations.empty() ? std::string("(none stored)")
                                    : report.violations.front().to_string());
  EXPECT_EQ(report.faults_recovered, 1u);
  EXPECT_GE(report.nic.islands_restarted, 1u);
  EXPECT_EQ(report.delivered, report.nic.forwarded_to_wire);
  // The SLO share half ran and measured a bounded reconvergence.
  EXPECT_GE(report.share_reconvergence, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsBothBatches, BlackoutMatrix,
    ::testing::Values(
        std::make_pair(core::BackendKind::kFlowValve, 1u),
        std::make_pair(core::BackendKind::kFlowValve, 32u),
        std::make_pair(core::BackendKind::kStfq, 1u),
        std::make_pair(core::BackendKind::kStfq, 32u),
        std::make_pair(core::BackendKind::kEiffel, 1u),
        std::make_pair(core::BackendKind::kEiffel, 32u)),
    [](const ::testing::TestParamInfo<std::pair<core::BackendKind, unsigned>>&
           info) {
      return std::string(core::backend_kind_name(info.param.first)) +
             "_batch" + std::to_string(info.param.second);
    });

// --- Recovery-SLO oracle -------------------------------------------------

TEST(RecoverySlo, FiresOnImpossibleMttrBound) {
  // Two episodes clear at the campaign's quiet instant: the one probed
  // healthy exactly at the bound passes, the one a nanosecond later fails.
  sim::Simulator sim;
  np::NullProcessor proc;
  np::NicPipeline pipeline(sim, np::NpConfig{}, proc);
  CheckHarness harness(sim, pipeline, nullptr);
  const sim::SimTime quiet = sim::milliseconds(10);
  obs::RecoveryTracker tracker;
  obs::FaultRecord on_time;
  on_time.kind = "wire-dip";
  on_time.injected_at = sim::milliseconds(5);
  on_time.cleared_at = quiet;
  on_time.recovered_at = quiet + RecoverySloChecker::kRecoveryBound;
  tracker.record(on_time);
  obs::FaultRecord late = on_time;
  late.kind = "worker-crash";
  ++late.recovered_at;
  tracker.record(late);
  RecoverySloChecker::Options so;
  so.quiet_at = quiet;
  so.horizon = sim::milliseconds(100);
  harness.add(std::make_unique<RecoverySloChecker>(&tracker, so));
  harness.finish();
  ASSERT_EQ(harness.sink().total(), 1u);
  const Violation& v = harness.sink().violations().front();
  EXPECT_EQ(v.checker, "recovery-slo");
  EXPECT_EQ(v.detail.rfind("worker-crash recovery took", 0), 0u) << v.detail;
}

// --- CLI repro round-trip ------------------------------------------------

std::vector<char*> to_argv(std::vector<std::string>& tokens) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) argv.push_back(t.data());
  return argv;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string::npos ? line.size() : space;
    if (end > pos) words.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return words;
}

TEST(CliRepro, ReproLineRoundTripsEveryRunOption) {
  std::vector<std::string> tokens = {
      "fuzz_check",    "--seed",        "0x2a",
      "--differential", "--campaign",
      "--storm",       "both",          "--reconfig",
      "3",             "--horizon-ms",  "12",
      "--batch",       "32",            "--backend",
      "stfq",          "--scheduler",   "heap",
      "--jobs",        "4",             "--fault-event",
      "worker-crash@100,200,1,1,0,0",   "--inject-fault",
      "leak",          "-v"};
  std::vector<char*> argv = to_argv(tokens);
  CliOptions first;
  ASSERT_EQ(parse_cli(static_cast<int>(argv.size()), argv.data(), first),
            CliParseResult::kOk);
  // Everything parsed must be emitted back...
  const std::string repro = repro_command(first, first.start_seed);
  for (const char* flag :
       {"--differential", "--campaign", "--storm both", "--reconfig 3",
        "--horizon-ms 12", "--batch 32", "--backend stfq", "--scheduler heap",
        "--jobs 4", "--fault-event worker-crash@100,200,1,1,0,0",
        "--inject-fault leak"})
    EXPECT_NE(repro.find(flag), std::string::npos)
        << "repro line lost '" << flag << "': " << repro;
  // ...and parsing the emitted line must reproduce the exact same options:
  // parse → emit → parse → emit is a fixpoint.
  std::vector<std::string> again = split_words(repro);
  std::vector<char*> argv2 = to_argv(again);
  CliOptions second;
  ASSERT_EQ(parse_cli(static_cast<int>(argv2.size()), argv2.data(), second),
            CliParseResult::kOk)
      << repro;
  EXPECT_EQ(repro_command(second, second.start_seed), repro);
  // The resolved fault schedules agree event-for-event.
  ASSERT_EQ(first.opts.faults.size(), second.opts.faults.size());
  for (std::size_t i = 0; i < first.opts.faults.size(); ++i)
    EXPECT_EQ(fault::format_fault_event(first.opts.faults[i]),
              fault::format_fault_event(second.opts.faults[i]));
}

CliParseResult parse_tokens(std::vector<std::string> tokens, CliOptions& out) {
  tokens.insert(tokens.begin(), "fuzz_check");
  std::vector<char*> argv = to_argv(tokens);
  return parse_cli(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(CliParse, RejectsMalformedNumbers) {
  for (const char* flag :
       {"--seeds", "--start", "--seed", "--jobs", "--reconfig", "--horizon-ms",
        "--batch"}) {
    for (const char* bad : {"", "-1", "+1", " 1", "1O0", "12ms", "0x", "x1"}) {
      CliOptions cli;
      EXPECT_EQ(parse_tokens({flag, bad}, cli), CliParseResult::kError)
          << flag << " '" << bad << "'";
    }
    CliOptions cli;
    EXPECT_EQ(parse_tokens({flag, "99999999999999999999"}, cli),
              CliParseResult::kError)
        << flag << " past 64 bits";
  }
  // Out of range for the destination: unsigned fields, the horizon in ns,
  // and the corpus's last seed.
  for (const char* flag : {"--jobs", "--reconfig", "--batch"}) {
    CliOptions cli;
    EXPECT_EQ(parse_tokens({flag, "4294967296"}, cli), CliParseResult::kError)
        << flag;
  }
  CliOptions cli;
  EXPECT_EQ(parse_tokens({"--horizon-ms", "9223372036855"}, cli),
            CliParseResult::kError);
  EXPECT_EQ(parse_tokens({"--start", "0xffffffffffffffff", "--seeds", "2"}, cli),
            CliParseResult::kError);
  // The flags the constants replaced are gone.
  for (const char* gone : {"--tolerance", "--slo-bound-ms", "--every"})
    EXPECT_EQ(parse_tokens({gone, "1"}, cli), CliParseResult::kError) << gone;
}

TEST(CliParse, AcceptsEdgeOfRangeNumbers) {
  CliOptions cli;
  ASSERT_EQ(parse_tokens({"--jobs", "4294967295", "--batch", "0x20",
                          "--horizon-ms", "9223372036854", "--start",
                          "0xfffffffffffffffe", "--seeds", "1"},
                         cli),
            CliParseResult::kOk);
  EXPECT_EQ(cli.jobs, 4294967295u);
  EXPECT_EQ(cli.opts.batch_size, 32u);
  EXPECT_EQ(cli.opts.horizon_override, sim::milliseconds(9223372036854));
  EXPECT_EQ(cli.start_seed, 0xfffffffffffffffeULL);
  EXPECT_EQ(cli.num_seeds, 1u);
}

// --- Verbose description -------------------------------------------------

TEST(VerboseDescription, NamesWhatTheSeedRuns) {
  RunOptions opts;
  opts.storm_collision = true;
  opts.storm_churn = true;
  opts.batch_size = 1;
  opts.backend = core::BackendKind::kEiffel;
  opts.horizon_override = sim::milliseconds(7);
  const std::string d = resolve_seed(5, opts).describe();
  EXPECT_NE(d.find("hash-collision-storm"), std::string::npos) << d;
  EXPECT_NE(d.find("churn-storm"), std::string::npos) << d;
  EXPECT_NE(d.find("admission on"), std::string::npos) << d;
  EXPECT_NE(d.find("batch 1,"), std::string::npos) << d;
  EXPECT_NE(d.find("backend eiffel"), std::string::npos) << d;
  EXPECT_NE(d.find("horizon 7 ms"), std::string::npos) << d;
  EXPECT_NE(resolve_seed(5, RunOptions{}).describe().find("faults: none"),
            std::string::npos);
}

// --- Minimizer -----------------------------------------------------------

TEST(Minimizer, ShrinksToTheFailingEvent) {
  // A permanent commit-leak bug among harmless timed faults: only the leak
  // makes the run fail, so the minimizer must strip everything else.
  RunOptions opts;
  fault::FaultEvent leak;
  leak.kind = fault::FaultKind::kLeakCommit;
  leak.at = 0;
  leak.duration = 0;  // permanent
  leak.period = 97;
  opts.faults.push_back(leak);
  const FuzzScenario probe = generate_scenario(7);
  fault::FaultSchedule padding = fault::single_fault(
      fault::FaultKind::kWireDip, probe.horizon / 4, probe.horizon / 8,
      probe.nic);
  opts.faults.insert(opts.faults.end(), padding.begin(), padding.end());
  padding = fault::single_fault(fault::FaultKind::kTxBackpressure,
                                probe.horizon / 2, probe.horizon / 8,
                                probe.nic);
  opts.faults.insert(opts.faults.end(), padding.begin(), padding.end());

  const ResolvedSeed resolved = resolve_seed(7, opts);
  ASSERT_EQ(resolved.opts.faults.size(), 3u);
  ASSERT_FALSE(run_scenario(resolved.sc, resolved.opts).ok());
  const fault::FaultSchedule minimal = minimize_schedule(resolved);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal.front().kind, fault::FaultKind::kLeakCommit);
}

}  // namespace
}  // namespace flowvalve::check
