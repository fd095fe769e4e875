// fuzz_check — deterministic scenario fuzzer driver.
//
//   fuzz_check --seeds 100                 # standard invariant fuzzing
//   fuzz_check --seeds 100 --jobs 0        # same corpus, all host cores
//   fuzz_check --seeds 10 --differential   # FlowValve-vs-HTB share oracle
//   fuzz_check --seed 0x2a -v              # re-run one seed, print scenario
//   fuzz_check --seeds 3 --inject-fault leak --expect-violations
//   fuzz_check --seeds 10 --chaos          # seeded fault schedules + recovery
//   fuzz_check --seeds 10 --campaign       # compound campaigns + recovery SLO
//   fuzz_check --seed 0x2a --campaign --minimize   # shrink a failing schedule
//
// Every failing seed prints a one-line repro command; the same seed always
// regenerates the identical scenario (see src/check/fuzzer.h) and — under
// --chaos / --campaign — the identical fault schedule (see src/fault/fault.h).
// The repro line is emitted by the same module that parses the flags
// (src/check/cli_options.h), so it round-trips every RunOptions field, and
// --minimize first delta-debugs the failing seed's resolved schedule down to
// a minimal failing subset printed as explicit --fault-event flags. Seeds are
// mutually independent, so --jobs N fans them across N threads and merges
// the reports in seed order: the output (and every repro line) is identical
// to a sequential run, which --verify-sequential re-proves per seed by
// rerunning the corpus inline and diffing bit-exact report fingerprints.
// The closing line ends in the corpus digest (check::corpus_digest): run the
// same flags at two commits and compare it to tell whether any seed's report
// changed.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/cli_options.h"
#include "check/runner.h"
#include "fault/fault.h"

int main(int argc, char** argv) {
  using namespace flowvalve;

  check::CliOptions cli;
  switch (check::parse_cli(argc, argv, cli)) {
    case check::CliParseResult::kOk:
      break;
    case check::CliParseResult::kHelp:
      return 0;
    case check::CliParseResult::kError:
      return 2;
  }
  const check::RunOptions& opts = cli.opts;

  std::vector<std::uint64_t> seeds;
  seeds.reserve(cli.num_seeds);
  for (std::uint64_t s = cli.start_seed; s < cli.start_seed + cli.num_seeds;
       ++s)
    seeds.push_back(s);

  // Fan the corpus across the thread pool; outcomes come back in seed
  // order regardless of completion order, so the report below is identical
  // to a sequential run's.
  const std::vector<check::SeedOutcome> outcomes =
      check::run_corpus(seeds, opts, cli.jobs);

  // Shrink a failing seed's resolved fault schedule, then print the minimal
  // subset as an explicit --fault-event repro (schedule-deriving flags
  // dropped — the events now say it all).
  const auto print_minimized = [&](std::uint64_t s) {
    const check::ResolvedSeed resolved = check::resolve_seed(s, opts);
    const fault::FaultSchedule minimal = check::minimize_schedule(resolved);
    std::printf("  minimized: %zu/%zu fault events still fail\n",
                minimal.size(), resolved.opts.faults.size());
    std::printf("  repro: %s\n",
                check::repro_command_with_faults(cli, s, minimal).c_str());
  };

  std::uint64_t failures = 0;
  std::uint64_t caught = 0;
  std::uint64_t crashes = 0;
  for (const check::SeedOutcome& outcome : outcomes) {
    const std::uint64_t s = outcome.seed;
    if (cli.verbose)
      std::fputs(check::resolve_seed(s, opts).describe().c_str(), stdout);
    if (outcome.crashed) {
      // Structured crash record: the seed's exception, isolated to its own
      // slot — every other seed in the batch completed and merged normally.
      ++failures;
      ++crashes;
      std::printf("seed 0x%llx: CRASH (%s)\n",
                  static_cast<unsigned long long>(s),
                  outcome.crash_what.c_str());
      if (cli.minimize)
        print_minimized(s);
      else if (!cli.single_seed)
        std::printf("  repro: %s\n", check::repro_command(cli, s).c_str());
      continue;
    }
    const check::CheckReport& report = outcome.report;
    std::printf("%s\n", report.summary().c_str());
    if (!report.ok()) {
      ++failures;
      ++caught;
      for (const auto& v : report.violations)
        std::printf("    %s\n", v.to_string().c_str());
      if (report.violation_total > report.violations.size())
        std::printf("    ... and %llu more\n",
                    static_cast<unsigned long long>(report.violation_total -
                                                    report.violations.size()));
      if (cli.minimize)
        print_minimized(s);
      else if (!cli.single_seed)
        std::printf("  repro: %s\n", check::repro_command(cli, s).c_str());
    }
  }

  char digest[40];
  std::snprintf(digest, sizeof digest, "digest 0x%016llx",
                static_cast<unsigned long long>(check::corpus_digest(outcomes)));

  // Sequential-equivalence oracle: the corpus rerun inline on this thread
  // must produce a bit-identical report for every seed.
  if (cli.verify_sequential) {
    const std::vector<check::SeedOutcome> sequential =
        check::run_corpus(seeds, opts, /*jobs=*/1);
    std::uint64_t divergent = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const bool same =
          outcomes[i].crashed == sequential[i].crashed &&
          (outcomes[i].crashed
               ? outcomes[i].crash_what == sequential[i].crash_what
               : check::report_fingerprint(outcomes[i].report) ==
                     check::report_fingerprint(sequential[i].report));
      if (!same) {
        ++divergent;
        std::printf(
            "seed 0x%llx: parallel run DIVERGES from sequential rerun\n",
            static_cast<unsigned long long>(outcomes[i].seed));
      }
    }
    if (divergent) {
      std::printf("fuzz_check: %llu/%llu seeds diverged under --jobs %u (%s)\n",
                  static_cast<unsigned long long>(divergent),
                  static_cast<unsigned long long>(cli.num_seeds), cli.jobs,
                  digest);
      return 1;
    }
    std::printf("fuzz_check: all %llu seeds bit-identical to sequential\n",
                static_cast<unsigned long long>(cli.num_seeds));
  }

  if (crashes) {
    std::printf("fuzz_check: %llu/%llu seeds CRASHED (%s)\n",
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(cli.num_seeds), digest);
    return 1;
  }
  if (cli.expect_violations) {
    // Some scenarios legitimately mask a fault (e.g. a pipeline that never
    // reorders makes the bypass fault unobservable), so require the bug to
    // be caught on at least one seed rather than all of them.
    std::printf("fuzz_check: injected fault caught on %llu/%llu seeds (%s)\n",
                static_cast<unsigned long long>(caught),
                static_cast<unsigned long long>(cli.num_seeds), digest);
    return caught > 0 ? 0 : 1;
  }
  if (failures) {
    std::printf("fuzz_check: %llu/%llu seeds FAILED (%s)\n",
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(cli.num_seeds), digest);
    return 1;
  }
  std::printf("fuzz_check: %llu seeds clean (%s)\n",
              static_cast<unsigned long long>(cli.num_seeds), digest);
  return 0;
}
