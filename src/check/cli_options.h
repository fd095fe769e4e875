// fuzz_check's command line, factored out so the repro-line emitter and the
// flag parser are the same code path — a failing seed's printed repro MUST
// parse back to the exact RunOptions that produced the failure (the
// round-trip is tested in tests/test_fault_campaign.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "check/runner.h"

namespace flowvalve::check {

struct CliOptions {
  std::uint64_t num_seeds = 50;
  std::uint64_t start_seed = 1;
  bool single_seed = false;  // --seed: run exactly one
  bool expect_violations = false;
  bool verbose = false;
  bool verify_sequential = false;
  /// Delta-debug a failing seed's fault schedule down to a minimal failing
  /// subset before printing its repro line (greedy one-event-at-a-time
  /// removal to fixpoint; see minimize_schedule in runner.h).
  bool minimize = false;
  unsigned jobs = 1;
  /// --inject-fault leak|bypass (empty ⇒ none): a permanent bug hitting
  /// every kInjectedFaultPeriod-th packet (cli_options.cpp).
  std::string inject_fault;
  /// Everything the runner itself consumes. --fault-event tokens land in
  /// opts.faults (parsed by fault::parse_fault_event).
  RunOptions opts;
};

enum class CliParseResult {
  kOk,     // parsed; run the corpus
  kHelp,   // --help printed; exit 0
  kError,  // bad flag/value (unknown flag, missing value, or a number that
           // is empty, signed, non-numeric, trailing junk, or out of range);
           // message already on stderr; exit 2
};

void cli_usage();

/// Parse argv[1..) into `out`. On kOk the --inject-fault event (if any) has
/// already been appended to out.opts.faults, so out.opts is ready to run.
CliParseResult parse_cli(int argc, char** argv, CliOptions& out);

/// One-line repro command for `seed` under `cli`: every RunOptions field
/// that differs from its default is emitted as the flag that sets it —
/// including explicit --fault-event tokens — so pasting the line reproduces
/// the run exactly. `explicit_faults` replaces the schedule-deriving flags
/// (--chaos/--campaign/--storm/--inject-fault) with the given resolved event
/// list (the minimizer's output format).
std::string repro_command(const CliOptions& cli, std::uint64_t seed);
std::string repro_command_with_faults(const CliOptions& cli,
                                      std::uint64_t seed,
                                      const fault::FaultSchedule& faults);

}  // namespace flowvalve::check
