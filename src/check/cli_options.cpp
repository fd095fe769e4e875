#include "check/cli_options.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/scheduler_backend.h"

namespace flowvalve::check {

namespace {

/// --inject-fault's bug hits every this-many-th packet.
constexpr std::uint64_t kInjectedFaultPeriod = 97;

/// Parse `s` as the value of `flag`: decimal or 0x-prefixed hex digits and
/// nothing else (no sign, no blanks, no trailing junk), at most `max`. On
/// anything else names the flag on stderr and sets `bad`.
std::uint64_t parse_u64(const char* flag, const char* s, std::uint64_t max,
                        bool& bad) {
  char* end = nullptr;
  errno = 0;
  const bool digit = std::isdigit(static_cast<unsigned char>(s[0])) != 0;
  const unsigned long long v = digit ? std::strtoull(s, &end, 0) : 0;
  if (!digit || *end != '\0' || errno == ERANGE || v > max) {
    std::fprintf(stderr,
                 "fuzz_check: %s wants an unsigned integer no larger than "
                 "%llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(max), s);
    bad = true;
    return 0;
  }
  return v;
}

}  // namespace

void cli_usage() {
  std::puts(
      "usage: fuzz_check [options]\n"
      "  --seeds N           number of seeds to run (default 50)\n"
      "  --start S           first seed (default 1; hex with 0x prefix)\n"
      "  --seed S            run exactly one seed\n"
      "  --jobs N            fan seeds across N threads (0 = all host\n"
      "                      cores; default 1 = sequential). Reports merge\n"
      "                      in seed order, so output is identical to\n"
      "                      --jobs 1\n"
      "  --verify-sequential after a parallel run, re-run every seed\n"
      "                      sequentially and fail unless each report is\n"
      "                      bit-identical (the --jobs equivalence oracle)\n"
      "  --differential      differential scenario family (FV vs HTB oracle,\n"
      "                      share tolerance 0.1)\n"
      "  --inject-fault K    deliberate pipeline bug on every 97th packet:\n"
      "                      leak | bypass\n"
      "  --chaos             arm a seed-derived fault schedule per run and\n"
      "                      check the pipeline survives + re-converges\n"
      "  --campaign          arm a seed-derived compound-fault campaign\n"
      "                      (overlapping island blackout / flapping worker /\n"
      "                      ctrl partition episodes) and hold the run to the\n"
      "                      recovery SLO (per-episode MTTR within the\n"
      "                      50 ms probe deadline + 10 ms, bounded share\n"
      "                      reconvergence)\n"
      "  --storm K           arm a flow-table storm over the middle half of\n"
      "                      every run: collision | churn | both\n"
      "  --fault-event E     arm one explicit fault event (repeatable);\n"
      "                      format kind@at,dur,worker,count,magnitude,period\n"
      "                      as printed by minimized repro lines\n"
      "  --minimize          delta-debug each failing seed's fault schedule\n"
      "                      to a minimal failing subset and print it as\n"
      "                      --fault-event repro flags\n"
      "  --reconfig N        submit N seed-derived live policy updates per\n"
      "                      run (usually with one control-plane fault) and\n"
      "                      check epoch confinement + swap conservation\n"
      "  --expect-violations exit 0 iff at least one seed reports violations\n"
      "  --horizon-ms M      override scenario horizon\n"
      "  --batch N           force NpConfig::batch_size for every run\n"
      "                      (1 = one-packet bursts; 0 = scenario's own\n"
      "                      seed-derived burst size, the default)\n"
      "  --backend K         force the scheduling discipline for every run:\n"
      "                      fv (default tree) | stfq | eiffel\n"
      "                      (unset = scenario's own seed-derived backend)\n"
      "  --scheduler K       event queue backend: wheel (default) | heap\n"
      "  -v, --verbose       print every seed's scenario and faults as run\n"
      "Numbers are decimal or 0x-hex; anything else exits 2. The closing\n"
      "line ends in the corpus digest: equal digests from two builds mean\n"
      "every seed's report is byte-identical.\n");
}

CliParseResult parse_cli(int argc, char** argv, CliOptions& out) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool bad = false;
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_check: %s needs a value\n", arg);
        bad = true;
        return "";
      }
      return argv[++i];
    };
    // The flag's value as a number no larger than `max`; a malformed one
    // ends the parse like a missing one.
    auto number = [&](std::uint64_t max) -> std::uint64_t {
      const char* v = value();
      return bad ? 0 : parse_u64(arg, v, max, bad);
    };
    if (!std::strcmp(arg, "--seeds")) {
      out.num_seeds = number(kU64Max);
    } else if (!std::strcmp(arg, "--start")) {
      out.start_seed = number(kU64Max);
    } else if (!std::strcmp(arg, "--seed")) {
      out.start_seed = number(kU64Max);
      out.num_seeds = 1;
      out.single_seed = true;
    } else if (!std::strcmp(arg, "--jobs")) {
      out.jobs = static_cast<unsigned>(number(kUnsignedMax));
    } else if (!std::strcmp(arg, "--verify-sequential")) {
      out.verify_sequential = true;
    } else if (!std::strcmp(arg, "--differential")) {
      out.opts.differential = true;
    } else if (!std::strcmp(arg, "--inject-fault")) {
      out.inject_fault = value();
    } else if (!std::strcmp(arg, "--chaos")) {
      out.opts.chaos = true;
    } else if (!std::strcmp(arg, "--campaign")) {
      out.opts.campaign = true;
    } else if (!std::strcmp(arg, "--storm")) {
      const char* k = value();
      if (bad) return CliParseResult::kError;
      if (!std::strcmp(k, "collision")) {
        out.opts.storm_collision = true;
      } else if (!std::strcmp(k, "churn")) {
        out.opts.storm_churn = true;
      } else if (!std::strcmp(k, "both")) {
        out.opts.storm_collision = out.opts.storm_churn = true;
      } else {
        std::fprintf(stderr,
                     "fuzz_check: unknown storm '%s' (collision|churn|both)\n",
                     k);
        return CliParseResult::kError;
      }
    } else if (!std::strcmp(arg, "--fault-event")) {
      const char* e = value();
      if (bad) return CliParseResult::kError;
      fault::FaultEvent ev;
      if (!fault::parse_fault_event(e, ev)) {
        std::fprintf(stderr,
                     "fuzz_check: bad --fault-event '%s' (want "
                     "kind@at,dur,worker,count,magnitude,period)\n",
                     e);
        return CliParseResult::kError;
      }
      out.opts.faults.push_back(ev);
    } else if (!std::strcmp(arg, "--minimize")) {
      out.minimize = true;
    } else if (!std::strcmp(arg, "--reconfig")) {
      out.opts.reconfig_updates = static_cast<unsigned>(number(kUnsignedMax));
    } else if (!std::strcmp(arg, "--expect-violations")) {
      out.expect_violations = true;
    } else if (!std::strcmp(arg, "--horizon-ms")) {
      // The horizon is held in ns, so the millisecond count must fit.
      out.opts.horizon_override = sim::milliseconds(static_cast<std::int64_t>(
          number(sim::kSimTimeMax / sim::milliseconds(1))));
    } else if (!std::strcmp(arg, "--batch")) {
      out.opts.batch_size = static_cast<unsigned>(number(kUnsignedMax));
    } else if (!std::strcmp(arg, "--backend")) {
      const char* k = value();
      if (bad) return CliParseResult::kError;
      core::BackendKind kind = core::BackendKind::kFlowValve;
      if (!core::parse_backend_kind(k, kind)) {
        std::fprintf(
            stderr, "fuzz_check: unknown backend '%s' (fv|stfq|eiffel)\n",
            k);
        return CliParseResult::kError;
      }
      out.opts.backend = kind;
    } else if (!std::strcmp(arg, "--scheduler")) {
      const char* k = value();
      if (bad) return CliParseResult::kError;
      if (!std::strcmp(k, "heap")) {
        out.opts.scheduler = sim::SchedulerKind::kHeap;
      } else if (!std::strcmp(k, "wheel")) {
        out.opts.scheduler = sim::SchedulerKind::kWheel;
      } else {
        std::fprintf(stderr, "fuzz_check: unknown scheduler '%s' (heap|wheel)\n",
                     k);
        return CliParseResult::kError;
      }
    } else if (!std::strcmp(arg, "-v") || !std::strcmp(arg, "--verbose")) {
      out.verbose = true;
    } else if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
      cli_usage();
      return CliParseResult::kHelp;
    } else {
      std::fprintf(stderr, "fuzz_check: unknown option %s\n", arg);
      cli_usage();
      return CliParseResult::kError;
    }
    if (bad) return CliParseResult::kError;
  }

  // The corpus is seeds [start, start + seeds): the sum must fit.
  if (out.num_seeds > kU64Max - out.start_seed) {
    std::fprintf(stderr,
                 "fuzz_check: --start 0x%llx + --seeds %llu does not fit in "
                 "64 bits\n",
                 static_cast<unsigned long long>(out.start_seed),
                 static_cast<unsigned long long>(out.num_seeds));
    return CliParseResult::kError;
  }

  if (!out.inject_fault.empty()) {
    fault::FaultEvent ev;  // permanent from t=0: the legacy injected bugs
    ev.at = 0;
    ev.duration = 0;
    ev.period = static_cast<sim::SimDuration>(kInjectedFaultPeriod);
    if (out.inject_fault == "leak") {
      ev.kind = fault::FaultKind::kLeakCommit;
    } else if (out.inject_fault == "bypass") {
      ev.kind = fault::FaultKind::kBypassReorder;
    } else {
      std::fprintf(stderr, "fuzz_check: unknown fault '%s' (leak|bypass)\n",
                   out.inject_fault.c_str());
      return CliParseResult::kError;
    }
    out.opts.faults.push_back(ev);
  }
  return CliParseResult::kOk;
}

namespace {

/// The flags shared by both repro flavors: everything in RunOptions that is
/// off its default, EXCEPT the fault-schedule sources (handled per flavor).
std::string common_flags(const CliOptions& cli) {
  const RunOptions def;
  const RunOptions& o = cli.opts;
  std::string s;
  if (o.differential) s += " --differential";
  if (o.reconfig_updates > 0)
    s += " --reconfig " + std::to_string(o.reconfig_updates);
  if (o.horizon_override > 0)
    s += " --horizon-ms " +
         std::to_string(o.horizon_override / sim::milliseconds(1));
  if (o.batch_size > 0) s += " --batch " + std::to_string(o.batch_size);
  if (o.backend)
    s += std::string(" --backend ") + core::backend_kind_name(*o.backend);
  if (o.scheduler != def.scheduler) s += " --scheduler heap";
  if (cli.jobs != 1) s += " --jobs " + std::to_string(cli.jobs);
  return s;
}

std::string seed_prefix(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fuzz_check --seed 0x%llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

}  // namespace

std::string repro_command(const CliOptions& cli, std::uint64_t seed) {
  std::string s = seed_prefix(seed);
  if (cli.opts.chaos) s += " --chaos";
  if (cli.opts.campaign) s += " --campaign";
  if (cli.opts.storm_collision || cli.opts.storm_churn)
    s += std::string(" --storm ") +
         (cli.opts.storm_collision && cli.opts.storm_churn ? "both"
          : cli.opts.storm_collision                       ? "collision"
                                                           : "churn");
  if (!cli.inject_fault.empty()) s += " --inject-fault " + cli.inject_fault;
  // Explicit --fault-event tokens passed on the original command line (the
  // --inject-fault event is re-derived above, not re-emitted here).
  const std::size_t injected = cli.inject_fault.empty() ? 0 : 1;
  for (std::size_t i = 0; i + injected < cli.opts.faults.size(); ++i)
    s += " --fault-event " + fault::format_fault_event(cli.opts.faults[i]);
  s += common_flags(cli);
  s += " -v";
  return s;
}

std::string repro_command_with_faults(const CliOptions& cli,
                                      std::uint64_t seed,
                                      const fault::FaultSchedule& faults) {
  std::string s = seed_prefix(seed);
  for (const fault::FaultEvent& ev : faults)
    s += " --fault-event " + fault::format_fault_event(ev);
  s += common_flags(cli);
  s += " -v";
  return s;
}

}  // namespace flowvalve::check
