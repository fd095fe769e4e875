// fvctl's flag validation, checked by running the example binary: a
// malformed, negative, non-finite or out-of-range value, an unknown flag or
// a flag without its value exits 2 with the usage text before any
// simulation is built, and well-formed flags still run. An update file
// whose delta prio= does not fit a priority level, or whose weight= is not
// one finite number, fails its parse. A run shorter than a second prints
// a throughput table whose rows each cover their own interval.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

Outcome run_fvctl(const std::string& args) {
  const std::string cmd = std::string(FVCTL_PATH) + " " + args + " 2>&1";
  Outcome o;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return o;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) o.output.append(buf, n);
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) o.exit_code = WEXITSTATUS(status);
  return o;
}

const std::string kRun = std::string("run ") + FVCTL_POLICY;

TEST(FvctlCli, RejectsBadFlagsWithUsage) {
  for (const char* flags : {
           "--apps -1",       // a cast would make it 4294967295 apps
           "--conns -1",      // ... or connections
           "--apps 2x",       // trailing junk
           "--apps 0",
           "--seed abc",      // not a number, so not seed 0
           "--seed -3",
           "--seconds 1e300", // overflows SimTime
           "--seconds 0",
           "--seconds nan",
           "--seconds inf",
           "--at-ms 1e300",
           "--at-ms -1",
           "--wire 0",        // NpConfig::validate() would throw
           "--wire -40",
           "--wire nan",      // NpConfig::validate() would let it through
           "--apps",          // a flag without its value
           "--apps 2 --seconds",
           "--bogus 1",
       }) {
    SCOPED_TRACE(flags);
    const Outcome o = run_fvctl(kRun + " " + flags);
    EXPECT_EQ(o.exit_code, 2);
    EXPECT_NE(o.output.find("usage:"), std::string::npos) << o.output;
  }
}

TEST(FvctlCli, RunsWithWellFormedFlags) {
  const Outcome o = run_fvctl(
      kRun + " --apps 2 --conns 1 --seconds 0.02 --wire 10 --seed 0x2a --at-ms 0");
  EXPECT_EQ(o.exit_code, 0) << o.output;
  EXPECT_NE(o.output.find("2 apps × 1 conns | wire 10G"), std::string::npos)
      << o.output;
  EXPECT_NE(o.output.find("seed 42"), std::string::npos) << o.output;
}

TEST(FvctlCli, ShortRunTableResolvesEachRow) {
  // The table has ten rows of seconds/10. A run shorter than a second must
  // still label each row with its own interval and bin each row on its own,
  // not print one 100-ms bin (and "0.0-  0.0") on every row.
  const Outcome o = run_fvctl(kRun + " --seconds 0.05");
  EXPECT_EQ(o.exit_code, 0) << o.output;
  EXPECT_NE(o.output.find("| 0.05s |"), std::string::npos) << o.output;
  std::set<std::string> labels;
  std::set<std::string> rates;
  std::istringstream lines(o.output);
  for (std::string line; std::getline(lines, line);) {
    // Data rows look like "|   0.005-  0.010 | 4.59       | ...".
    if (line.size() < 2 || line[0] != '|' || line.find("t(s)") != std::string::npos ||
        line.find("---") != std::string::npos)
      continue;
    const std::size_t cut = line.find('|', 1);
    ASSERT_NE(cut, std::string::npos) << line;
    labels.insert(line.substr(1, cut - 1));
    rates.insert(line.substr(cut));
  }
  EXPECT_EQ(labels.size(), 10u) << o.output;
  EXPECT_NE(o.output.find("|   0.045-  0.050 |"), std::string::npos) << o.output;
  EXPECT_GT(rates.size(), 1u) << o.output;
}

TEST(FvctlCli, ApplyRejectsAPrioOutsideItsByte) {
  // A delta's prio= is a PrioLevel, which a cast would wrap: 256 to prio 0
  // and -1 to 255. Either must fail the update file's parse, before any
  // simulation.
  const std::string update = ::testing::TempDir() + "fvctl_cli_prio.update";
  for (const char* prio : {"256", "-1", "1x"}) {
    SCOPED_TRACE(prio);
    std::ofstream(update) << "delta gold prio=" << prio << "\n";
    const Outcome o = run_fvctl(std::string("apply ") + FVCTL_POLICY + " " +
                                update + " --seconds 0.02");
    EXPECT_EQ(o.exit_code, 1) << o.output;
    EXPECT_NE(o.output.find("update parse error: bad value for 'prio'"),
              std::string::npos)
        << o.output;
  }
  std::ofstream(update) << "delta gold prio=255\n";
  const Outcome o = run_fvctl(std::string("apply ") + FVCTL_POLICY + " " +
                              update + " --seconds 0.02");
  EXPECT_EQ(o.output.find("update parse error"), std::string::npos) << o.output;
  std::remove(update.c_str());
}

TEST(FvctlCli, ApplyRejectsAWeightThatIsNotAFiniteNumber) {
  // A delta's weight= must be one whole finite number: std::stod read
  // `3abc` as 3 and the update committed. Each input must fail the
  // update file's parse, so nothing commits.
  const std::string update = ::testing::TempDir() + "fvctl_cli_weight.update";
  const std::string apply =
      std::string("apply ") + FVCTL_POLICY + " " + update + " --seconds 0.02";
  for (const char* weight : {"3abc", "nan", "inf"}) {
    SCOPED_TRACE(weight);
    std::ofstream(update) << "delta gold weight=" << weight << "\n";
    const Outcome o = run_fvctl(apply);
    EXPECT_EQ(o.exit_code, 1) << o.output;
    EXPECT_NE(o.output.find("update parse error: bad value for 'weight'"),
              std::string::npos)
        << o.output;
    EXPECT_EQ(o.output.find("committed"), std::string::npos) << o.output;
  }
  std::ofstream(update) << "delta gold weight=3\n";
  const Outcome o = run_fvctl(apply);
  EXPECT_EQ(o.exit_code, 0) << o.output;
  EXPECT_NE(o.output.find("committed epoch"), std::string::npos) << o.output;
  std::remove(update.c_str());
}

}  // namespace
