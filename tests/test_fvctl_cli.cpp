// fvctl's flag validation, checked by running the example binary: a
// malformed, negative, non-finite or out-of-range value, an unknown flag or
// a flag without its value exits 2 with the usage text before any
// simulation is built, and well-formed flags still run.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
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

}  // namespace
