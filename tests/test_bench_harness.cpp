// The BENCH programs' shared harness: the gate's record/check round trip,
// the flag parser, and the interleaved wall-clock comparison.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "harness.h"

namespace flowvalve::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int publish_latency(const Args& args, double value) {
  Artifact a("test");
  a.gate({"latency_ns", GateRule::kAtMost, 1.10, 500.0}, value);
  return a.publish(args);
}

TEST(BenchHarness, RecordDerivesTheLimitAndCheckHoldsRunsToIt) {
  Args record;
  record.out = ::testing::TempDir() + "bench_harness_base.json";
  ASSERT_EQ(publish_latency(record, 1000.0), 0);
  const std::string base = slurp(record.out);
  EXPECT_NE(base.find("\"host\":{\"nproc\":"), std::string::npos);
  EXPECT_NE(base.find("{\"metric\":\"latency_ns\",\"value\":1000,"
                      "\"limit\":1600}"),
            std::string::npos);

  Args check;
  check.check = record.out;
  EXPECT_EQ(publish_latency(check, 1600.0), 0);
  EXPECT_EQ(publish_latency(check, 1601.0), 1);

  // A check still writes --out, carrying the baseline's limit.
  check.out = ::testing::TempDir() + "bench_harness_out.json";
  EXPECT_EQ(publish_latency(check, 1200.0), 0);
  EXPECT_NE(slurp(check.out).find("\"value\":1200,\"limit\":1600"),
            std::string::npos);
}

TEST(BenchHarness, CheckFailsWithoutTheBaselineOrItsEntry) {
  Args record;
  record.out = ::testing::TempDir() + "bench_harness_entry.json";
  ASSERT_EQ(publish_latency(record, 1000.0), 0);

  Artifact other("test");
  other.gate({"committed", GateRule::kAtLeast, 1.0, 0.0}, 5.0);
  Args check;
  check.check = record.out;
  EXPECT_EQ(other.publish(check), 1);

  check.check = ::testing::TempDir() + "bench_harness_missing.json";
  EXPECT_EQ(publish_latency(check, 1000.0), 1);
}

TEST(BenchHarness, RecordingMissesOnlyAFixedFloor) {
  Args record;
  record.out = ::testing::TempDir() + "bench_harness_floor.json";
  auto hit_rate = [&](double value) {
    Artifact a("test");
    a.gate({"steady_hit_rate", GateRule::kAtLeast, 0.0, 0.90}, value);
    return a.publish(record);
  };
  EXPECT_EQ(hit_rate(0.95), 0);
  EXPECT_EQ(hit_rate(0.85), 1);
}

TEST(BenchHarness, ParsesTheSharedFlags) {
  char prog[] = "bench", quick[] = "--quick", check[] = "--check",
       file[] = "base.json", jobs[] = "--jobs", zero[] = "0";
  char* argv[] = {prog, quick, check, file, jobs, zero};
  const Args a = parse_args(6, argv, "bench", "BENCH_x.json", kCheck | kJobs);
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.check, "base.json");
  EXPECT_EQ(a.out, "");  // a check writes only an explicit --out
  EXPECT_EQ(a.jobs, 0u);

  char* bare[] = {prog};
  EXPECT_EQ(parse_args(1, bare, "bench", "BENCH_x.json", 0).out,
            "BENCH_x.json");
}

TEST(BenchHarness, RejectsFlagsTheProgramDoesNotTake) {
  char prog[] = "bench", jobs[] = "--jobs", two[] = "2", tol[] = "--tolerance";
  char* with_jobs[] = {prog, jobs, two};
  EXPECT_EXIT(parse_args(3, with_jobs, "bench", "BENCH_x.json", kCheck),
              ::testing::ExitedWithCode(2), "usage: bench");
  char* with_tolerance[] = {prog, tol, two};
  EXPECT_EXIT(parse_args(3, with_tolerance, "bench", "BENCH_x.json",
                         kCheck | kJobs),
              ::testing::ExitedWithCode(2), "usage: bench");
}

TEST(BenchHarness, RejectsMalformedJobCounts) {
  char prog[] = "bench", jobs[] = "--jobs";
  for (const char* bad : {"", "-1", "+2", " 2", "1O0", "2x", "0x", "0x0x10",
                          "abc", "4294967296", "99999999999999999999"}) {
    std::string value = bad;
    char* argv[] = {prog, jobs, value.data()};
    EXPECT_EXIT(parse_args(3, argv, "bench", "BENCH_x.json", kJobs),
                ::testing::ExitedWithCode(2), "bench: --jobs .*got '")
        << "'" << bad << "'";
  }
  // Hex only after 0x; a leading 0 is decimal, not octal.
  for (const auto& [text, jobs_wanted] :
       {std::pair{"0x10", 16u}, std::pair{"010", 10u}, std::pair{"09", 9u}}) {
    std::string value = text;
    char* argv[] = {prog, jobs, value.data()};
    EXPECT_EQ(parse_args(3, argv, "bench", "BENCH_x.json", kJobs).jobs, jobs_wanted)
        << "'" << text << "'";
  }
}

TEST(BenchHarness, InterleaveAlternatesOrderAfterAWarmUpPair) {
  std::string order;
  const Interleaved r = interleave(
      [&] {
        order += 'n';
        return 3.0;
      },
      [&] {
        order += 'd';
        return 2.0;
      });
  EXPECT_EQ(order.substr(0, 8), "ndnddnnd");
  EXPECT_EQ(order.size(), 2 * (kPairs + 1));
  ASSERT_EQ(r.num.size(), kPairs);
  EXPECT_DOUBLE_EQ(r.ratio, 1.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

}  // namespace
}  // namespace flowvalve::bench
