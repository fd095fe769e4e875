// Tier-1 coverage for the parallel corpus runner: the sequential-equivalence
// oracle (every seed's CheckReport under --jobs N is bit-identical to the
// --jobs 1 reference, across scenario families, backends, and batch sizes)
// and per-task crash isolation (a throwing or checker-violating seed becomes
// a structured failure record while the remaining seeds complete and merge).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/runner.h"
#include "core/scheduler_backend.h"
#include "fault/fault.h"

namespace flowvalve::check {
namespace {

// A permanent (never-clearing) injected pipeline bug — the same
// checker-validation fault test_check_fuzz uses to prove checkers fire.
fault::FaultEvent permanent_bug(fault::FaultKind kind, std::uint64_t every) {
  fault::FaultEvent ev;
  ev.kind = kind;
  ev.at = 0;
  ev.duration = 0;
  ev.period = static_cast<sim::SimDuration>(every);
  return ev;
}

std::vector<std::uint64_t> corpus(std::uint64_t n) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= n; ++s) seeds.push_back(s);
  return seeds;
}

/// The oracle itself: run the corpus at jobs=1 and jobs=8 and demand
/// bit-identical fingerprints for every seed.
void expect_parallel_equals_sequential(const std::vector<std::uint64_t>& seeds,
                                       const RunOptions& opts,
                                       const char* label) {
  const std::vector<SeedOutcome> seq = run_corpus(seeds, opts, /*jobs=*/1);
  const std::vector<SeedOutcome> par = run_corpus(seeds, opts, /*jobs=*/8);
  ASSERT_EQ(seq.size(), seeds.size()) << label;
  ASSERT_EQ(par.size(), seeds.size()) << label;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seq[i].seed, seeds[i]) << label;
    EXPECT_EQ(par[i].seed, seeds[i]) << label;
    ASSERT_FALSE(seq[i].crashed) << label << ": " << seq[i].crash_what;
    ASSERT_FALSE(par[i].crashed) << label << ": " << par[i].crash_what;
    EXPECT_EQ(report_fingerprint(seq[i].report),
              report_fingerprint(par[i].report))
        << label << ": seed " << seeds[i]
        << " diverges between jobs=1 and jobs=8";
  }
}

TEST(ParallelCorpus, StandardSeedsBitIdentical) {
  expect_parallel_equals_sequential(corpus(8), RunOptions{}, "standard");
}

TEST(ParallelCorpus, ChaosSeedsBitIdentical) {
  RunOptions opts;
  opts.chaos = true;
  expect_parallel_equals_sequential(corpus(4), opts, "chaos");
}

TEST(ParallelCorpus, ChaosWithStormsAndBatchBitIdentical) {
  RunOptions opts;
  opts.chaos = true;
  opts.storm_collision = true;
  opts.storm_churn = true;
  opts.batch_size = 32;
  expect_parallel_equals_sequential(corpus(3), opts, "chaos+storms+batch32");
}

TEST(ParallelCorpus, ReconfigSeedsBitIdentical) {
  RunOptions opts;
  opts.reconfig_updates = 2;
  expect_parallel_equals_sequential(corpus(3), opts, "reconfig");
}

TEST(ParallelCorpus, EveryBackendEveryBatchBitIdentical) {
  for (core::BackendKind backend :
       {core::BackendKind::kFlowValve, core::BackendKind::kStfq,
        core::BackendKind::kEiffel}) {
    for (unsigned batch : {1u, 32u}) {
      RunOptions opts;
      opts.backend = backend;
      opts.batch_size = batch;
      const std::string label = std::string(core::backend_kind_name(backend)) +
                                "/batch" + std::to_string(batch);
      expect_parallel_equals_sequential(corpus(2), opts, label.c_str());
    }
  }
}

// A seed whose scenario escapes with an exception must surface as a
// structured crash record in its own slot — and every other seed must
// complete and merge with a fingerprint identical to an all-clean run.
TEST(ParallelCorpus, ThrowingSeedIsIsolated) {
  const std::vector<std::uint64_t> seeds = corpus(6);
  constexpr std::uint64_t kBadSeed = 4;
  const auto body = [](std::uint64_t seed) {
    if (seed == kBadSeed)
      throw std::runtime_error("scenario blew up (deliberate)");
    return run_seed(seed, RunOptions{});
  };
  const std::vector<SeedOutcome> clean =
      run_corpus(seeds, RunOptions{}, /*jobs=*/1);
  for (unsigned jobs : {1u, 8u}) {
    const std::vector<SeedOutcome> got = run_corpus_with(seeds, body, jobs);
    ASSERT_EQ(got.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      if (seeds[i] == kBadSeed) {
        EXPECT_TRUE(got[i].crashed);
        EXPECT_EQ(got[i].crash_what, "scenario blew up (deliberate)");
        EXPECT_FALSE(got[i].ok());
      } else {
        ASSERT_FALSE(got[i].crashed) << got[i].crash_what;
        EXPECT_EQ(report_fingerprint(got[i].report),
                  report_fingerprint(clean[i].report))
            << "seed " << seeds[i] << " perturbed by the crashed seed";
      }
    }
  }
}

// The corpus digest fuzz_check prints is the same at any job count, and
// one seed's report changing (or crashing) changes it.
TEST(ParallelCorpus, DigestIsJobCountFreeAndSeesOneSeedChange) {
  const std::vector<std::uint64_t> seeds = corpus(4);
  RunOptions opts;
  opts.chaos = true;
  const std::vector<SeedOutcome> seq = run_corpus(seeds, opts, /*jobs=*/1);
  const std::uint64_t digest = corpus_digest(seq);
  EXPECT_EQ(corpus_digest(run_corpus(seeds, opts, /*jobs=*/2)), digest);

  std::vector<SeedOutcome> changed = seq;
  ++changed[2].report.events;
  EXPECT_NE(corpus_digest(changed), digest);

  std::vector<SeedOutcome> crashed = seq;
  crashed[2].crashed = true;
  crashed[2].crash_what = "boom";
  crashed[2].report = CheckReport{};
  EXPECT_NE(corpus_digest(crashed), digest);
}

// A seed that violates an invariant checker (injected packet leak) is not a
// crash: it completes with a violation-carrying report, in its own slot,
// while the other seeds stay clean — at any job count.
TEST(ParallelCorpus, ViolatingSeedIsIsolated) {
  const std::vector<std::uint64_t> seeds = corpus(5);
  constexpr std::uint64_t kLeakySeed = 2;
  const auto body = [](std::uint64_t seed) {
    RunOptions opts;
    if (seed == kLeakySeed)
      opts.faults.push_back(permanent_bug(fault::FaultKind::kLeakCommit, 97));
    return run_seed(seed, opts);
  };
  for (unsigned jobs : {1u, 8u}) {
    const std::vector<SeedOutcome> got = run_corpus_with(seeds, body, jobs);
    ASSERT_EQ(got.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_FALSE(got[i].crashed) << got[i].crash_what;
      if (seeds[i] == kLeakySeed) {
        EXPECT_FALSE(got[i].ok());
        EXPECT_GT(got[i].report.violation_total, 0u);
      } else {
        EXPECT_TRUE(got[i].ok()) << got[i].report.summary();
      }
    }
  }
}

}  // namespace
}  // namespace flowvalve::check
