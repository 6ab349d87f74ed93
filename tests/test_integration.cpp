// Integration tests: the trial runner end-to-end (registry protocols,
// generators, seeding discipline, censoring) and cross-protocol
// comparisons that the benches rely on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/fit.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"

namespace pp {
namespace {

// `trials` trials of the registry protocol at n from `init`, on the
// runner's default pool.
TrialSet run(const std::string& protocol, u64 n, const ConfigGenerator& init,
             u64 trials, const std::string& label,
             u64 master_seed = kDefaultRootSeed,
             u64 max_interactions = ~static_cast<u64>(0)) {
  TrialSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.init = init;
  spec.label = label;
  spec.max_interactions = max_interactions;
  RunnerOptions opt;
  opt.trials = trials;
  opt.master_seed = master_seed;
  return run_trials(spec, opt);
}

TEST(Experiment, RunsRequestedTrials) {
  const TrialSet set =
      run("ag", 24, gen_uniform_random(), 4, "integration-measure");
  EXPECT_EQ(set.records.size(), 4u);
  EXPECT_EQ(set.stats.timeouts, 0u);
  EXPECT_EQ(set.stats.invalid, 0u);
  for (const double t : set.parallel_times()) EXPECT_GT(t, 0.0);
}

TEST(Experiment, IsReproducibleForSameSeed) {
  const auto times = [] {
    return run("ring-of-traps", 30, gen_uniform_random(), 3,
               "integration-repro", 42)
        .parallel_times();
  };
  EXPECT_EQ(times(), times());
}

TEST(Experiment, DifferentLabelsGiveDifferentStreams) {
  EXPECT_NE(run("ag", 24, gen_uniform_random(), 3, "stream-a")
                .parallel_times(),
            run("ag", 24, gen_uniform_random(), 3, "stream-b")
                .parallel_times());
}

TEST(Experiment, TimeoutsAreCountedAndCensored) {
  // A budget of 50 interactions is far too small for n = 64 from chaos.
  const TrialSet set = run("ag", 64, gen_all_in_state(0), 3,
                           "integration-timeout", kDefaultRootSeed, 50);
  EXPECT_EQ(set.stats.timeouts, 3u);
  for (const double t : set.parallel_times()) {
    EXPECT_DOUBLE_EQ(t, 50.0 / 64.0);
  }
}

TEST(Experiment, KDistantGeneratorPluggedIn) {
  const TrialSet set =
      run("ring-of-traps", 56, gen_k_distant(2), 3, "integration-kdistant");
  EXPECT_EQ(set.stats.timeouts, 0u);
}

// The headline comparison the paper motivates: with O(log n) extra states
// the tree protocol beats the quadratic baseline comfortably even at
// moderate n.
TEST(Integration, TreeBeatsAgAtModerateSize) {
  const u64 n = 256;
  const double ag =
      run("ag", n, gen_uniform_random(), 5, "integration-tree-vs-ag")
          .summary()
          .mean;
  const double tree =
      run("tree-ranking", n, gen_uniform_random(), 5,
          "integration-tree-vs-ag")
          .summary()
          .mean;
  EXPECT_LT(tree * 2, ag) << "tree=" << tree << " ag=" << ag;
}

// Ring beats AG when k is small (Theorem 1's regime k = o(sqrt n)).
TEST(Integration, RingBeatsAgForSmallK) {
  const u64 n = 210;  // 14 * 15
  const double ring =
      run("ring-of-traps", n, gen_k_distant(1), 5, "integration-ring-vs-ag")
          .summary()
          .mean;
  const double ag =
      run("ag", n, gen_k_distant(1), 5, "integration-ring-vs-ag")
          .summary()
          .mean;
  EXPECT_LT(ring, ag) << "ring=" << ring << " ag=" << ag;
}

// Sanity on the fitting pipeline over real measurements: AG's exponent over
// a small dyadic sweep should land near 2.
TEST(Integration, AgExponentRoughlyQuadratic) {
  std::vector<double> xs, ys;
  for (const u64 n : {32u, 64u, 128u}) {
    xs.push_back(static_cast<double>(n));
    ys.push_back(run("ag", n, gen_uniform_random(), 4,
                     "integration-ag-exponent")
                     .summary()
                     .mean);
  }
  const PowerFit f = fit_power(xs, ys);
  EXPECT_GT(f.exponent, 1.5);
  EXPECT_LT(f.exponent, 2.5);
}

}  // namespace
}  // namespace pp
