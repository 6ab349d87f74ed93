// Unit tests for the RNG stack: determinism, uniformity, geometric
// skipping, pair sampling, distinct sampling.
#include "rng/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rng/seed_sequence.hpp"
#include "rng/splitmix64.hpp"

namespace pp {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  EXPECT_NE(SplitMix64(1).next(), SplitMix64(2).next());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (const u64 bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(5);
  const u64 kBuckets = 10;
  const int kDraws = 200000;
  std::vector<int> hits(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hits[rng.below(kBuckets)];
  for (const int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / kDraws, 0.1, 0.01);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all of 5..8 hit in 1000 draws
}

TEST(Rng, Real01InHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.real01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Real01OpenLeftNeverZero) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.real01_open_left();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, GeometricFailuresEdgeCases) {
  Rng rng(8);
  EXPECT_EQ(rng.geometric_failures(1.0), 0u);
  EXPECT_EQ(rng.geometric_failures(0.0), Rng::kGeometricInfinity);
  EXPECT_EQ(rng.geometric_failures(2.0), 0u);
}

TEST(Rng, GeometricFailuresMeanMatchesTheory) {
  // E[failures] = (1-p)/p.
  Rng rng(11);
  for (const double p : {0.5, 0.1, 0.01}) {
    const int kDraws = 100000;
    double sum = 0;
    for (int i = 0; i < kDraws; ++i) {
      sum += static_cast<double>(rng.geometric_failures(p));
    }
    const double expect = (1.0 - p) / p;
    const double got = sum / kDraws;
    EXPECT_NEAR(got, expect, expect * 0.05 + 0.02) << "p=" << p;
  }
}

TEST(Rng, GeometricFailuresTinyProbabilityHasFiniteHugeMean) {
  Rng rng(12);
  const double p = 1e-9;
  double sum = 0;
  const int kDraws = 200;
  for (int i = 0; i < kDraws; ++i) {
    const u64 f = rng.geometric_failures(p);
    ASSERT_NE(f, Rng::kGeometricInfinity);
    sum += static_cast<double>(f);
  }
  const double mean = sum / kDraws;
  EXPECT_GT(mean, 1e8);  // should be around 1e9
  EXPECT_LT(mean, 1e10);
}

TEST(Rng, GeometricFailuresTruncatedStaysBelowBound) {
  Rng rng(31);
  for (const double p : {0.9, 0.3, 0.01, 1e-6}) {
    for (const u64 bound : {1ull, 2ull, 7ull, 100ull}) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_LT(rng.geometric_failures_truncated(p, bound), bound);
      }
    }
  }
  // p = 1 always succeeds immediately.
  EXPECT_EQ(rng.geometric_failures_truncated(1.0, 50), 0u);
}

TEST(Rng, GeometricFailuresTruncatedMatchesConditionedDistribution) {
  // The truncated sampler must agree with "sample Geometric(p), condition
  // on < bound" — compare frequencies against the exact conditional pmf
  // q^k p / (1 - q^bound).
  Rng rng(32);
  const double p = 0.25;
  const u64 bound = 6;
  const int kDraws = 60000;
  std::vector<int> freq(bound, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++freq[rng.geometric_failures_truncated(p, bound)];
  }
  const double mass = 1.0 - std::pow(1.0 - p, static_cast<double>(bound));
  for (u64 k = 0; k < bound; ++k) {
    const double expected =
        kDraws * std::pow(1.0 - p, static_cast<double>(k)) * p / mass;
    EXPECT_NEAR(freq[k], expected, 5 * std::sqrt(expected) + 5) << k;
  }
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(33);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(rng.binomial(10, 0.3), 10u);
  }
}

TEST(Rng, BinomialMomentsMatchTheory) {
  Rng rng(34);
  // Both the sparse path and the p > 1/2 complement path.
  for (const double p : {0.02, 0.3, 0.8}) {
    const u64 m = 50;
    const int kDraws = 20000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < kDraws; ++i) {
      const double x = static_cast<double>(rng.binomial(m, p));
      sum += x;
      sum2 += x * x;
    }
    const double mean = sum / kDraws;
    const double var = sum2 / kDraws - mean * mean;
    const double expect_mean = m * p;
    const double expect_var = m * p * (1 - p);
    EXPECT_NEAR(mean, expect_mean, 5 * std::sqrt(expect_var / kDraws)) << p;
    EXPECT_NEAR(var, expect_var, 0.1 * expect_var + 0.05) << p;
  }
}

TEST(Rng, BinomialMatchesNaiveBernoulliAtExtremeParameters) {
  // The dynamic-graph flip stream leans on binomial() far outside the
  // comfortable m*p regime, so fuzz the geometric-jump sampler against the
  // definitional reference — m independent Bernoulli(p) trials — exactly
  // at the extremes: degenerate p, denormal-adjacent p, the p > 1/2
  // complement path, and m from 0 to 10^6.
  Rng fast(101);
  Rng naive(202);
  const double kP[] = {0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0};
  const u64 kM[] = {0, 1, 1000000};
  for (const u64 m : kM) {
    for (const double p : kP) {
      const int k_fast = m > 1000 ? 500 : 20000;
      const int k_naive = m > 1000 ? 20 : 20000;
      double fast_sum = 0;
      for (int d = 0; d < k_fast; ++d) {
        const u64 x = fast.binomial(m, p);
        ASSERT_LE(x, m) << "m=" << m << " p=" << p;
        fast_sum += static_cast<double>(x);
      }
      double naive_sum = 0;
      for (int d = 0; d < k_naive; ++d) {
        u64 x = 0;
        for (u64 i = 0; i < m; ++i) {
          if (naive.bernoulli(p)) ++x;
        }
        naive_sum += static_cast<double>(x);
      }
      const double fast_mean = fast_sum / k_fast;
      const double naive_mean = naive_sum / k_naive;
      const double var = static_cast<double>(m) * p * (1.0 - p);
      if (var * k_naive >= 25.0) {
        // Enough mass for the normal approximation: Welch-style z-bound
        // on the difference of sample means.
        const double sd = std::sqrt(var * (1.0 / k_fast + 1.0 / k_naive));
        EXPECT_LE(std::fabs(fast_mean - naive_mean), 6.0 * sd)
            << "m=" << m << " p=" << p << " fast=" << fast_mean
            << " naive=" << naive_mean;
      } else {
        // Near-deterministic regime (p in {0,1} exactly, or so extreme
        // that a success/failure is a <= 1e-3-probability event across
        // the whole sample): both samplers must hug the deterministic
        // value, with a tiny allowance for the rare-event tail.
        const double det = p > 0.5 ? static_cast<double>(m) : 0.0;
        EXPECT_LE(std::fabs(fast_sum - det * k_fast), 5.0)
            << "m=" << m << " p=" << p;
        EXPECT_LE(std::fabs(naive_sum - det * k_naive), 5.0)
            << "m=" << m << " p=" << p;
      }
    }
  }
}

TEST(Rng, OrderedPairDistinct) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const auto [a, b] = rng.ordered_pair(5);
    EXPECT_NE(a, b);
    EXPECT_LT(a, 5u);
    EXPECT_LT(b, 5u);
  }
}

TEST(Rng, OrderedPairCoversAllPairsUniformly) {
  Rng rng(14);
  const u64 n = 4;
  std::vector<int> hits(n * n, 0);
  const int kDraws = 120000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = rng.ordered_pair(n);
    ++hits[a * n + b];
  }
  const double expect = static_cast<double>(kDraws) / (n * (n - 1));
  for (u64 a = 0; a < n; ++a) {
    for (u64 b = 0; b < n; ++b) {
      if (a == b) {
        EXPECT_EQ(hits[a * n + b], 0);
      } else {
        EXPECT_NEAR(hits[a * n + b], expect, expect * 0.1);
      }
    }
  }
}

TEST(Rng, SampleDistinctProducesDistinctValues) {
  Rng rng(15);
  for (const u64 k : {0u, 1u, 3u, 10u, 50u, 100u}) {
    const auto v = rng.sample_distinct(100, k);
    EXPECT_EQ(v.size(), k);
    std::set<u64> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), k);
    for (const u64 x : v) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleDistinctFullRangeIsPermutation) {
  Rng rng(16);
  auto v = rng.sample_distinct(10, 10);
  std::sort(v.begin(), v.end());
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(v[i], i);
}

TEST(Rng, SampleDistinctIsUniformish) {
  Rng rng(17);
  std::vector<int> hits(20, 0);
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    for (const u64 x : rng.sample_distinct(20, 3)) ++hits[x];
  }
  const double expect = kDraws * 3.0 / 20.0;
  for (const int h : hits) EXPECT_NEAR(h, expect, expect * 0.1);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(18);
  std::vector<int> v{1, 2, 2, 3, 4, 5, 5, 5};
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(19);
  Rng b = a.split();
  // The two streams should disagree quickly.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.bits() == b.bits()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SeedSequence, DistinctLabelsAndIndices) {
  const u64 root = 99;
  std::set<u64> seeds;
  for (const char* label : {"a", "b", "experiment-1"}) {
    for (u64 i = 0; i < 10; ++i) seeds.insert(derive_seed(root, label, i));
  }
  EXPECT_EQ(seeds.size(), 30u);
}

TEST(SeedSequence, DeterministicDerivation) {
  EXPECT_EQ(derive_seed(1, "x", 2), derive_seed(1, "x", 2));
  EXPECT_NE(derive_seed(1, "x", 2), derive_seed(2, "x", 2));
}

}  // namespace
}  // namespace pp
