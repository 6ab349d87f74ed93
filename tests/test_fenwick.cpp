// Unit tests for the Fenwick tree (a cache-line B-ary sum tree) with
// weighted sampling.
#include "ds/fenwick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "rng/random.hpp"

namespace pp {
namespace {

TEST(Fenwick, EmptyTreeHasZeroTotal) {
  Fenwick f(10);
  EXPECT_EQ(f.total(), 0u);
  EXPECT_EQ(f.size(), 10u);
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(f.get(i), 0u);
}

TEST(Fenwick, AddAndGet) {
  Fenwick f(8);
  f.add(3, 5);
  f.add(7, 2);
  EXPECT_EQ(f.get(3), 5u);
  EXPECT_EQ(f.get(7), 2u);
  EXPECT_EQ(f.total(), 7u);
  f.add(3, -5);
  EXPECT_EQ(f.get(3), 0u);
  EXPECT_EQ(f.total(), 2u);
}

TEST(Fenwick, SetOverwrites) {
  Fenwick f(4);
  f.set(1, 10);
  f.set(1, 3);
  EXPECT_EQ(f.get(1), 3u);
  EXPECT_EQ(f.total(), 3u);
}

TEST(Fenwick, PrefixSums) {
  Fenwick f(6);
  const u64 w[6] = {1, 0, 4, 2, 0, 3};
  for (u64 i = 0; i < 6; ++i) f.set(i, w[i]);
  u64 expect = 0;
  for (u64 i = 0; i <= 6; ++i) {
    EXPECT_EQ(f.prefix(i), expect) << "prefix " << i;
    if (i < 6) expect += w[i];
  }
}

TEST(Fenwick, FindReturnsBucketOfTarget) {
  Fenwick f(5);
  // weights: 2, 0, 3, 1, 0 -> cumulative 2, 2, 5, 6, 6
  f.set(0, 2);
  f.set(2, 3);
  f.set(3, 1);
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(1), 0u);
  EXPECT_EQ(f.find(2), 2u);
  EXPECT_EQ(f.find(3), 2u);
  EXPECT_EQ(f.find(4), 2u);
  EXPECT_EQ(f.find(5), 3u);
}

TEST(Fenwick, FindNeverReturnsZeroWeightIndex) {
  Fenwick f(16);
  for (u64 i = 0; i < 16; i += 2) f.set(i, i + 1);  // odd indices stay 0
  for (u64 t = 0; t < f.total(); ++t) {
    const u64 idx = f.find(t);
    EXPECT_GT(f.get(idx), 0u) << "target " << t;
  }
}

TEST(Fenwick, SizeOneTree) {
  Fenwick f(1);
  f.set(0, 4);
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(3), 0u);
  EXPECT_EQ(f.prefix(1), 4u);
}

TEST(Fenwick, NonPowerOfTwoSizes) {
  for (const u64 size : {3u, 5u, 7u, 9u, 100u, 1000u}) {
    Fenwick f(size);
    for (u64 i = 0; i < size; ++i) f.set(i, i % 3);
    u64 total = 0;
    for (u64 i = 0; i < size; ++i) total += i % 3;
    EXPECT_EQ(f.total(), total) << "size " << size;
    if (total > 0) {
      EXPECT_GT(f.get(f.find(total - 1)), 0u);
      EXPECT_EQ(f.find(0), 1u) << "first positive weight is at index 1";
    }
  }
}

TEST(Fenwick, ResetClears) {
  Fenwick f(4);
  f.set(2, 9);
  f.reset(6);
  EXPECT_EQ(f.size(), 6u);
  EXPECT_EQ(f.total(), 0u);
}

TEST(Fenwick, RandomizedAgainstNaive) {
  Rng rng(123);
  Fenwick f(37);
  std::vector<u64> naive(37, 0);
  for (int step = 0; step < 2000; ++step) {
    const u64 i = rng.below(37);
    const u64 w = rng.below(20);
    f.set(i, w);
    naive[i] = w;
    // Spot-check prefix at a random index.
    const u64 q = rng.below(38);
    u64 expect = 0;
    for (u64 j = 0; j < q; ++j) expect += naive[j];
    ASSERT_EQ(f.prefix(q), expect);
  }
  // Exhaustive find() check against cumulative sums.
  u64 cum = 0;
  for (u64 i = 0; i < 37; ++i) {
    for (u64 t = cum; t < cum + naive[i]; ++t) ASSERT_EQ(f.find(t), i);
    cum += naive[i];
  }
}

TEST(Fenwick, AssignMatchesPointwiseConstruction) {
  // The O(n) bulk builder must be indistinguishable from reset() + set()s
  // across sizes that exercise every tree shape (powers of two, one off,
  // tiny, empty-suffix).
  Rng rng(88);
  for (const u64 size : {1ull, 2ull, 7ull, 8ull, 9ull, 64ull, 100ull}) {
    std::vector<u64> weights(size);
    for (u64 i = 0; i < size; ++i) weights[i] = rng.below(50);
    Fenwick bulk;
    bulk.assign(weights);
    Fenwick pointwise(size);
    for (u64 i = 0; i < size; ++i) pointwise.set(i, weights[i]);
    ASSERT_EQ(bulk.size(), pointwise.size());
    EXPECT_EQ(bulk.total(), pointwise.total());
    for (u64 i = 0; i <= size; ++i) {
      EXPECT_EQ(bulk.prefix(i), pointwise.prefix(i)) << size << ":" << i;
    }
    for (u64 t = 0; t < bulk.total(); ++t) {
      ASSERT_EQ(bulk.find(t), pointwise.find(t)) << size << ":" << t;
    }
    // And it stays a live tree: point updates after a bulk build work.
    if (size >= 2) {
      bulk.add(1, 5);
      pointwise.add(1, 5);
      EXPECT_EQ(bulk.prefix(size), pointwise.prefix(size));
      EXPECT_EQ(bulk.find(bulk.total() - 1), pointwise.find(bulk.total() - 1));
    }
  }
}

// ---- differential test at every tree-shape boundary -----------------------

// Every size 1..600 (leaf level only, then 2 and 3 levels, every partial
// last group), plus 8^k - 1, 8^k and 8^k + 1 for k <= 5 (one level more or
// less, a full or a one-entry top group).
std::vector<u64> boundary_sizes() {
  std::vector<u64> sizes;
  for (u64 n = 1; n <= 600; ++n) sizes.push_back(n);
  for (u64 p = 8 * 8 * 8 * 8; p <= 8 * 8 * 8 * 8 * 8; p *= 8) {
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  return sizes;
}

// Both find() overloads at `target`, whose slot is expected to be i with
// prefix(i) == before: the same slot, and an offset of exactly
// target - prefix(i), inside slot i.
void expect_find(const Fenwick& f, u64 target, u64 i, u64 before, u64 size) {
  ASSERT_EQ(f.find(target), i) << size << " find " << target;
  u64 offset = ~u64{0};
  ASSERT_EQ(f.find(target, offset), i) << size << " find " << target;
  ASSERT_EQ(offset, target - before) << size << " offset at " << target;
  ASSERT_LT(offset, f.get(i)) << size << " offset at " << target;
}

// Checks every observable of `f` against the naive weight vector: size,
// total, get, prefix at every index (prefix(size()) == total() included),
// and both find overloads at both ends of every positive slot's target
// range — which also proves find never returns a zero-weight slot.
void expect_matches(const Fenwick& f, const std::vector<u64>& naive,
                    u64 size) {
  ASSERT_EQ(f.size(), naive.size()) << size;
  u64 cum = 0;
  for (u64 i = 0; i <= naive.size(); ++i) {
    ASSERT_EQ(f.prefix(i), cum) << size << " prefix " << i;
    if (i == naive.size()) break;
    ASSERT_EQ(f.get(i), naive[i]) << size << " get " << i;
    if (naive[i] > 0) {
      ASSERT_NO_FATAL_FAILURE(expect_find(f, cum, i, cum, size));
      ASSERT_NO_FATAL_FAILURE(
          expect_find(f, cum + naive[i] - 1, i, cum, size));
    }
    cum += naive[i];
  }
  ASSERT_EQ(f.total(), cum) << size;
  ASSERT_EQ(f.prefix(f.size()), f.total()) << size;
  ASSERT_EQ(f.weights(), naive) << size;
}

// The slot holding `target` and the prefix before it, by linear scan.
std::pair<u64, u64> naive_find(const std::vector<u64>& w, u64 target) {
  u64 i = 0;
  u64 before = 0;
  while (before + w[i] <= target) before += w[i++];
  return {i, before};
}

TEST(Fenwick, BoundaryDifferentialAgainstNaivePrefixes) {
  Rng rng(2026);
  for (const u64 size : boundary_sizes()) {
    // A quarter of the slots start at zero; one in eight is large, so
    // partial sums carry into high bits.
    std::vector<u64> naive(size);
    for (u64& w : naive) {
      const u64 kind = rng.below(8);
      w = kind < 2 ? 0 : kind == 7 ? rng.below(u64{1} << 40) : rng.below(9);
    }
    Fenwick f;
    f.assign(naive);
    ASSERT_NO_FATAL_FAILURE(expect_matches(f, naive, size));
    const u64 ops = size <= 600 ? 48 : 512;
    for (u64 op = 0; op < ops; ++op) {
      const u64 i = rng.below(size);
      switch (rng.below(6)) {
        case 0: {  // add, either sign
          const i64 delta = rng.below(2) == 0
                                ? static_cast<i64>(rng.below(100))
                                : -static_cast<i64>(rng.below(naive[i] + 1));
          f.add(i, delta);
          naive[i] = static_cast<u64>(static_cast<i64>(naive[i]) + delta);
          break;
        }
        case 1: {  // set, often to zero
          const u64 w = rng.below(3) == 0 ? 0 : rng.below(1000);
          f.set(i, w);
          naive[i] = w;
          break;
        }
        case 2: {  // prefix at any index, the end included
          const u64 q = rng.below(size + 1);
          u64 expect = 0;
          for (u64 j = 0; j < q; ++j) expect += naive[j];
          ASSERT_EQ(f.prefix(q), expect) << size << " prefix " << q;
          break;
        }
        case 3: {  // rebuild, in one assign or from a reset
          if (rng.below(2) == 0) {
            f.assign(naive);
          } else {
            f.reset(size);
            for (u64 j = 0; j < size; ++j) f.set(j, naive[j]);
          }
          break;
        }
        default: {  // find
          if (f.total() == 0) break;
          const u64 t = rng.below(f.total());
          const auto [i_t, before] = naive_find(naive, t);
          ASSERT_NO_FATAL_FAILURE(expect_find(f, t, i_t, before, size));
          break;
        }
      }
      ASSERT_EQ(f.prefix(size), f.total()) << size;
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches(f, naive, size));
  }
}

TEST(Fenwick, AssignInPlaceReusesAcrossSizes) {
  // assign() and reset() rebuild a live tree of another size (larger,
  // then smaller) exactly like a fresh tree of the same weights.
  Fenwick f(5000);
  for (const u64 size : {9u, 4097u, 65u, 1u, 600u}) {
    std::vector<u64> w(size);
    for (u64 i = 0; i < size; ++i) w[i] = (i * 7) % 5;
    f.assign(w);
    ASSERT_NO_FATAL_FAILURE(expect_matches(f, w, size));
    f.reset(size);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches(f, std::vector<u64>(size, 0), size));
  }
}

// ---- two-leaf updates ---------------------------------------------------------

// Sizes for the two-leaf oracle: no internal level (1, 2, 7, 8), one
// partial group past it (9), one and two full levels and one past each
// (63, 64, 65, 513, 4097), and four levels with a one-entry top (32769).
constexpr u64 kPairSizes[] = {1, 2, 7, 8, 9, 63, 64, 65, 513, 4097, 32769};

// `f` against a tree built from scratch on its current weights: the same
// total, the same word in every internal entry (padding included) and the
// same prefix() at every index.
void expect_as_built(const Fenwick& f, u64 size) {
  Fenwick built;
  built.assign(f.weights());
  ASSERT_EQ(f.total(), built.total()) << size;
  const auto got = f.internal_levels();
  const auto want = built.internal_levels();
  ASSERT_EQ(got.size(), want.size()) << size;
  for (u64 e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e], want[e]) << size << " internal entry " << e;
  }
  u64 cum = 0;
  for (u64 i = 0; i <= size; ++i) {
    ASSERT_EQ(f.prefix(i), cum) << size << " prefix " << i;
    if (i < size) cum += f.get(i);
  }
}

// A second slot for a two-leaf update at i, by kind: in i's group of
// eight, in a neighbouring group, or at the far end of the tree.
u64 partner(u64 i, u64 size, u64 kind, Rng& rng) {
  u64 j = i;
  switch (kind) {
    case 0: {  // same group
      const u64 first = i - i % 8;
      j = first + rng.below(std::min<u64>(8, size - first));
      break;
    }
    case 1: {  // the group before or after i's
      const u64 groups = (size + 7) / 8;
      const u64 g = i / 8;
      if (groups == 1) return partner(i, size, 0, rng);
      const u64 h = g == 0               ? 1
                    : g + 1 == groups    ? g - 1
                    : rng.below(2) == 0 ? g - 1
                                         : g + 1;
      j = h * 8 + rng.below(std::min<u64>(8, size - h * 8));
      break;
    }
    default:  // opposite ends
      j = size - 1 - i;
      break;
  }
  return j == i ? (i + 1) % size : j;
}

TEST(Fenwick, TwoLeafUpdatesMatchAFreshBuild) {
  Rng rng(20);
  for (const u64 size : kPairSizes) {
    std::vector<u64> w(size);
    for (u64& x : w) x = rng.below(4);
    Fenwick f;
    f.assign(w);
    const u64 ops = size <= 65 ? 400 : 2000;
    for (u64 op = 0; op < ops; ++op) {
      const u64 i = rng.below(size);
      if (size == 1) {  // no second leaf: the one-leaf update
        const i64 d = rng.below(2) == 0 ? 1 : -static_cast<i64>(
                                                  rng.below(f.get(0) + 1));
        f.add(0, d);
        continue;
      }
      const u64 j = partner(i, size, rng.below(3), rng);
      const u64 shape = rng.below(4);
      i64 di = 0;
      i64 dj = 0;
      if (shape == 0) {  // a move: one unit from i to j
        if (f.get(i) == 0) continue;
        di = -1;
        dj = 1;
      } else if (shape == 1) {  // net zero, larger amounts
        di = -static_cast<i64>(rng.below(f.get(i) + 1));
        dj = -di;
      } else if (shape == 2) {  // one side zero
        di = static_cast<i64>(rng.below(5));
      } else {  // independent deltas, either sign
        di = static_cast<i64>(rng.below(6)) -
             static_cast<i64>(std::min<u64>(f.get(i), rng.below(6)));
        dj = static_cast<i64>(rng.below(6)) -
             static_cast<i64>(std::min<u64>(f.get(j), rng.below(6)));
      }
      const u64 wi = f.get(i);
      const u64 wj = f.get(j);
      f.add(i, di, j, dj);
      ASSERT_EQ(f.get(i), wi + static_cast<u64>(di)) << size;
      ASSERT_EQ(f.get(j), wj + static_cast<u64>(dj)) << size;
      if (op % 64 == 0 || size <= 9) {
        ASSERT_NO_FATAL_FAILURE(expect_as_built(f, size));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_as_built(f, size));
  }
}

TEST(Fenwick, TwoLeafUpdatesCheckTheirRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A move out of an empty slot.
  EXPECT_DEATH(
      {
        Fenwick f(70);
        f.add(69, 1);
        f.add(3, -1, 69, 1);
      },
      "Fenwick weight underflow");
  // A net gain past the cap, one side shrinking, the other growing.
  EXPECT_DEATH(
      {
        Fenwick f(70);
        f.set(0, Fenwick::kMaxTotal - 1);
        f.add(0, -1, 65, 3);
      },
      "Fenwick total weight exceeds");
  // Two new weights whose sum wraps u64: kMaxTotal + 2 kMaxTotal.
  EXPECT_DEATH(
      {
        Fenwick f(3);
        f.set(2, Fenwick::kMaxTotal);
        const i64 max = static_cast<i64>(Fenwick::kMaxTotal);
        f.add(0, max, 2, max);
      },
      "Fenwick total weight exceeds");
  // At the cap exactly, a net-zero move is fine.
  Fenwick f(70);
  f.set(0, Fenwick::kMaxTotal);
  f.add(0, -5, 69, 5);
  EXPECT_EQ(f.total(), Fenwick::kMaxTotal);
  EXPECT_EQ(f.prefix(69), Fenwick::kMaxTotal - 5);
}

// ---- range guard ------------------------------------------------------------

TEST(Fenwick, TotalAtTheCapIsSampledExactly) {
  // 2^63 - 1 is the largest total: both ends of the range resolve.
  Fenwick f;
  f.assign({Fenwick::kMaxTotal - 1, 0, 1});
  EXPECT_EQ(f.total(), Fenwick::kMaxTotal);
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(Fenwick::kMaxTotal - 2), 0u);
  EXPECT_EQ(f.find(Fenwick::kMaxTotal - 1), 2u);
  // Many large slots over several levels, just under the cap.
  std::vector<u64> big(100, u64{1} << 56);
  f.assign(big);
  EXPECT_EQ(f.total(), 100 * (u64{1} << 56));
  EXPECT_EQ(f.find(f.total() - 1), 99u);
  EXPECT_EQ(f.prefix(64), 64 * (u64{1} << 56));
}

TEST(Fenwick, OverflowPastTheCapIsFatal) {
  // Weights near 2^63, the pair-sampler limit (schedulers/pair_sampler.cpp):
  // a total past 2^63 - 1 must die loudly, never wrap.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const u64 half = u64{1} << 62;
  const char* kMsg = "Fenwick total weight exceeds";
  EXPECT_DEATH(
      {
        Fenwick f;
        f.assign({half, half});  // exactly 2^63
      },
      kMsg);
  EXPECT_DEATH(
      {
        Fenwick f;
        f.assign({u64{1} << 63, u64{1} << 63});  // wraps u64 to 0
      },
      kMsg);
  EXPECT_DEATH(
      {
        Fenwick f;
        f.assign(std::vector<u64>(20, u64{1} << 60));  // 20 * 2^60
      },
      kMsg);
  EXPECT_DEATH(
      {
        Fenwick f(3);
        f.set(0, Fenwick::kMaxTotal);
        f.add(2, 1);
      },
      kMsg);
  EXPECT_DEATH(
      {
        Fenwick f(3);
        f.set(1, u64{1} << 63);
      },
      kMsg);
}

TEST(Fenwick, SamplingIsProportional) {
  Rng rng(77);
  Fenwick f(4);
  f.set(0, 10);
  f.set(1, 30);
  f.set(2, 0);
  f.set(3, 60);
  std::map<u64, u64> hits;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++hits[f.find(rng.below(f.total()))];
  EXPECT_EQ(hits[2], 0u);
  EXPECT_NEAR(static_cast<double>(hits[0]) / kDraws, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[1]) / kDraws, 0.30, 0.015);
  EXPECT_NEAR(static_cast<double>(hits[3]) / kDraws, 0.60, 0.015);
}

}  // namespace
}  // namespace pp
