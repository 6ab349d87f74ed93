// Differential tests for the rank tree: the PairWeightTree whose leaf
// weights c(c - 1) are read from the count tree's leaves instead of being
// stored.  Random update sequences (one-leaf deltas, two-leaf moves, extra
// states, emptied states, zero deltas, rebuilds) at every tree-shape
// boundary, checked against a naive prefix over c(c - 1) and against a
// tree built from scratch — both on the bare trees, a move driven exactly
// as Protocol::move_agent drives them, and through a protocol's public
// calls — plus the overflow guards of Protocol::reset and of a move.
#include "ds/fenwick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "protocols/line_of_traps.hpp"
#include "rng/random.hpp"

namespace pp {
namespace {

// Rank-state counts the differential tests run at: no internal level
// (1, 7, 8), the first partial group past it (9), one and two full levels
// and one past each (64, 65, 513, 4097).
constexpr u64 kSizes[] = {1, 7, 8, 9, 64, 65, 513, 4097};

u64 pair_weight(u64 c) { return c == 0 ? 0 : c * (c - 1); }

// The two trees of a protocol: counts over the rank slots and then any
// extra slots, the rank tree over the first `ranks` (rank) slots only.
struct Trees {
  u64 ranks = 0;
  Fenwick counts;
  PairWeightTree rank;

  // Returns what rank.reset() reports: the largest rank count.
  u64 reset(std::vector<u64> c) {
    counts.assign(std::move(c));
    return rank.reset(counts.weights().data(), ranks);
  }

  // Any delta at one slot, through the one-leaf updates.
  void mutate(u64 s, i64 delta) {
    counts.add(s, delta);
    if (s < ranks) {
      rank.count_changed(s, counts.get(s) - static_cast<u64>(delta));
    }
  }

  // One agent from `from` to `to`, through the two-leaf updates, the way
  // Protocol::move_agent updates its trees.
  void move(u64 from, u64 to) {
    if (from == to) return;
    counts.add(from, -1, to, +1);
    const u64 c_from = counts.get(from);
    const u64 c_to = counts.get(to);
    if (from < ranks && to < ranks) {
      rank.count_changed(from, c_from + 1, to, c_to - 1);
    } else if (from < ranks) {
      rank.count_changed(from, c_from + 1);
    } else if (to < ranks) {
      rank.count_changed(to, c_to - 1);
    }
  }
};

// The slot holding `target` among weights w, by linear scan.
u64 naive_find(const std::vector<u64>& w, u64 target) {
  u64 i = 0;
  u64 before = 0;
  while (before + w[i] <= target) before += w[i++];
  return i;
}

// Every observable of the rank tree against the naive weights: total,
// get and prefix everywhere, and find() — at every target when the total
// is small, else at both ends of every positive slot's range and at
// `samples` uniform targets.
void expect_rank_tree(const Trees& t, Rng& rng, u64 samples) {
  const PairWeightTree& tree = t.rank;
  ASSERT_EQ(tree.size(), t.ranks);
  std::vector<u64> w(t.ranks);
  for (u64 s = 0; s < t.ranks; ++s) w[s] = pair_weight(t.counts.get(s));
  u64 cum = 0;
  for (u64 s = 0; s <= t.ranks; ++s) {
    ASSERT_EQ(tree.prefix(s), cum) << t.ranks << " prefix " << s;
    if (s == t.ranks) break;
    ASSERT_EQ(tree.get(s), w[s]) << t.ranks << " get " << s;
    if (w[s] > 0) {
      u64 offset = ~u64{0};
      ASSERT_EQ(tree.find(cum, offset), s) << t.ranks;
      ASSERT_EQ(offset, 0u) << t.ranks;
      ASSERT_EQ(tree.find(cum + w[s] - 1, offset), s) << t.ranks;
      ASSERT_EQ(offset, w[s] - 1) << t.ranks;
    }
    cum += w[s];
  }
  ASSERT_EQ(tree.total(), cum) << t.ranks;
  if (cum == 0) return;
  if (cum <= 4096) {
    for (u64 target = 0; target < cum; ++target) {
      ASSERT_EQ(tree.find(target), naive_find(w, target))
          << t.ranks << " find " << target;
    }
    return;
  }
  for (u64 k = 0; k < samples; ++k) {
    const u64 target = rng.below(cum);
    ASSERT_EQ(tree.find(target), naive_find(w, target))
        << t.ranks << " find " << target;
  }
}

TEST(RankTree, DifferentialAgainstNaivePairWeights) {
  Rng rng(16);
  for (const u64 ranks : kSizes) {
    for (const u64 extra : {0u, 1u, 3u}) {
      const u64 states = ranks + extra;
      // About a third of the states start empty, the rest with 1..5
      // agents (1 weighs nothing either).
      std::vector<u64> c(states);
      for (u64& x : c) x = rng.below(3) == 0 ? 0 : 1 + rng.below(5);
      Trees t;
      t.ranks = ranks;
      const u64 largest = t.reset(c);
      ASSERT_EQ(largest, *std::max_element(c.begin(), c.begin() + ranks));
      ASSERT_NO_FATAL_FAILURE(expect_rank_tree(t, rng, 256));

      const u64 ops = ranks <= 65 ? 200 : 600;
      for (u64 op = 0; op < ops; ++op) {
        const u64 s = rng.below(states);
        const u64 cs = t.counts.get(s);
        switch (rng.below(5)) {
          case 0:  // move_agent: one agent from an occupied state
            if (cs > 0) t.move(s, rng.below(states));
            break;
          case 1:  // empty the state, moving its agents to another
            if (cs > 0) {
              t.mutate(s, -static_cast<i64>(cs));
              t.mutate(rng.below(states), static_cast<i64>(cs));
            }
            break;
          case 2:  // a rank rule's shape: two moves out of s
            if (cs >= 2) {
              t.move(s, rng.below(states));
              t.move(s, rng.below(states));
            }
            break;
          case 3:  // arrivals, zero included
            t.mutate(s, static_cast<i64>(rng.below(3)));
            break;
          default: {  // rebuild from the current counts
            const std::vector<u64> now = t.counts.weights();
            const u64 total = t.rank.total();
            t.reset(now);
            ASSERT_EQ(t.rank.total(), total) << ranks;
            break;
          }
        }
        if (op % 16 == 0 || ranks <= 9) {
          ASSERT_NO_FATAL_FAILURE(expect_rank_tree(t, rng, 64));
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_rank_tree(t, rng, 1024));
    }
  }
}

// ---- two-leaf moves against a fresh build ----------------------------------

// Sizes for the two-leaf oracle: no internal level (1, 2, 7, 8), one
// partial group past it (9), one and two full levels and one past each
// (63, 64, 65, 513, 4097), and four levels with a one-entry top (32769).
constexpr u64 kPairSizes[] = {1, 2, 7, 8, 9, 63, 64, 65, 513, 4097, 32769};

// The rank tree against one built from scratch on the same counts: the
// same total, the same word in every internal entry (padding included)
// and the same prefix() at every index.
void expect_as_built(const Trees& t) {
  PairWeightTree built;
  built.reset(t.counts.weights().data(), t.ranks);
  ASSERT_EQ(t.rank.total(), built.total()) << t.ranks;
  const auto got = t.rank.internal_levels();
  const auto want = built.internal_levels();
  ASSERT_EQ(got.size(), want.size()) << t.ranks;
  for (u64 e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e], want[e]) << t.ranks << " internal entry " << e;
  }
  for (u64 s = 0; s <= t.ranks; ++s) {
    ASSERT_EQ(t.rank.prefix(s), built.prefix(s)) << t.ranks << " prefix " << s;
  }
}

TEST(RankTree, TwoLeafMovesMatchAFreshBuild) {
  Rng rng(17);
  for (const u64 ranks : kPairSizes) {
    const u64 states = ranks + 2;  // two extra slots beyond the rank tree
    std::vector<u64> c(states);
    for (u64& x : c) x = rng.below(4);
    Trees t;
    t.ranks = ranks;
    t.reset(c);
    const u64 ops = ranks <= 65 ? 400 : 2000;
    for (u64 op = 0; op < ops; ++op) {
      const u64 from = rng.below(states);
      if (t.counts.get(from) == 0) continue;
      u64 to = from;
      switch (rng.below(5)) {
        case 0: {  // same group of eight
          const u64 first = from - from % 8;
          to = first + rng.below(std::min<u64>(8, states - first));
          break;
        }
        case 1:  // the neighbouring group
          to = std::min(states - 1, from - from % 8 + 8 + rng.below(8));
          break;
        case 2:  // the far end, an extra slot included
          to = states - 1 - from;
          break;
        case 3: {  // net zero: from holds k + 1, to holds k
          const u64 want = t.counts.get(from) - 1;
          for (u64 s = 0; s < ranks; ++s) {
            if (s != from && t.counts.get(s) == want) {
              to = s;
              break;
            }
          }
          break;
        }
        default:
          to = rng.below(states);
          break;
      }
      const u64 before = t.rank.total();
      const u64 c_from = t.counts.get(from);
      const u64 c_to = t.counts.get(to);
      t.move(from, to);
      if (from != to && from < ranks && to < ranks && c_to + 1 == c_from) {
        ASSERT_EQ(t.rank.total(), before) << ranks;  // the deltas cancel
      }
      if (op % 64 == 0 || ranks <= 9) {
        ASSERT_NO_FATAL_FAILURE(expect_as_built(t));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_as_built(t));
    ASSERT_NO_FATAL_FAILURE(expect_rank_tree(t, rng, 256));
  }
}

TEST(RankTree, TwoLeafMovesCheckTheirRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A move out of an empty state dies in the count tree.
  EXPECT_DEATH(
      {
        Trees t;
        t.ranks = 9;
        t.reset({0, 1, 1, 1, 1, 1, 1, 1, 1, 2});
        t.move(0, 8);
      },
      "Fenwick weight underflow");
  // A pair update whose net growth passes the cap: c(c - 1) <= 2^63 - 1
  // holds for c = cap, not for cap + 1.
  const u64 cap = 3'037'000'500;
  EXPECT_DEATH(
      {
        Trees t;
        t.ranks = 9;
        t.reset({cap, 0, 0, 0, 0, 0, 0, 0, 3, 0});
        t.move(8, 0);
      },
      "total weight exceeds");
  // Next to the same largest count, a net-zero move (counts 2 and 1 swap)
  // keeps the total.
  Trees t;
  t.ranks = 9;
  t.reset({cap, 1, 0, 0, 0, 0, 0, 0, 2, 0});
  const u64 total = t.rank.total();
  t.move(8, 1);
  EXPECT_EQ(t.counts.get(1), 2u);
  EXPECT_EQ(t.rank.total(), total);
  ASSERT_NO_FATAL_FAILURE(expect_as_built(t));
}

// (traps, inner) pairs giving SingleLineProtocol the kSizes rank-state
// counts it can take: traps * (inner + 1), inner >= 1, so never 1.
constexpr std::pair<u64, u64> kLines[] = {
    {1, 6}, {4, 1}, {3, 2}, {16, 3}, {13, 4}, {171, 2}, {17, 240}};

TEST(RankTree, ProtocolMovesAndStepsMatchNaivePairWeights) {
  // Through the public calls: productive_weight() is the rank tree's
  // total (SingleLineProtocol's X is inert), and step_productive() fires
  // the rule of the state find() picks for the drawn target.
  Rng rng(61);
  for (const auto [traps, inner] : kLines) {
    const u64 ranks = traps * (inner + 1);
    const u64 n = 2 * ranks + 3;
    SingleLineProtocol p(n, traps, inner);
    // Half the agents crowd the first four states, so weights grow large.
    std::vector<u64> c(p.num_states(), 0);
    for (u64 a = 0; a < n; ++a) {
      ++c[rng.below(rng.below(2) == 0 ? 4 : p.num_states())];
    }
    p.reset(Configuration(c));
    for (u64 op = 0; op < 400; ++op) {
      std::vector<u64> w(ranks);
      u64 total = 0;
      for (u64 s = 0; s < ranks; ++s) {
        w[s] = pair_weight(c[s]);
        total += w[s];
      }
      ASSERT_EQ(p.productive_weight(), total) << ranks << " op " << op;
      ASSERT_EQ(p.counts(), c) << ranks << " op " << op;
      if (total > 0 && rng.below(2) == 0) {
        Rng draw = rng;  // the draw step_productive is about to make
        const StateId s =
            static_cast<StateId>(naive_find(w, draw.below(total)));
        const auto [out1, out2] = p.transition(s, s);
        c[s] -= 2;
        ++c[out1];
        ++c[out2];
        p.step_productive(rng);
        continue;
      }
      // A move, often out of the fullest state or into / out of X.
      StateId from = static_cast<StateId>(rng.below(p.num_states()));
      if (rng.below(3) == 0) {
        from = static_cast<StateId>(
            std::max_element(c.begin(), c.end()) - c.begin());
      }
      if (c[from] == 0) continue;
      const StateId to = rng.below(3) == 0
                             ? p.x_state()
                             : static_cast<StateId>(rng.below(p.num_states()));
      p.move_agent(from, to);
      --c[from];
      ++c[to];
    }
    // A fresh instance loaded with the final configuration rebuilds the
    // same tree the moves maintained.
    const ProtocolPtr q = p.fresh();
    q->reset(p.configuration());
    EXPECT_EQ(q->productive_weight(), p.productive_weight()) << ranks;
  }
}

// ---- overflow guard ------------------------------------------------------

TEST(RankTree, PairWeightsPastTheCapAbortInReset) {
  // Sum c(c - 1) over the rank states must stay <= 2^63 - 1; reset() dies
  // when it does not — including when a single c(c - 1) wraps u64 — and
  // never loads a wrapped total.  SingleLineProtocol(n, 1, 1): ranks 0, 1
  // and X, with n free.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* kMsg = "total weight exceeds";
  const u64 wrap = (u64{1} << 32) + 1;  // c(c - 1) = 2^64 + 2^32
  EXPECT_DEATH(
      {
        SingleLineProtocol p(wrap, 1, 1);
        p.reset(Configuration({wrap, 0, 0}));
      },
      kMsg);
  const u64 big = 3'100'000'000;  // c(c - 1) ~ 9.61e18 > 2^63 - 1
  EXPECT_DEATH(
      {
        SingleLineProtocol p(big, 1, 1);
        p.reset(Configuration({big, 0, 0}));
      },
      kMsg);
  const u64 half = 2'200'000'000;  // each ~ 4.84e18, the sum past the cap
  EXPECT_DEATH(
      {
        SingleLineProtocol p(2 * half, 1, 1);
        p.reset(Configuration({half, half, 0}));
      },
      kMsg);

  // The largest c with c(c - 1) <= 2^63 - 1 loads; one more agent, moved
  // in afterwards, dies in the update instead.
  const u64 cap = 3'037'000'500;
  SingleLineProtocol p(cap + 1, 1, 1);
  p.reset(Configuration({cap, 1, 0}));
  EXPECT_EQ(p.productive_weight(), cap * (cap - 1));
  EXPECT_DEATH(p.move_agent(1, 0), kMsg);
}

}  // namespace
}  // namespace pp
