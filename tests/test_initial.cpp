// Unit tests for the initial-configuration generators.
#include "core/initial.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rng/random.hpp"

namespace pp {
namespace {

TEST(Initial, ValidRanking) {
  const Configuration c = initial::valid_ranking(5, 7);
  EXPECT_EQ(c.agents(), 5u);
  EXPECT_TRUE(is_valid_ranking(c, 5));
}

TEST(Initial, UniformRandomHasRightPopulation) {
  Rng rng(1);
  const Configuration c = initial::uniform_random(100, 10, rng);
  EXPECT_EQ(c.agents(), 100u);
  EXPECT_EQ(c.num_states(), 10u);
}

TEST(Initial, UniformRandomRanksNeverUsesExtraStates) {
  Rng rng(2);
  const Configuration c = initial::uniform_random_ranks(200, 8, 12, rng);
  EXPECT_EQ(c.agents(), 200u);
  for (u64 s = 8; s < 12; ++s) EXPECT_EQ(c.counts[s], 0u);
}

// The per-agent loop the generators must reproduce draw for draw: agent
// i lands in state rng.below(bound), in order.
std::vector<u64> per_agent_counts(u64 num_agents, u64 num_states, u64 bound,
                                  Rng& rng) {
  std::vector<u64> counts(num_states, 0);
  for (u64 i = 0; i < num_agents; ++i) ++counts[rng.below(bound)];
  return counts;
}

// Agent counts around the generators' 64-draw block (none, one short
// block, exactly one, one over, two plus one) and a large odd count;
// state counts from one state to 10^6.
constexpr u64 kOracleAgents[] = {0, 1, 63, 64, 65, 129, 100003};
constexpr u64 kOracleStates[] = {1, 2, 1000000};

TEST(Initial, UniformRandomMatchesPerAgentLoop) {
  for (const u64 agents : kOracleAgents) {
    for (const u64 states : kOracleStates) {
      for (const u64 seed : {1u, 2u, 977u}) {
        Rng rng(seed);
        Rng ref(seed);
        const Configuration c = initial::uniform_random(agents, states, rng);
        ASSERT_EQ(c.counts, per_agent_counts(agents, states, states, ref))
            << "agents=" << agents << " states=" << states
            << " seed=" << seed;
        ASSERT_EQ(rng.bits(), ref.bits()) << "Rng stream diverged";
      }
    }
  }
}

TEST(Initial, UniformRandomRanksMatchesPerAgentLoop) {
  for (const u64 agents : kOracleAgents) {
    for (const u64 ranks : kOracleStates) {
      for (const u64 seed : {3u, 4u, 1013u}) {
        const u64 states = ranks + 3;
        Rng rng(seed);
        Rng ref(seed);
        const Configuration c =
            initial::uniform_random_ranks(agents, ranks, states, rng);
        ASSERT_EQ(c.counts, per_agent_counts(agents, states, ranks, ref))
            << "agents=" << agents << " ranks=" << ranks << " seed=" << seed;
        ASSERT_EQ(rng.bits(), ref.bits()) << "Rng stream diverged";
      }
    }
  }
}

TEST(Initial, KDistantHasExactDistance) {
  Rng rng(3);
  for (const u64 k : {0u, 1u, 5u, 31u}) {
    const Configuration c = initial::k_distant(32, 33, k, rng);
    EXPECT_EQ(c.agents(), 32u);
    EXPECT_EQ(k_distance(c, 32), k) << "k=" << k;
    EXPECT_EQ(c.counts[32], 0u) << "no agents in extra states";
  }
}

TEST(Initial, KDistantZeroIsValidRanking) {
  Rng rng(4);
  const Configuration c = initial::k_distant(16, 16, 0, rng);
  EXPECT_TRUE(is_valid_ranking(c, 16));
}

TEST(Initial, AllInState) {
  const Configuration c = initial::all_in_state(9, 4, 2);
  EXPECT_EQ(c.agents(), 9u);
  EXPECT_EQ(c.counts[2], 9u);
}

TEST(Initial, PerturbedPreservesPopulation) {
  Rng rng(5);
  Configuration base = initial::valid_ranking(20, 21);
  const Configuration p = initial::perturbed(base, 7, rng);
  EXPECT_EQ(p.agents(), 20u);
}

TEST(Initial, PerturbedZeroFaultsIsIdentity) {
  Rng rng(6);
  Configuration base = initial::valid_ranking(10, 10);
  const Configuration p = initial::perturbed(base, 0, rng);
  EXPECT_EQ(p.counts, base.counts);
}

TEST(Initial, PerturbedManyFaultsActuallyMovesAgents) {
  Rng rng(7);
  Configuration base = initial::valid_ranking(50, 50);
  const Configuration p = initial::perturbed(base, 25, rng);
  EXPECT_NE(p.counts, initial::valid_ranking(50, 50).counts);
}

}  // namespace
}  // namespace pp
