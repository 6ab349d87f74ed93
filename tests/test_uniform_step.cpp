// Oracle test for Protocol::step_uniform, the uniform scheduler's tick.
//
// step_uniform resolves both agents against the count tree in one descent
// and rejects most null ticks by a count bound without any descent.  The
// oracle here is the plain procedure built from the public API alone:
// draw a = below(n) and b = below(n - 1), take the initiator's state from
// a, find the responder's state by scanning the counts with one initiator
// agent removed, and apply transition() through apply_pair().  Twin
// protocols fed twin RNG streams must agree after every tick on the
// counts, the "changed" flag and the RNG state — also across move_agent
// bursts, which raise the bound or leave it stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/configuration.hpp"
#include "core/initial.hpp"
#include "core/protocol.hpp"
#include "protocols/factory.hpp"
#include "rng/random.hpp"

namespace pp {
namespace {

// One uniform tick by the reference procedure.  Returns true iff the
// transition changed the pair's states.
bool reference_tick(Protocol& p, Rng& rng) {
  const u64 n = p.num_agents();
  const u64 a = rng.below(n);
  u64 b = rng.below(n - 1);
  const StateId si = p.uniform_agent_state(a);
  std::vector<u64> rest = p.counts();
  --rest[si];
  StateId sr = 0;
  while (b >= rest[sr]) b -= rest[sr++];
  const auto [i2, r2] = p.apply_pair(si, sr);
  return i2 != si || r2 != sr;
}

enum class Start { kUniform, kAllInOne, kHeavyExtra };

// Most agents in extra states (line-of-traps' X, tree-ranking's buffers);
// protocols without extra states get a uniform start.
Configuration heavy_extra(const Protocol& p, Rng& rng) {
  if (p.num_extra_states() == 0) return initial::uniform_random(p, rng);
  std::vector<u64> counts(p.num_states(), 0);
  for (u64 k = 0; k < p.num_agents(); ++k) {
    const bool extra = rng.below(4) != 0;
    const u64 s = extra ? p.num_ranks() + rng.below(p.num_extra_states())
                        : rng.below(p.num_ranks());
    ++counts[s];
  }
  return Configuration(counts);
}

Configuration start_config(const Protocol& p, Start start, Rng& rng) {
  switch (start) {
    case Start::kUniform:
      return initial::uniform_random(p, rng);
    case Start::kAllInOne:  // exact bound n, stale as soon as agents leave
      return initial::all_in_state(p, 0);
    case Start::kHeavyExtra:
      return heavy_extra(p, rng);
  }
  return initial::uniform_random(p, rng);
}

// A burst of move_agent teleports applied to both twins, then
// commit_moves().  Odd bursts pile agents onto one state (raising the
// bound past any earlier maximum), even bursts scatter them (leaving a
// bound that is too loose).
void burst(Protocol& fast, Protocol& ref, Rng& rng, u64 round) {
  const u64 n = fast.num_agents();
  const StateId pile = static_cast<StateId>(rng.below(fast.num_states()));
  const u64 moves = 1 + rng.below(std::max<u64>(n / 2, 1));
  for (u64 m = 0; m < moves; ++m) {
    const StateId from = fast.uniform_agent_state(rng.below(n));
    const StateId to = round % 2 == 1
                           ? pile
                           : static_cast<StateId>(
                                 rng.below(fast.num_states()));
    fast.move_agent(from, to);
    ref.move_agent(from, to);
  }
  fast.commit_moves();
  ref.commit_moves();
}

// Runs `ticks` twin ticks from `start`, with a move burst every
// `burst_every` ticks (0 = never).
void run_twins(std::string_view name, u64 n, Start start, u64 seed,
               u64 ticks, u64 burst_every) {
  const ProtocolPtr fast = make_protocol(name, n);
  const ProtocolPtr ref = make_protocol(name, n);
  Rng setup(seed);
  const Configuration c = start_config(*fast, start, setup);
  fast->reset(c);
  ref->reset(c);
  Rng rng_fast(seed + 1);
  Rng rng_ref(seed + 1);
  u64 changes = 0;
  for (u64 t = 0; t < ticks; ++t) {
    if (burst_every != 0 && t % burst_every == burst_every - 1) {
      burst(*fast, *ref, setup, t / burst_every);
    }
    const bool changed_fast = fast->step_uniform(rng_fast);
    const bool changed_ref = reference_tick(*ref, rng_ref);
    const std::string where = std::string(name) + " n=" + std::to_string(n) +
                              " start=" +
                              std::to_string(static_cast<int>(start)) +
                              " seed=" + std::to_string(seed) +
                              " tick=" + std::to_string(t);
    ASSERT_EQ(changed_fast, changed_ref) << where;
    ASSERT_EQ(fast->counts(), ref->counts()) << where;
    Rng next_fast = rng_fast;
    Rng next_ref = rng_ref;
    ASSERT_EQ(next_fast.bits(), next_ref.bits()) << where;
    changes += changed_fast;
  }
  // The comparison must have seen the protocol act, not just null ticks
  // (a silent start stays silent only without bursts).
  if (burst_every != 0) EXPECT_GT(changes, 0u) << name << " n=" << n;
}

std::vector<u64> populations(std::string_view name) {
  std::vector<u64> ns;
  for (const u64 n : {u64{2}, u64{3}, u64{7}, u64{40}, u64{300}}) {
    ns.push_back(std::max(n, min_population(name)));
  }
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  return ns;
}

class UniformStepOracle : public ::testing::TestWithParam<std::string_view> {
};

TEST_P(UniformStepOracle, MatchesReferenceTickByTick) {
  const std::string_view name = GetParam();
  for (const u64 n : populations(name)) {
    for (const Start start :
         {Start::kUniform, Start::kAllInOne, Start::kHeavyExtra}) {
      for (u64 seed = 1; seed <= 3; ++seed) {
        ASSERT_NO_FATAL_FAILURE(
            run_twins(name, n, start, 100 * seed + n, 4000, 0));
      }
    }
  }
}

TEST_P(UniformStepOracle, MatchesReferenceAcrossMoveBursts) {
  const std::string_view name = GetParam();
  for (const u64 n : populations(name)) {
    for (const Start start :
         {Start::kUniform, Start::kAllInOne, Start::kHeavyExtra}) {
      for (u64 seed = 1; seed <= 3; ++seed) {
        ASSERT_NO_FATAL_FAILURE(
            run_twins(name, n, start, 700 * seed + n, 6000, 97));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, UniformStepOracle,
                         ::testing::Values("ag", "ring-of-traps",
                                           "line-of-traps", "tree-ranking"),
                         [](const auto& info) {
                           std::string s(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

}  // namespace
}  // namespace pp
