// Engine validation: the accelerated (geometric null-skipping) engine must
// agree with the faithful uniform engine — identical final configurations
// in distribution, statistically indistinguishable stabilisation times.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/initial.hpp"
#include "protocols/ag.hpp"
#include "protocols/factory.hpp"
#include "protocols/tree_ranking.hpp"

namespace pp {
namespace {

TEST(Engine, UniformEngineReachesValidRanking) {
  AgProtocol p(12);
  Rng rng(1);
  p.reset(initial::uniform_random(p, rng));
  const RunResult r = run_uniform(p, rng);
  EXPECT_TRUE(r.silent);
  EXPECT_TRUE(r.valid);
  EXPECT_GE(r.interactions, r.productive_steps);
}

TEST(Engine, SilentStartTerminatesImmediately) {
  AgProtocol p(6);
  Rng rng(2);
  p.reset(initial::valid_ranking(p));
  EXPECT_EQ(run_accelerated(p, rng).interactions, 0u);
  EXPECT_EQ(run_uniform(p, rng).interactions, 0u);
}

TEST(Engine, ObserverSeesMonotoneInteractionCounts) {
  AgProtocol p(16);
  Rng rng(3);
  p.reset(initial::all_in_state(p, 0));
  u64 last = 0;
  RunOptions opt;
  opt.on_change = [&](const Protocol&, u64 t) {
    EXPECT_GT(t, last);
    last = t;
    return true;
  };
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_EQ(last, r.interactions);
}

TEST(Engine, ObserverCanAbort) {
  AgProtocol p(32);
  Rng rng(4);
  p.reset(initial::all_in_state(p, 0));
  int calls = 0;
  RunOptions opt;
  opt.on_change = [&](const Protocol&, u64) { return ++calls < 5; };
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(r.productive_steps, 5u);
}

TEST(Engine, UniformBudgetIsExact) {
  AgProtocol p(32);
  Rng rng(5);
  p.reset(initial::all_in_state(p, 0));
  RunOptions opt;
  opt.max_interactions = 1000;
  const RunResult r = run_uniform(p, rng, opt);
  EXPECT_EQ(r.interactions, 1000u);
  EXPECT_FALSE(r.silent);
}

TEST(Engine, AcceleratedCountsMoreInteractionsThanProductiveSteps) {
  AgProtocol p(64);
  Rng rng(6);
  p.reset(initial::uniform_random(p, rng));
  const RunResult r = run_accelerated(p, rng);
  EXPECT_GT(r.interactions, r.productive_steps)
      << "null interactions must be accounted for";
}

// The central validation: distributions of stabilisation times agree.
TEST(Engine, AcceleratedMatchesUniformStatistically) {
  const u64 n = 24;
  const int kTrials = 60;
  auto mean_time = [&](bool accelerated) {
    double sum = 0;
    for (int t = 0; t < kTrials; ++t) {
      AgProtocol p(n);
      Rng rng(1000 + static_cast<u64>(t) + (accelerated ? 0 : 500000));
      p.reset(initial::all_in_state(p, 0));
      const RunResult r =
          accelerated ? run_accelerated(p, rng) : run_uniform(p, rng);
      EXPECT_TRUE(r.valid);
      sum += r.parallel_time;
    }
    return sum / kTrials;
  };
  const double acc = mean_time(true);
  const double uni = mean_time(false);
  // Means of ~60 samples of a concentrated distribution: require agreement
  // within 25% (generous; failures would indicate a systematic bias).
  EXPECT_NEAR(acc / uni, 1.0, 0.25) << "acc=" << acc << " uni=" << uni;
}

TEST(Engine, EnginesAgreeForProtocolWithExtraStates) {
  const u64 n = 16;
  const int kTrials = 40;
  auto mean_time = [&](bool accelerated) {
    double sum = 0;
    for (int t = 0; t < kTrials; ++t) {
      TreeRankingProtocol p(n);
      Rng rng(2000 + static_cast<u64>(t) + (accelerated ? 0 : 900000));
      p.reset(initial::all_in_state(p, p.x_state(1)));
      const RunResult r =
          accelerated ? run_accelerated(p, rng) : run_uniform(p, rng);
      EXPECT_TRUE(r.valid);
      sum += r.parallel_time;
    }
    return sum / kTrials;
  };
  const double acc = mean_time(true);
  const double uni = mean_time(false);
  EXPECT_NEAR(acc / uni, 1.0, 0.30) << "acc=" << acc << " uni=" << uni;
}

TEST(Engine, ZeroBudgetDoesNothing) {
  AgProtocol p(16);
  Rng rng(21);
  p.reset(initial::all_in_state(p, 0));
  RunOptions opt;
  opt.max_interactions = 0;
  for (const auto run : {run_accelerated, run_uniform}) {
    const RunResult r = run(p, rng, opt);
    EXPECT_EQ(r.interactions, 0u);
    EXPECT_EQ(r.productive_steps, 0u);
    EXPECT_FALSE(r.silent);
  }
  EXPECT_EQ(p.counts()[0], 16u) << "configuration untouched";
}

TEST(Engine, UniformObserverCanAbort) {
  AgProtocol p(16);
  Rng rng(22);
  p.reset(initial::all_in_state(p, 0));
  int calls = 0;
  RunOptions opt;
  opt.on_change = [&](const Protocol&, u64) { return ++calls < 3; };
  const RunResult r = run_uniform(p, rng, opt);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.productive_steps, 3u);
}

TEST(Engine, ResetAndRerunOnSameProtocolObject) {
  // Protocol objects are reusable across runs; bookkeeping must fully
  // reinitialise.
  AgProtocol p(20);
  Rng rng(23);
  for (int round = 0; round < 5; ++round) {
    p.reset(initial::uniform_random(p, rng));
    const RunResult r = run_accelerated(p, rng);
    ASSERT_TRUE(r.valid) << "round " << round;
  }
  // And resetting a silent protocol back to chaos revives it.
  p.reset(initial::all_in_state(p, 7));
  EXPECT_FALSE(p.is_silent());
}

// reset() takes its configuration by value and adopts the count vector as
// the count tree's leaves.  Resetting from a copy (an lvalue) and from a
// moved-in vector must load the same configuration, build the same trees
// and so run the same trajectory -- also on a protocol already reset once.
TEST(Engine, ResetFromLvalueAndRvalueAgree) {
  for (const char* name :
       {"ag", "ring-of-traps", "line-of-traps", "tree-ranking"}) {
    const u64 n = preferred_population(name, 200);
    ProtocolPtr copied = make_protocol(name, n);
    ProtocolPtr moved = make_protocol(name, n);
    Rng init(41);
    for (int round = 0; round < 2; ++round) {
      const Configuration c = round == 0
                                  ? initial::uniform_random(*copied, init)
                                  : initial::all_in_state(*copied, 0);
      copied->reset(c);
      EXPECT_EQ(copied->counts(), c.counts) << name << " lvalue reset";
      Configuration tmp = c;
      moved->reset(std::move(tmp));
      ASSERT_EQ(copied->counts(), moved->counts()) << name;
      ASSERT_EQ(copied->productive_weight(), moved->productive_weight())
          << name << " round " << round;

      Rng rng_copied(100 + static_cast<u64>(round));
      Rng rng_moved(100 + static_cast<u64>(round));
      const RunResult a = run_accelerated(*copied, rng_copied);
      const RunResult b = run_accelerated(*moved, rng_moved);
      EXPECT_EQ(a.interactions, b.interactions) << name;
      EXPECT_EQ(a.productive_steps, b.productive_steps) << name;
      EXPECT_EQ(a.silent, b.silent) << name;
      EXPECT_EQ(a.valid, b.valid) << name;
      EXPECT_EQ(a.parallel_time, b.parallel_time) << name;
      EXPECT_TRUE(a.valid) << name << " round " << round;
      EXPECT_EQ(copied->counts(), moved->counts()) << name;
      EXPECT_EQ(rng_copied.bits(), rng_moved.bits()) << name;
    }
  }
}

TEST(Engine, ParallelTimeIsCensoredAtBudget) {
  AgProtocol p(64);
  Rng rng(24);
  p.reset(initial::all_in_state(p, 0));
  RunOptions opt;
  opt.max_interactions = 640;
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_LE(r.interactions, 640u);
  EXPECT_DOUBLE_EQ(r.parallel_time,
                   static_cast<double>(r.interactions) / 64.0);
}

TEST(Engine, LargeNBudgetCappedRunIsCheap) {
  // Per-event cost is independent of n: a 10^6-agent run on a 5n
  // interaction budget is a handful of productive events, and the null
  // gap that crosses the budget is clamped to it exactly.
  const u64 n = 1000000;
  AgProtocol p(n);
  Rng rng(13);
  p.reset(initial::uniform_random(p, rng));
  RunOptions opt;
  opt.max_interactions = 5 * n;
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_EQ(r.interactions, 5 * n);
  EXPECT_FALSE(r.silent);
  EXPECT_GE(r.interactions, r.productive_steps);
}

TEST(Engine, EveryProtocolAgreesOnSilenceEqualsValidRanking) {
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 80);
    ProtocolPtr p = make_protocol(name, n);
    Rng rng(7);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_accelerated(*p, rng);
    EXPECT_TRUE(r.silent) << name;
    EXPECT_TRUE(r.valid) << name;
    EXPECT_EQ(p->is_silent(), p->is_valid_ranking()) << name;
  }
}

// Regression for the RunResult/observer contract the parallel runner
// depends on (also PP_ASSERTed inside the engines' common exit path):
// interactions never undercounts productive steps — under a budget, an
// observer abort, or a run to silence — and a silent verdict coincides
// with productive_weight() == 0 on the protocol object itself.
TEST(Engine, RunResultContractHoldsOnEveryExitPath) {
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 80);
    for (const bool accelerated : {true, false}) {
      const auto run = [&](Protocol& p, Rng& rng, const RunOptions& opt) {
        return accelerated ? run_accelerated(p, rng, opt)
                           : run_uniform(p, rng, opt);
      };
      // Independent silence check: enumerate occupied state pairs through
      // the formal transition function δ — no Fenwick/count machinery, so
      // a stale cached weight cannot fool it.
      const auto truly_silent = [](const Protocol& p) {
        const auto& counts = p.counts();
        for (StateId a = 0; a < counts.size(); ++a) {
          if (counts[a] == 0) continue;
          for (StateId b = 0; b < counts.size(); ++b) {
            if (counts[b] == 0 || (a == b && counts[a] < 2)) continue;
            const auto [a2, b2] = p.transition(a, b);
            if (a2 != a || b2 != b) return false;
          }
        }
        return true;
      };
      const auto check = [&](const RunResult& r, const Protocol& p) {
        EXPECT_GE(r.interactions, r.productive_steps) << name;
        EXPECT_EQ(r.silent, truly_silent(p)) << name;
        if (r.silent) {
          EXPECT_EQ(p.productive_weight(), 0u) << name;
        } else {
          EXPECT_GT(p.productive_weight(), 0u) << name;
        }
      };
      // Run to silence.
      {
        ProtocolPtr p = make_protocol(name, n);
        Rng rng(21);
        p->reset(initial::uniform_random(*p, rng));
        check(run(*p, rng, {}), *p);
      }
      // Budget exhaustion: censored mid-run, silent must be false.
      {
        ProtocolPtr p = make_protocol(name, n);
        Rng rng(22);
        p->reset(initial::uniform_random(*p, rng));
        RunOptions opt;
        opt.max_interactions = n;  // far below stabilisation
        const RunResult r = run(*p, rng, opt);
        EXPECT_FALSE(r.silent) << name;
        check(r, *p);
      }
      // Observer abort after the third configuration change.
      {
        ProtocolPtr p = make_protocol(name, n);
        Rng rng(23);
        p->reset(initial::uniform_random(*p, rng));
        RunOptions opt;
        u64 changes = 0;
        opt.on_change = [&changes](const Protocol&, u64) {
          return ++changes < 3;
        };
        const RunResult r = run(*p, rng, opt);
        EXPECT_TRUE(r.aborted) << name;
        EXPECT_EQ(r.productive_steps, 3u) << name;
        check(r, *p);
      }
    }
  }
}

// A pathological Protocol with an astronomically small productive-weight /
// pairs ratio: billions of claimed agents, productive weight pinned at 1.
// The accelerated engine's geometric gap sampler then saturates at
// Rng::kGeometricInfinity with probability ~1/2 per draw — in Release
// builds the engine used to treat that sentinel as an ordinary gap length
// (and PP_DCHECK-aborted in Debug); it must clamp to the interaction
// budget instead.
class SparseWeightProtocol final : public Protocol {
 public:
  explicit SparseWeightProtocol(u64 n) : Protocol(n, /*ranks=*/2,
                                                  /*extra=*/1) {}
  std::string_view name() const override { return "sparse-weight"; }
  ProtocolPtr fresh() const override {
    return std::make_unique<SparseWeightProtocol>(num_agents());
  }
  std::pair<StateId, StateId> transition(StateId i, StateId r) const override {
    if (i == 2 && r == 2) return {2, 0};  // the one productive pair class
    return {i, r};
  }

 protected:
  u64 extra_weight() const override { return count(2) >= 2 ? 1 : 0; }
  void step_extra(u64 /*target*/, Rng& /*rng*/) override {
    move_agent(2, 0);
  }
  bool apply_cross(StateId i, StateId r) override {
    if (i != 2 || r != 2) return false;
    move_agent(2, 0);
    return true;
  }
};

TEST(EngineRegression, GeometricInfinityClampsToBudget) {
  // w / pairs = 1 / (4e9 * (4e9 - 1)) ~ 6e-20: the expected geometric gap
  // (~1.6e19) is around the sampler's u64 saturation point, so across
  // seeds both the saturated and the merely-huge branch are exercised.
  const u64 n = 4'000'000'000ULL;
  for (u64 seed = 1; seed <= 20; ++seed) {
    SparseWeightProtocol p(n);
    p.reset(Configuration({0, 0, n}));
    ASSERT_EQ(p.productive_weight(), 1u);
    Rng rng(seed);
    RunOptions opt;
    opt.max_interactions = 1'000'000;
    const RunResult r = run_accelerated(p, rng, opt);
    EXPECT_EQ(r.interactions, 1'000'000u) << seed;
    EXPECT_EQ(r.productive_steps, 0u) << seed;
    EXPECT_FALSE(r.silent) << seed;
  }
}

TEST(EngineRegression, GeometricInfinityClampsToUnlimitedBudget) {
  // Even with the default (effectively unlimited) budget the sentinel must
  // terminate the run instead of looping or aborting.
  SparseWeightProtocol p(4'000'000'000ULL);
  p.reset(Configuration({0, 0, 4'000'000'000ULL}));
  Rng rng(3);
  const RunResult r = run_accelerated(p, rng, {});
  EXPECT_EQ(r.interactions, ~static_cast<u64>(0));
  EXPECT_FALSE(r.silent);
}

// ---- degenerate population sizes -----------------------------------------

TEST(EngineDegenerate, SingleAgentPopulationsAreRejected) {
  // n = 1 means zero ordered pairs: run_accelerated would divide by zero
  // and run_uniform could never draw a pair.  The Protocol constructor
  // rejects such populations outright, for every protocol in the registry.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto name : protocol_names()) {
    // Most protocols die in the Protocol base constructor; ring-of-traps
    // dies one step earlier, sizing its RingLayout.  Either way: a clean
    // assert, not a NaN-driven hang.
    EXPECT_DEATH(make_protocol(name, 1),
                 "at least two agents|RingLayout requires n >= 2")
        << name;
  }
}

// A protocol shell with arbitrary state counts and no rules: only the
// Protocol base constructor runs, so its limits are checked before any
// derived allocation could be attempted.
class StateCountProtocol final : public Protocol {
 public:
  StateCountProtocol(u64 ranks, u64 extra) : Protocol(2, ranks, extra) {}
  std::string_view name() const override { return "state-count"; }
  ProtocolPtr fresh() const override {
    return std::make_unique<StateCountProtocol>(num_ranks(),
                                                num_extra_states());
  }
  std::pair<StateId, StateId> transition(StateId i, StateId r) const override {
    return {i, r};
  }
};

TEST(EngineDegenerate, StateCountsPastStateIdAreRejected) {
  // StateId is 32-bit with kNoState = 2^32 - 1 reserved: 2^32 - 1 states
  // (ids 0 .. 2^32 - 2) is the most a protocol may have.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const u64 limit = static_cast<u64>(kNoState);
  const StateCountProtocol largest(limit - 1, 1);
  EXPECT_EQ(largest.num_states(), limit);
  EXPECT_DEATH(StateCountProtocol(limit, 1), "2\\^32 or more states");
  EXPECT_DEATH(StateCountProtocol(u64{1} << 32, 0), "2\\^32 or more states");
  // A sum that wraps u64 must not slip through as a small state count.
  EXPECT_DEATH(StateCountProtocol(2, ~u64{0} - 1), "2\\^32 or more states");
}

TEST(EngineDegenerate, ResetRejectsWrongAgentCounts) {
  // The agent count is read off the count tree's overflow-checked build:
  // a configuration one agent short, one over, or whose counts sum past
  // 2^64 and wrap to exactly n must all abort, never load.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const u64 n = 64;
  ProtocolPtr p = make_protocol("ring-of-traps", n);
  const u64 states = p->num_states();
  Configuration short_one = initial::all_in_state(n - 1, states, 0);
  Configuration over_one = initial::all_in_state(n + 1, states, 0);
  Configuration wraps = initial::all_in_state(n + 1, states, 1);
  wraps.counts[0] = ~u64{0};  // (2^64 - 1) + (n + 1) == n mod 2^64
  EXPECT_DEATH(p->reset(short_one), "wrong number of agents");
  EXPECT_DEATH(p->reset(over_one), "wrong number of agents");
  EXPECT_DEATH(p->reset(wraps),
               "wrong number of agents|total weight exceeds");

  AgProtocol two(2);  // the smallest case: {2^64 - 1, 3} wraps to 2
  EXPECT_DEATH(two.reset(Configuration({~u64{0}, 3})),
               "wrong number of agents|total weight exceeds");
}

TEST(EngineDegenerate, MinimalPopulationsStabiliseUnderBothEngines) {
  // The smallest supported population of every protocol (n = 2 for all but
  // line-of-traps) must run to a valid ranking on both engines — no NaN,
  // no hang, no assert.
  for (const auto name : protocol_names()) {
    const u64 n = min_population(name);
    for (const bool accelerated : {true, false}) {
      for (u64 seed = 1; seed <= 3; ++seed) {
        ProtocolPtr p = make_protocol(name, n);
        Rng rng(seed);
        p->reset(initial::uniform_random(*p, rng));
        const RunResult r = accelerated ? run_accelerated(*p, rng)
                                        : run_uniform(*p, rng);
        EXPECT_TRUE(r.silent) << name << " n=" << n;
        EXPECT_TRUE(r.valid) << name << " n=" << n;
        EXPECT_TRUE(std::isfinite(r.parallel_time)) << name;
      }
    }
  }
}

TEST(EngineDegenerate, TwoAgentRunFromSilentStartStaysClean) {
  AgProtocol p(2);
  p.reset(initial::valid_ranking(p));
  Rng rng(1);
  for (const auto run_fn : {run_accelerated, run_uniform}) {
    const RunResult r = run_fn(p, rng, {});
    EXPECT_EQ(r.interactions, 0u);
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.parallel_time, 0.0);
  }
}

}  // namespace
}  // namespace pp
