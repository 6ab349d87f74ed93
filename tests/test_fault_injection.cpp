// Self-stabilisation under sustained abuse: fault storms, repeated
// mid-run corruption, and full-population wipes.  The defining property of
// these protocols is that *no* transient fault pattern can prevent
// eventual silent ranking.
//
// The storm scenarios are driven by ChurnScheduler (schedulers/churn.hpp)
// — transient faults as a first-class interaction model — which replaced
// this file's original hand-rolled run/corrupt/repeat loop.  The wipe and
// targeted-fault scenarios keep their original names and coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "core/engine.hpp"
#include "core/initial.hpp"
#include "core/leader_election.hpp"
#include "obs/counters.hpp"
#include "protocols/factory.hpp"
#include "rng/seed_sequence.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"
#include "schedulers/churn.hpp"

namespace pp {
namespace {

class FaultStorm : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultStorm, RepeatedMidRunCorruptionNeverPreventsStabilisation) {
  // The original observer-hack storm: ten rounds of "run for 50 n
  // interactions, then corrupt 25% of the agents".  As a churn model that
  // is a 500 n-tick storm with ~10 fault events of n/4 teleported agents
  // each; once the storm stops, the protocol must stabilise.
  const std::string name = GetParam();
  const u64 n = preferred_population(name, 72);
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(derive_seed(61, name));
  p->reset(initial::uniform_random(*p, rng));

  const u64 storm = 500 * n;
  const ChurnScheduler churn(/*rate=*/10.0 / static_cast<double>(storm),
                             /*faults=*/n / 4, /*active=*/storm,
                             ChurnReset::kUniformState);
  const RunResult r = churn.run(*p, rng);
  EXPECT_TRUE(r.silent) << name;
  EXPECT_TRUE(r.valid) << name;
  // The storm must genuinely corrupt the run: ~10 fault events are expected
  // at this rate, and a seed-stream change that silently degraded the test
  // into a plain stabilisation run would show up here as too few.
  EXPECT_GE(r.fault_events, 3u) << name;
}

TEST_P(FaultStorm, DenseChurnPileUpStormRecovers) {
  // A nastier storm than the original: frequent faults that teleport
  // agents into state 0 (pile-up corruption, the degenerate direction) at
  // a rate high enough that the population is hit many times over.
  const std::string name = GetParam();
  const u64 n = preferred_population(name, 72);
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(derive_seed(65, name));
  p->reset(initial::valid_ranking(*p));
  ASSERT_TRUE(p->is_silent());

  const ChurnScheduler churn(/*rate=*/0.05, /*faults=*/4, /*active=*/0,
                             ChurnReset::kStateZero);  // active 0 = 50 n
  const RunResult r = churn.run(*p, rng);
  EXPECT_TRUE(r.silent) << name;
  EXPECT_TRUE(r.valid) << name;
  EXPECT_GE(r.fault_events, 20u) << name;  // ~180 expected at this rate
}

TEST_P(FaultStorm, TotalWipeToSingleStateRecovers) {
  const std::string name = GetParam();
  const u64 n = preferred_population(name, 72);
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(derive_seed(62, name));
  p->reset(initial::valid_ranking(*p));
  ASSERT_TRUE(p->is_silent());
  // Adversary teleports the whole population into one state.
  for (const StateId target :
       {static_cast<StateId>(0), static_cast<StateId>(p->num_ranks() - 1),
        static_cast<StateId>(p->num_states() - 1)}) {
    p->reset(initial::all_in_state(*p, target));
    const RunResult r = run_accelerated(*p, rng);
    EXPECT_TRUE(r.valid) << name << " wiped to state " << target;
  }
}

TEST_P(FaultStorm, SingleAgentFaultIsCheapToRepair) {
  const std::string name = GetParam();
  if (name == "ag") GTEST_SKIP() << "AG repairs even 1 fault in Theta(n^2)";
  const u64 n = preferred_population(name, 240);
  LeaderElection le(make_protocol(name, n));
  Rng rng(derive_seed(63, name));
  le.protocol().reset(initial::valid_ranking(le.protocol()));

  double total = 0;
  const int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    le.inject_faults(1, rng);
    const RunResult r = le.stabilise(rng);
    EXPECT_TRUE(r.silent);
    total += r.parallel_time;
  }
  // One displaced agent must cost far less than the quadratic baseline's
  // cold start (~0.5 n^2, see E1).  The generous ceiling below still
  // separates "adaptive repair" from "global re-ranking"; the line
  // protocol routes the displaced agent through X and a whole line, so its
  // constant is the largest.
  EXPECT_LT(total / kRounds,
            0.5 * static_cast<double>(n) * static_cast<double>(n))
      << name;
  EXPECT_TRUE(le.has_stable_unique_leader());
}

std::string label(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FaultStorm,
                         ::testing::Values(std::string("ag"),
                                           std::string("ring-of-traps"),
                                           std::string("line-of-traps"),
                                           std::string("tree-ranking")),
                         label);

TEST(FaultInjection, ChurnFaultsActuallyPerturbASilentPopulation) {
  // Guard against the storm silently doing nothing: from a valid ranking,
  // a fault-only storm (rate 1) must change the configuration, and the
  // observer must see every fault as a configuration change with the
  // protocol kept consistent.
  ProtocolPtr p = make_protocol("ag", 16);
  Rng rng(66);
  p->reset(initial::valid_ranking(*p));
  const ChurnScheduler churn(/*rate=*/1.0, /*faults=*/1, /*active=*/8,
                             ChurnReset::kStateZero);
  RunOptions opt;
  u64 changes = 0;
  opt.on_change = [&](const Protocol& q, u64) {
    ++changes;
    EXPECT_EQ(q.configuration().agents(), 16u);
    return true;
  };
  const RunResult r = churn.run(*p, rng, opt);
  EXPECT_TRUE(r.silent);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.fault_events, 8u);  // rate 1.0: every storm tick is a fault
  EXPECT_GT(changes, 0u);
  // Faults are environmental: they never count as productive steps, so the
  // clean-up work is visible as productive_steps > 0 after a silent start.
  EXPECT_GT(r.productive_steps, 0u);
  EXPECT_GT(r.interactions, r.productive_steps);
}

TEST(FaultInjection, ChurnRunsThroughTheRunnerSchedulerPath) {
  TrialSpec spec;
  spec.protocol = "ring-of-traps";
  spec.n = 30;
  spec.label = "churn-runner";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kChurn;
  spec.scheduler.churn_rate = 0.05;
  RunnerOptions opt;
  opt.trials = 6;
  opt.threads = 3;
  const TrialSet set = run_trials(spec, opt);
  EXPECT_EQ(set.stats.trials, 6u);
  EXPECT_EQ(set.stats.timeouts, 0u);
  EXPECT_EQ(set.stats.invalid, 0u);
  // fault_events survives the runner boundary, so record-level evidence
  // that the storms actually corrupted the trials is preserved.
  u64 total_faults = 0;
  for (const TrialRecord& r : set.records) total_faults += r.fault_events;
  EXPECT_GT(total_faults, 0u);
}

// Runs the same fault-only churn storm (rate 1: every tick is a fault
// event) through the event-driven move_agent storm and the tick-by-tick
// copy-and-rebuild reference, then asserts the trajectories are
// bit-identical: identical run statistics, identical final count vector,
// and identically positioned rng streams (the follow-up draws agree).  At
// rate 1 neither storm draws for the gap or the fault coin, so both spend
// exactly the burst draws — any divergence is a real bug in the fault
// path, not noise.  Between the anchors the storms agree in distribution
// only; ChurnStormMatchesDenseReferenceInDistribution covers that.
void expect_churn_paths_bit_identical(u64 n, u64 faults, u64 storm,
                                      ChurnReset reset, u64 seed) {
  ProtocolPtr a = make_protocol("ag", n);
  ProtocolPtr b = make_protocol("ag", n);
  Rng init(seed);
  a->reset(initial::uniform_random(*a, init));
  b->reset(a->configuration());

  const ChurnScheduler fast(/*rate=*/1.0, faults, storm, reset,
                            /*rebuild_reference=*/false);
  const ChurnScheduler ref(/*rate=*/1.0, faults, storm, reset,
                           /*rebuild_reference=*/true);
  RunOptions opt;
  opt.max_interactions = storm;  // compare the storms alone, no clean tail
  Rng ra(seed + 1), rb(seed + 1);
  const RunResult x = fast.run(*a, ra, opt);
  const RunResult y = ref.run(*b, rb, opt);

  EXPECT_EQ(x.interactions, y.interactions);
  EXPECT_EQ(x.productive_steps, y.productive_steps);
  EXPECT_EQ(x.fault_events, y.fault_events);
  EXPECT_EQ(x.fault_events, storm);
  EXPECT_EQ(x.silent, y.silent);
  EXPECT_EQ(a->counts(), b->counts());
  EXPECT_EQ(ra.below(u64{1} << 30), rb.below(u64{1} << 30));
}

TEST(FaultInjection, MoveAgentFastPathIsBitIdenticalToRebuildReference) {
  // The full (reset distribution) x (burst size) matrix at a modest n —
  // every combination must agree draw for draw.
  u64 combo = 0;
  for (const ChurnReset reset :
       {ChurnReset::kUniformState, ChurnReset::kUniformRank,
        ChurnReset::kStateZero}) {
    for (const u64 faults : {u64{1}, u64{64}}) {
      expect_churn_paths_bit_identical(/*n=*/3000, faults, /*storm=*/600,
                                       reset, 7100 + combo);
      ++combo;
    }
  }
}

TEST(FaultInjection, MoveAgentFastPathIsBitIdenticalAtHundredThousand) {
  // The scale the fast path exists for: a churn storm at n = 10^5, where
  // each reference fault event costs O(n) and the fast path O(k log n).
  // The storm is short because the *reference* is slow — which is the
  // point.
  expect_churn_paths_bit_identical(/*n=*/100000, /*faults=*/64,
                                   /*storm=*/200, ChurnReset::kUniformRank,
                                   /*seed=*/7200);
}

TEST(FaultInjection, FaultFreeStormIsExactlyTheAcceleratedEngine) {
  // The other anchor: at rate 0 the event probability is the productive
  // fraction itself and the fault coin draws nothing, so a storm that
  // fills the whole budget spends exactly run_accelerated's draws.
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 64);
    const u64 budget = 20 * n;
    ProtocolPtr a = make_protocol(name, n);
    ProtocolPtr b = make_protocol(name, n);
    Rng init(derive_seed(7300, name));
    a->reset(initial::uniform_random(*a, init));
    b->reset(a->configuration());

    const ChurnScheduler churn(/*rate=*/0.0, /*faults=*/1, /*active=*/budget,
                               ChurnReset::kUniformState);
    RunOptions opt;
    opt.max_interactions = budget;
    Rng ra(derive_seed(7301, name)), rb(derive_seed(7301, name));
    const RunResult x = churn.run(*a, ra, opt);
    const RunResult y = run_accelerated(*b, rb, opt);

    // A silent run would stop run_accelerated's clock at silence while the
    // storm's runs on to its end; the budget is short enough to rule it
    // out, so every field must agree.
    ASSERT_FALSE(y.silent) << name;
    EXPECT_EQ(x.interactions, y.interactions) << name;
    EXPECT_EQ(x.productive_steps, y.productive_steps) << name;
    EXPECT_GT(x.productive_steps, 0u) << name;
    EXPECT_EQ(x.fault_events, 0u) << name;
    EXPECT_EQ(x.silent, y.silent) << name;
    EXPECT_EQ(x.valid, y.valid) << name;
    EXPECT_EQ(x.aborted, y.aborted) << name;
    EXPECT_EQ(x.parallel_time, y.parallel_time) << name;
    EXPECT_EQ(a->counts(), b->counts()) << name;
    EXPECT_EQ(ra.bits(), rb.bits()) << name;
  }
}

// Per-trial outcomes of one storm, then a clean run to silence.
struct StormSample {
  RunningStat faults;
  RunningStat productive;
  RunningStat end_weight;
  RunningStat recovery;
  u64 invalid = 0;
};

StormSample sample_storms(ThreadPool& pool, const std::string& name,
                          ChurnReset reset, bool dense_ref, u64 trials,
                          u64 seed) {
  const u64 n = preferred_population(name, 100);
  const ChurnScheduler churn(/*rate=*/0.02, /*faults=*/2, /*active=*/0,
                             reset, dense_ref);  // active 0 = 50 n
  const ProtocolPtr proto = make_protocol(name, n);
  struct Trial {
    u64 faults, productive, end_weight;
    double recovery;
    bool valid;
  };
  std::vector<Trial> out(trials);
  pool.parallel_for(trials, [&](u64 t) {
    ProtocolPtr p = proto->fresh();
    Rng rng(derive_seed(seed, name, t));
    p->reset(initial::uniform_random(*p, rng));
    RunOptions opt;
    opt.max_interactions = 50 * n;  // the storm alone
    const RunResult r = churn.run(*p, rng, opt);
    const u64 end_weight = p->productive_weight();
    const RunResult clean = run_accelerated(*p, rng);
    out[t] = {r.fault_events, r.productive_steps, end_weight,
              clean.parallel_time, clean.valid};
  });
  StormSample s;  // folded in trial order: deterministic
  for (const Trial& t : out) {
    s.faults.push(static_cast<double>(t.faults));
    s.productive.push(static_cast<double>(t.productive));
    s.end_weight.push(static_cast<double>(t.end_weight));
    s.recovery.push(t.recovery);
    if (!t.valid) ++s.invalid;
  }
  return s;
}

double two_sample_z(const RunningStat& a, const RunningStat& b) {
  const double se =
      std::sqrt(a.variance() / static_cast<double>(a.count()) +
                b.variance() / static_cast<double>(b.count()));
  return se > 0 ? (a.mean() - b.mean()) / se : 0.0;
}

TEST(FaultInjection, ChurnStormMatchesDenseReferenceInDistribution) {
  // Between the two anchors the event-driven storm and the tick-by-tick
  // reference agree in law, not in bits.  Fixed seeds keep the test
  // deterministic; |z| <= 4 on each statistic (16 comparisons) rejects a
  // real bias of a few standard errors, while a correct storm would trip
  // it for about one seed choice in a thousand.
  const u64 trials = 4000;
  ThreadPool pool(4);
  for (const std::string name : {"ring-of-traps", "line-of-traps"}) {
    for (const ChurnReset reset :
         {ChurnReset::kUniformState, ChurnReset::kStateZero}) {
      const StormSample fast =
          sample_storms(pool, name, reset, false, trials, 7400);
      const StormSample ref =
          sample_storms(pool, name, reset, true, trials, 7500);
      const std::string where =
          name + " reset=" + std::to_string(static_cast<int>(reset));
      EXPECT_EQ(fast.invalid + ref.invalid, 0u) << where;
      EXPECT_GT(fast.faults.mean(), 1.0) << where;
      EXPECT_LE(std::fabs(two_sample_z(fast.faults, ref.faults)), 4.0)
          << where;
      EXPECT_LE(std::fabs(two_sample_z(fast.productive, ref.productive)), 4.0)
          << where;
      EXPECT_LE(std::fabs(two_sample_z(fast.end_weight, ref.end_weight)), 4.0)
          << where;
      EXPECT_LE(std::fabs(two_sample_z(fast.recovery, ref.recovery)), 4.0)
          << where;
    }
  }
}

TEST(FaultInjection, FaultStateTouchesCounterBoundsPerFaultWork) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  // Record-level evidence that a fault burst costs O(k), not O(n): the
  // fast path bumps fault_state_touches by exactly 2 per *applied* move
  // (teleports whose victim already sits in the target state are free), so
  // the counter is bounded by 2 * faults * fault_events no matter how
  // large the population is.  (The ISSUE sketch named the sampler-layer
  // group_touches counter here, but the churn fast path never touches
  // sampler groups — it mutates the count vector directly — so the bound
  // lives on its own dedicated counter.)
  const u64 n = 50000;
  const u64 faults = 16;
  const u64 storm = 256;
  ProtocolPtr p = make_protocol("ag", n);
  Rng rng(6900);
  p->reset(initial::uniform_random(*p, rng));
  const ChurnScheduler churn(/*rate=*/1.0, faults, storm,
                             ChurnReset::kUniformState);
  RunOptions opt;
  opt.max_interactions = storm;
  obs::CounterBlock block;
  {
    obs::ScopedCounters scope(&block);
    const RunResult r = churn.run(*p, rng, opt);
    EXPECT_EQ(r.fault_events, storm);  // rate 1.0: every tick is a fault
  }
  const u64 touches = block.get(obs::Counter::kFaultStateTouches);
  EXPECT_GT(touches, 0u);
  EXPECT_LE(touches, 2 * faults * storm);
#endif
}

TEST(FaultInjection, LeaderEventuallyStableEvenWhenFaultsHitRankZero) {
  // Target the leader specifically: repeatedly displace whatever agent
  // holds rank 0.
  LeaderElection le(make_protocol("tree-ranking", 64));
  Rng rng(64);
  le.protocol().reset(initial::valid_ranking(le.protocol()));
  for (int round = 0; round < 8; ++round) {
    // Move the rank-0 agent somewhere random by hand.
    Configuration c = le.protocol().configuration();
    ASSERT_GE(c.counts[0], 1u);
    --c.counts[0];
    ++c.counts[rng.below(c.num_states())];
    le.protocol().reset(c);
    le.stabilise(rng);
    EXPECT_TRUE(le.has_stable_unique_leader()) << "round " << round;
  }
}

}  // namespace
}  // namespace pp
