// Protocol::fresh() and the runner's one-protocol-per-trial-set path:
// fresh() instances share their factory build's immutable geometry (ring or
// line layout, balanced tree) yet hold independent configurations, and
// trials run on them reproduce trials run on a factory build of their own,
// bit for bit, at every thread count.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "protocols/line_of_traps.hpp"
#include "protocols/ring_of_traps.hpp"
#include "protocols/tree_ranking.hpp"
#include "runner/runner.hpp"
#include "runner/seed_stream.hpp"

namespace pp {
namespace {

struct Case {
  std::string name;
  ProtocolFactory factory;
};

// The four registry protocols, the single-line sub-protocol and a forced
// trap count (the bench_ablations factory shape).
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 90);
    out.push_back({std::string(name),
                   [name, n] { return make_protocol(name, n); }});
  }
  out.push_back({"single-line", [] {
                   return std::make_unique<SingleLineProtocol>(40, 4, 3);
                 }});
  out.push_back({"ring-of-traps(120, 5 traps)", [] {
                   return std::make_unique<RingOfTrapsProtocol>(120, 5);
                 }});
  return out;
}

// The geometry fresh() shares, by address (ag and single-line have none:
// their rules are arithmetic on the state id).
const void* layout_of(const Protocol& p) {
  if (const auto* r = dynamic_cast<const RingOfTrapsProtocol*>(&p)) {
    return &r->layout();
  }
  if (const auto* l = dynamic_cast<const LineOfTrapsProtocol*>(&p)) {
    return &l->layout();
  }
  if (const auto* t = dynamic_cast<const TreeRankingProtocol*>(&p)) {
    return &t->tree();
  }
  return nullptr;
}

bool same_record(const TrialRecord& a, const TrialRecord& b) {
  return a.trial == b.trial && a.seed == b.seed &&
         a.interactions == b.interactions &&
         a.productive_steps == b.productive_steps &&
         a.fault_events == b.fault_events &&
         a.parallel_time == b.parallel_time && a.silent == b.silent &&
         a.valid == b.valid;
}

TEST(ProtocolSharing, FreshInstancesShareTablesAndNothingElse) {
  for (const Case& c : cases()) {
    ProtocolPtr probe = c.factory();
    const ProtocolPtr a = probe->fresh();
    const ProtocolPtr b = probe->fresh();
    EXPECT_EQ(a->name(), probe->name()) << c.name;
    EXPECT_EQ(a->num_agents(), probe->num_agents()) << c.name;
    EXPECT_EQ(a->num_states(), probe->num_states()) << c.name;
    EXPECT_EQ(layout_of(*a), layout_of(*probe)) << c.name;
    EXPECT_EQ(layout_of(*a), layout_of(*b)) << c.name;
    const void* layout = layout_of(*a);

    // The tables outlive the instance they were built by.
    probe.reset();
    EXPECT_EQ(layout_of(*a), layout) << c.name;

    Rng rng(5);
    const Configuration ca = initial::uniform_random(*a, rng);
    const Configuration cb = initial::all_in_state(*b, 0);
    a->reset(ca);
    b->reset(cb);
    EXPECT_EQ(a->counts(), ca.counts) << c.name;
    EXPECT_EQ(b->counts(), cb.counts) << c.name;

    // Mutating one leaves the other alone, and each stays equal to a
    // factory build loaded with its own configuration.
    for (u64 k = 0; k < 40 && !a->is_silent(); ++k) a->step_productive(rng);
    const StateId from = a->uniform_agent_state(0);
    a->move_agent(from, static_cast<StateId>(a->num_states() - 1));
    a->commit_moves();
    b->move_agent(0, 1);
    b->commit_moves();
    Configuration cb_moved = cb;
    --cb_moved.counts[0];
    ++cb_moved.counts[1];
    EXPECT_EQ(b->counts(), cb_moved.counts) << c.name;
    for (const Protocol* p : {a.get(), b.get()}) {
      const ProtocolPtr rebuilt = c.factory();
      rebuilt->reset(p->configuration());
      EXPECT_EQ(rebuilt->productive_weight(), p->productive_weight())
          << c.name;
    }
  }
}

TEST(ProtocolSharing, RunnerTrialsEqualTrialsOnTheirOwnFactoryBuild) {
  for (const Case& c : cases()) {
    for (const EngineKind engine :
         {EngineKind::kAccelerated, EngineKind::kUniform}) {
      TrialSpec spec;
      spec.factory = c.factory;
      spec.engine = engine;
      spec.max_interactions = 200000;
      spec.label = "test-protocol-sharing/" + c.name;
      RunnerOptions opt;
      opt.trials = 6;
      // What the runner does, without fresh(): one factory build per
      // trial, loaded and run directly.
      const SeedStream seeds(opt.master_seed, spec.label);
      std::vector<TrialRecord> own;
      for (u64 t = 0; t < opt.trials; ++t) {
        const ProtocolPtr p = c.factory();
        Rng rng(seeds.trial_seed(t));
        p->reset(initial::uniform_random(*p, rng));
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        const RunResult r = engine == EngineKind::kAccelerated
                                ? run_accelerated(*p, rng, ro)
                                : run_uniform(*p, rng, ro);
        TrialRecord rec;
        rec.trial = t;
        rec.seed = seeds.trial_seed(t);
        rec.interactions = r.interactions;
        rec.productive_steps = r.productive_steps;
        rec.fault_events = r.fault_events;
        rec.parallel_time = r.parallel_time;
        rec.silent = r.silent;
        rec.valid = r.valid;
        own.push_back(rec);
        EXPECT_TRUE(same_record(
            run_one_trial(spec, t, seeds.trial_seed(t)), rec))
            << c.name << " trial " << t;
      }
      for (const u64 threads : {1u, 4u}) {
        opt.threads = threads;
        const TrialSet set = run_trials(spec, opt);
        ASSERT_EQ(set.records.size(), own.size());
        for (u64 t = 0; t < opt.trials; ++t) {
          EXPECT_TRUE(same_record(set.records[t], own[t]))
              << c.name << " " << engine_kind_name(engine) << " trial " << t
              << " threads " << threads;
        }
      }
    }
  }
}

TEST(ProtocolSharing, FactoryRunsOncePerTrialSet) {
  u64 calls = 0;
  TrialSpec spec;
  spec.factory = [&calls] {
    ++calls;
    return make_protocol("ag", 16);
  };
  spec.label = "test-protocol-sharing/calls";
  RunnerOptions opt;
  opt.trials = 8;
  opt.threads = 4;
  run_trials(spec, opt);
  EXPECT_EQ(calls, 1u);
  ThreadPool pool(2);
  run_trial_ranges(spec, opt.master_seed, {{0, 5}, {7, 9}}, pool);
  EXPECT_EQ(calls, 2u);
  run_trial_ranges(spec, opt.master_seed, {{3, 3}}, pool);  // nothing to run
  EXPECT_EQ(calls, 2u);
}

}  // namespace
}  // namespace pp
