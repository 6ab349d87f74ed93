// A3 — engine microbenchmarks (google-benchmark).
//
// Measures the cost of the simulator itself rather than protocol time:
//   * productive-step throughput per protocol (the accelerated engine's
//     unit of work: Fenwick sample + rule application),
//   * uniform-step throughput (the naive engine's unit of work) at
//     10^3 .. 10^6 agents, and the churn storm tick built on it,
//   * full stabilisation wall-time, accelerated vs uniform — the speedup
//     that makes the Θ(n^2)-time protocols benchable at all,
//   * Fenwick::find / Fenwick::add at 10^3 .. 10^7 slots — one row per
//     cache regime (L1, L2, L3, DRAM) of the sum tree under every engine,
//   * per-trial set-up (factory, uniform random start, reset) at
//     10^5 .. 10^7 agents, in ms,
//   * Monte-Carlo trial throughput, legacy serial harness vs the parallel
//     runner at 1/2/4/8 threads (compare the "trials/s" counters; on a
//     machine with >= 8 cores the 8-thread runner should be >= 3x the
//     serial path — the fan-out is embarrassingly parallel).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/engine.hpp"
#include "core/initial.hpp"
#include "ds/fenwick.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "schedulers/churn.hpp"

namespace pp {
namespace {

void BM_ProductiveStep(benchmark::State& state, const char* name) {
  const u64 n = preferred_population(name, static_cast<u64>(state.range(0)));
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(1);
  p->reset(initial::uniform_random(*p, rng));
  u64 steps = 0;
  for (auto _ : state) {
    if (p->is_silent()) {
      state.PauseTiming();
      p->reset(initial::uniform_random(*p, rng));
      state.ResumeTiming();
    }
    p->step_productive(rng);
    ++steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}

void BM_UniformStep(benchmark::State& state, const char* name) {
  const u64 n = preferred_population(name, static_cast<u64>(state.range(0)));
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(2);
  p->reset(initial::uniform_random(*p, rng));
  u64 steps = 0;
  for (auto _ : state) {
    if (p->is_silent()) {
      state.PauseTiming();
      p->reset(initial::uniform_random(*p, rng));
      state.ResumeTiming();
    }
    p->step_uniform(rng);
    ++steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}

/// A churn[0.02/uniform-state] storm on one ring-of-traps population: each
/// iteration runs n more storm ticks (the storm skips the null ticks
/// between fault and productive events in closed form) on the same,
/// ever-churned configuration.  items/s is ticks/s.
void BM_ChurnTick(benchmark::State& state) {
  const u64 n = preferred_population("ring-of-traps",
                                     static_cast<u64>(state.range(0)));
  ProtocolPtr p = make_protocol("ring-of-traps", n);
  Rng rng(6);
  p->reset(initial::uniform_random(*p, rng));
  const ChurnScheduler storm(0.02, 1, n, ChurnReset::kUniformState);
  RunOptions opt;
  opt.max_interactions = n;  // the storm only, never the clean tail
  u64 ticks = 0;
  for (auto _ : state) {
    const RunResult r = storm.run(*p, rng, opt);
    ticks += r.interactions;
    benchmark::DoNotOptimize(r.productive_steps);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ticks));
}

void BM_StabiliseAccelerated(benchmark::State& state, const char* name) {
  const u64 n = preferred_population(name, static_cast<u64>(state.range(0)));
  Rng rng(3);
  u64 interactions = 0;
  for (auto _ : state) {
    ProtocolPtr p = make_protocol(name, n);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_accelerated(*p, rng);
    interactions += r.interactions;
    benchmark::DoNotOptimize(r.parallel_time);
  }
  state.counters["interactions/s"] = benchmark::Counter(
      static_cast<double>(interactions), benchmark::Counter::kIsRate);
}

void BM_StabiliseUniform(benchmark::State& state, const char* name) {
  const u64 n = preferred_population(name, static_cast<u64>(state.range(0)));
  Rng rng(4);
  u64 interactions = 0;
  for (auto _ : state) {
    ProtocolPtr p = make_protocol(name, n);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_uniform(*p, rng);
    interactions += r.interactions;
    benchmark::DoNotOptimize(r.parallel_time);
  }
  state.counters["interactions/s"] = benchmark::Counter(
      static_cast<double>(interactions), benchmark::Counter::kIsRate);
}

BENCHMARK_CAPTURE(BM_ProductiveStep, ag, "ag")->Arg(1024)->Arg(16384);
// 10^6 and 10^7 put the counts (8 MB, 80 MB) and the trees' internal
// levels out of cache: a step there is bound by its tree walks' misses.
BENCHMARK_CAPTURE(BM_ProductiveStep, ring, "ring-of-traps")
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(1000000)
    ->Arg(10000000);
BENCHMARK_CAPTURE(BM_ProductiveStep, line, "line-of-traps")->Arg(960);
BENCHMARK_CAPTURE(BM_ProductiveStep, tree, "tree-ranking")
    ->Arg(1024)
    ->Arg(16384);

BENCHMARK_CAPTURE(BM_UniformStep, ag, "ag")->Arg(1024);
BENCHMARK_CAPTURE(BM_UniformStep, tree, "tree-ranking")->Arg(1024);
BENCHMARK_CAPTURE(BM_UniformStep, ring, "ring-of-traps")
    ->RangeMultiplier(10)
    ->Range(1000, 1000000);
BENCHMARK_CAPTURE(BM_UniformStep, line, "line-of-traps")
    ->RangeMultiplier(10)
    ->Range(1000, 1000000);
BENCHMARK(BM_ChurnTick)->Arg(100000)->Unit(benchmark::kMillisecond);

// Accelerated engine stabilises a 256-agent AG instance in microseconds;
// the uniform engine needs ~n^3 = 16M simulated interactions for the same
// thing — the comparison quantifies the exact-null-skipping speedup.
BENCHMARK_CAPTURE(BM_StabiliseAccelerated, ag, "ag")->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StabiliseUniform, ag, "ag")->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StabiliseAccelerated, tree, "tree-ranking")->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// ---- the sum tree alone, at every cache size -----------------------------

constexpr u64 kFenwickOps = u64{1} << 16;  ///< pre-drawn random operands

/// A tree of n weights in 0..3 (small, like the count vector of a uniform
/// random start, ~1/4 zeros), plus kFenwickOps random find targets and
/// update slots, so the timed loop is tree traffic only.
struct FenwickFixture {
  Fenwick tree;
  std::vector<u64> targets;
  std::vector<u64> slots;

  explicit FenwickFixture(u64 n) : targets(kFenwickOps), slots(kFenwickOps) {
    Rng rng(5);
    std::vector<u64> weights(n);
    for (u64& w : weights) w = rng.below(4);
    tree.assign(std::move(weights));
    for (u64 k = 0; k < kFenwickOps; ++k) {
      targets[k] = rng.below(tree.total());
      slots[k] = rng.below(n);
    }
  }
};

void BM_FenwickFind(benchmark::State& state) {
  const FenwickFixture f(static_cast<u64>(state.range(0)));
  u64 k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree.find(f.targets[k]));
    k = (k + 1) & (kFenwickOps - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

/// One add(+1) and its add(-1) per iteration, so the weights stay put.
void BM_FenwickAdd(benchmark::State& state) {
  FenwickFixture f(static_cast<u64>(state.range(0)));
  u64 k = 0;
  for (auto _ : state) {
    f.tree.add(f.slots[k], +1);
    f.tree.add(f.slots[k], -1);
    k = (k + 1) & (kFenwickOps - 1);
  }
  benchmark::DoNotOptimize(f.tree.total());
  state.SetItemsProcessed(static_cast<int64_t>(2 * state.iterations()));
}

BENCHMARK(BM_FenwickFind)->RangeMultiplier(10)->Range(1000, 10000000);
BENCHMARK(BM_FenwickAdd)->RangeMultiplier(10)->Range(1000, 10000000);

// ---- per-trial set-up -----------------------------------------------------

/// What the runner does before every trial: take a fresh() instance of
/// the protocol it built once per trial set, draw a uniform random start
/// over all states, load it with reset().  At 10^7 agents this is the
/// whole of a short-budget trial.
void BM_TrialSetup(benchmark::State& state) {
  const u64 n = preferred_population("ring-of-traps",
                                     static_cast<u64>(state.range(0)));
  const ProtocolPtr tables = make_protocol("ring-of-traps", n);
  Rng rng(7);
  for (auto _ : state) {
    ProtocolPtr p = tables->fresh();
    p->reset(initial::uniform_random(*p, rng));
    benchmark::DoNotOptimize(p->productive_weight());
  }
}

BENCHMARK(BM_TrialSetup)
    ->RangeMultiplier(10)
    ->Range(100000, 10000000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Monte-Carlo trial throughput: serial harness vs parallel runner ----

constexpr u64 kTrialBatch = 32;  ///< trials per benchmark iteration

/// The pre-runner path: analysis/experiment.cpp's serial measure() loop.
void BM_TrialsSerial(benchmark::State& state) {
  const u64 n = preferred_population("ring-of-traps", 1024);
  MeasureOptions opt;
  opt.trials = kTrialBatch;
  opt.label = "bm-trials";
  u64 trials = 0;
  for (auto _ : state) {
    const Measurement m =
        measure([n] { return make_protocol("ring-of-traps", n); },
                gen_uniform_random(), opt);
    trials += m.parallel_times.size();
    benchmark::DoNotOptimize(m.timeouts);
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
}

/// The same trials (bit-identical per-trial results — same seed stream)
/// fanned out over the runner's thread pool; Arg = thread count.
void BM_TrialsRunner(benchmark::State& state) {
  const u64 n = preferred_population("ring-of-traps", 1024);
  TrialSpec spec;
  spec.protocol = "ring-of-traps";
  spec.n = n;
  spec.label = "bm-trials";
  RunnerOptions opt;
  opt.trials = kTrialBatch;
  opt.threads = static_cast<u64>(state.range(0));
  opt.keep_records = false;
  ThreadPool pool(opt.threads);
  u64 trials = 0;
  for (auto _ : state) {
    const TrialSet set = run_trials(spec, opt, pool);
    trials += set.stats.trials;
    benchmark::DoNotOptimize(set.stats.timeouts);
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_TrialsSerial)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_TrialsRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace pp

BENCHMARK_MAIN();
