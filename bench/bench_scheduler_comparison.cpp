// S1 — scheduler comparison: the same protocols under every interaction
// model in the standard menu (src/schedulers/).
//
// The paper's complexity claims are stated for the uniform random
// scheduler.  This bench exercises every protocol under the pluggable
// scheduler subsystem and reports how stabilisation behaves per model:
//
//   accelerated-uniform    the paper's model, exact null-skipping engine;
//   uniform                the same model simulated step-by-step (sanity
//                          anchor: statistics must agree with the above);
//   random-matching        synchronous rounds of random maximal matchings
//                          (parallel time = rounds, so roughly half the
//                          uniform model's interactions/n measure);
//   weighted[...]          pair selection from a weight kernel on the
//                          Fenwick-backed sampler layer: uniform weights
//                          (sanity anchor: must match uniform) and the
//                          spatial ring-decay kernel, whose distance-
//                          decaying meeting rates slow ranking by a
//                          log-factor premium without ever severing a
//                          pair;
//   churn[...]             uniform pairs plus a transient-fault storm
//                          (agents teleported to random states) that stops
//                          after 50 n ticks — stabilisation time includes
//                          recovering from every fault, so expect a
//                          constant-factor premium over uniform;
//   partition[...]         the population is split into non-interacting
//                          blocks for 3 split/heal cycles (cross-block
//                          meetings are dropped as nulls) before healing
//                          for good — the split phases delay global repair;
//   graph-restricted[...]  interactions restricted to the edges of a fixed
//                          topology: complete (must match uniform), a
//                          random 4-regular expander surrogate and the
//                          cycle.  Self-stabilising ranking needs *global*
//                          meetings — the end-game duplicates of a nearly
//                          ranked population are rarely adjacent in any
//                          sparse graph — so both sparse topologies strand
//                          most runs ("unstab." counts locally stuck +
//                          budget-exhausted trials).  That stranding is
//                          the phenomenon on display, not a bug;
//   dynamic[cycle/...]     the SAME sparse cycle made dynamic, both ways:
//                          edge-Markovian birth/death flips at cycle-
//                          matched stationary sparsity, and periodic
//                          rewiring every n steps.  Where the static
//                          cycle strands, both dynamics deliver every run
//                          to silence at a constant-factor premium — the
//                          headline contrast (ranking needs mixing, not
//                          density), pinned by tests/test_weighted_dynamic.
//
// A second, *scale* section exercises the hierarchically-sampled models
// (weighted kernels, sparse edge-Markovian) at n ∈ {10^4, 10^5} — the
// range the dense pair universe could never reach — under a fixed
// parallel-time budget: AG needs ~n² parallel time, so these points
// measure *throughput at scale* (trials/s with every null skipped and
// memory O(n)), not stabilisation.  They are labelled "s1-scale-..." so
// the stabilisation figure keeps its panels honest, and they respect
// --max-n (quick mode defaults to capping them away; CI raises the cap
// per build type).  The extra-state protocols (line-of-traps,
// tree-ranking) get their own scale sections on the same fast path —
// their declared extra-pair classes ride the grouped sampler's extra
// window and the weighted[trap-decay] state-distance kernel, so the
// dense-only cap they used to carry is gone.
//
// A third, "s3-scale-..." section runs the paper's own uniform model on
// the accelerated engine at n ∈ {10^6, 10^7, 10^8}: its per-event cost is
// O(log states), independent of n, and a parallel-time budget of 2·10^4
// gives each trial ~2·10^4 productive events.
//
// The adversarial schedulers are deliberately absent here (O(states^2) per
// step makes them a small-n tool); bench_adversarial drives them through
// the same runner path and BENCH record format.
//
// Every (protocol × scheduler × n) point goes through the parallel runner
// and appends one BENCH json record, so the perf trajectory tracks all
// models, not just the paper's.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/checked_math.hpp"
#include "protocols/factory.hpp"
#include "schedulers/scheduler.hpp"

namespace pp::bench {
namespace {

int run(const Context& ctx) {
  const u64 trials = ctx.trials_or(ctx.quick() ? 10 : 30);
  const std::vector<u64> sizes = ctx.quick()  ? std::vector<u64>{16, 32}
                                 : ctx.full() ? std::vector<u64>{64, 128, 256}
                                              : std::vector<u64>{32, 64, 128};
  const char* protocols[] = {"ag", "tree-ranking"};

  for (const char* proto : protocols) {
    Table t(std::string("S1 scheduler comparison — ") + proto + " (" +
            std::to_string(trials) + " trials/point)");
    t.headers({"scheduler", "n", "mean time", "ci95", "median", "q95",
               "unstab.", "trials/s"});
    for (const SchedulerSpec& sched : standard_scheduler_menu()) {
      const std::string sched_name = sched.to_string();
      for (const u64 raw_n : sizes) {
        const u64 n = preferred_population(proto, raw_n);
        // Generous whp headroom over the paper's uniform-scheduler bounds
        // (O(n^2) parallel time for AG): runs that a model genuinely
        // strands show up in "unstab.", they don't hang the bench.
        const u64 budget = checked_mul(20, n, n, n);
        // Registry protocol + named init rather than an opaque factory
        // lambda: resolve_factory() builds the identical protocol, and
        // the point's provenance-manifest record stays replayable.
        TrialSpec spec;
        spec.label = std::string("s1-") + proto + "-" + sched_name;
        spec.protocol = proto;
        spec.n = n;
        spec.init = gen_uniform_random();
        spec.max_interactions = budget;
        spec.engine = EngineKind::kScheduled;
        spec.scheduler = sched;
        const TrialSet set =
            run_trials_ctx(ctx, spec, runner_options(ctx, trials));
        warn_if_invalid(set, spec.label);
        emit_bench_json(ctx, spec, n, 0, set);
        const Summary sum = set.summary();
        t.row()
            .cell(sched_name)
            .cell(n)
            .cell(sum.mean, 5)
            .cell(sum.ci95_halfwidth(), 3)
            .cell(sum.median, 5)
            .cell(sum.q95, 5)
            .cell(set.stats.timeouts)
            .cell(set.trials_per_sec, 4);
      }
    }
    emit(ctx, t);
  }

  // ---- scale section: the hierarchical sampler at 10^4 .. 10^5 ----------
  run_scale_section(
      ctx, "S1 scale — hierarchical sampler throughput", "s1-scale-ag-", "ag",
      capped_sizes(ctx, {10000, 100000}), 5, [](u64 n) {
        std::vector<SchedulerSpec> menu;
        SchedulerSpec s;
        s.kind = SchedulerKind::kAcceleratedUniform;  // reference row
        menu.push_back(s);
        s.kind = SchedulerKind::kWeighted;
        s.kernel = WeightKernel::kUniform;
        menu.push_back(s);
        s.kernel = WeightKernel::kRingDecay;
        menu.push_back(s);
        s = SchedulerSpec{};
        s.kind = SchedulerKind::kDynamicGraph;
        s.graph = GraphKind::kCycle;
        s.dynamics = GraphDynamics::kEdgeMarkovian;
        // Scale the per-step death rate as 2/n so each edge refreshes ~2x
        // per unit of parallel time at every n — holding the *per-step*
        // rate fixed instead would make the topology mix ever faster
        // relative to the protocol as n grows (and make the flip stream,
        // which is Θ(n · death) work per step, quadratic in n).
        s.edge_death = 2.0 / static_cast<double>(n);
        menu.push_back(s);
        return menu;
      });

  // ---- scale section: extra-state protocols on the same fast path --------
  // Line-of-traps and tree-ranking carry extra (non-rank) states, which
  // used to force the weighted models onto the dense Θ(n²) path and cap
  // them near n = 4096.  Their declared ExtraPairClasses now ride the
  // grouped sampler's extra window (and the trap-decay state-distance
  // kernel), so the whole protocol matrix shares one 10^4..10^5 fast
  // path.  Same budget-capped throughput semantics as the ag section.
  for (const char* proto : {"line-of-traps", "tree-ranking"}) {
    run_scale_section(
        ctx, "S1 scale — extra-state protocol throughput",
        std::string("s1-scale-") + proto + "-", proto,
        capped_sizes(ctx, {10000, 100000}), 5, [](u64 n) {
          std::vector<SchedulerSpec> menu;
          SchedulerSpec s;
          s.kind = SchedulerKind::kWeighted;
          s.kernel = WeightKernel::kRingDecay;
          menu.push_back(s);
          s.kernel = WeightKernel::kTrapDecay;
          menu.push_back(s);
          s = SchedulerSpec{};
          s.kind = SchedulerKind::kDynamicGraph;
          s.graph = GraphKind::kCycle;
          s.dynamics = GraphDynamics::kEdgeMarkovian;
          s.edge_death = 2.0 / static_cast<double>(n);  // see the ag section
          menu.push_back(s);
          return menu;
        });
  }

  // ---- s3 scale section: the paper's model at 10^6 .. 10^8 --------------
  // The accelerated engine keeps no per-agent state: the protocol's count
  // tree is the configuration, and an event costs O(log states) whatever
  // n is.  From a uniform start AG's productive weight is ~n, so each unit
  // of parallel time yields about one event; a budget of 2·10^4 gives
  // ~2·10^4 events per trial (from 10^7 up the per-trial set-up still
  // dominates the wall time).  Budget-capped throughput points like
  // s1-scale (AG stabilisation at n = 10^8 needs ~10^16 interactions); CI
  // runs Release with --max-n=10^7, the 10^8 point is for full local runs.
  run_scale_section(
      ctx, "S3 scale — accelerated engine throughput", "s3-scale-ag-", "ag",
      capped_sizes(ctx, {1000000, 10000000, 100000000}), 20000, [](u64) {
        SchedulerSpec s;
        s.kind = SchedulerKind::kAcceleratedUniform;
        return std::vector<SchedulerSpec>{s};
      });

  std::printf(
      "model notes: parallel time is interactions/n except random-matching "
      "(rounds); \"unstab.\" counts budget exhaustion AND locally-stuck "
      "graph-restricted runs.  Expect uniform == accelerated-uniform == "
      "weighted[uniform] == graph-restricted[complete] statistically, "
      "matching about half the uniform measure, churn / partition / "
      "weighted[ring-decay] a constant-to-log factor above uniform, both "
      "sparse static topologies stranding most runs (ranking needs global "
      "meetings) — and the dynamic[cycle/...] rows, the same cycle with "
      "edge churn or periodic rewiring, stabilising every run: mixing, "
      "not density, is what ranking needs.\n");
  return 0;
}

}  // namespace
}  // namespace pp::bench

int main(int argc, char** argv) {
  const auto ctx = pp::bench::init(
      argc, argv, "S1: protocols under alternative schedulers",
      "Robustness axis: the paper's protocols exercised under matching, "
      "graph-restricted and uniform interaction models.");
  return pp::bench::run(ctx);
}
