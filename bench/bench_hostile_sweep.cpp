// S2 — hostile-environment parameter sweep: how much abuse does a
// protocol absorb before the constant-factor premium turns into
// non-stabilisation within a budget?
//
// The standard menu runs the churn and partition models at one default
// knob setting each; this bench sweeps the hostile axes themselves:
//
//   churn      rate × burst grid: per-tick fault probability
//              {0.005, 0.02, 0.08} × agents teleported per fault event
//              {1, 4, 16}, uniform-state resets, the default 50 n-tick
//              storm.  The measured stabilisation time *includes*
//              recovering from every fault — self-stabilisation's
//              constant-factor premium — until the fault inflow
//              outpaces repair and trials start exhausting the budget
//              ("unstab.");
//   partition  block count {2, 3, 4, 8}: the population is split into b
//              non-interacting blocks for the default 3 split/heal
//              cycles.  More blocks mean smaller islands that rank
//              locally but must reconcile globally on every heal.
//
// Every (protocol × point) goes through the parallel runner and appends
// one BENCH json record with the swept knob in the `param` column, so the
// perf trajectory tracks the whole grid, not just the defaults.
//
// A trailing *scale* section drives the default churn and partition knobs
// (plus the sparse edge-Markovian model) at n ∈ {10^4, 10^5} under a
// fixed parallel-time budget — throughput-at-scale records
// ("s2-scale-..."), not stabilisation.  It respects --max-n: CI's
// build-job smoke passes --max-n=10000 so the 10^4 rows run (and are
// gated against baselines) per commit, while the sanitizer smoke stays
// at quick mode's default cap.
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
  const u64 trials = ctx.trials_or(ctx.quick() ? 8 : 25);
  const u64 raw_n = ctx.quick() ? 32 : ctx.full() ? 128 : 64;
  const char* protocols[] = {"ag", "tree-ranking"};

  const double churn_rates[] = {0.005, 0.02, 0.08};
  const u64 churn_bursts[] = {1, 4, 16};
  const u64 partition_blocks[] = {2, 3, 4, 8};

  for (const char* proto : protocols) {
    const u64 n = preferred_population(proto, raw_n);
    // Generous whp headroom over the paper's uniform-scheduler bounds:
    // points that a knob setting genuinely breaks show up in "unstab.",
    // they don't hang the bench.
    const u64 budget = checked_mul(20, n, n, n);
    const std::string name = proto;
    const auto run_spec = [&](const SchedulerSpec& sched, double param,
                              Table& t) {
      const std::string sched_name = sched.to_string();
      // Registry protocol + named init rather than an opaque factory
      // lambda: resolve_factory() builds the identical protocol, and
      // the point's provenance-manifest record stays replayable.
      TrialSpec spec;
      spec.label = std::string("s2-") + proto + "-" + sched_name;
      spec.protocol = name;
      spec.n = n;
      spec.init = gen_uniform_random();
      spec.max_interactions = budget;
      spec.engine = EngineKind::kScheduled;
      spec.scheduler = sched;
      const TrialSet set =
          run_trials_ctx(ctx, spec, runner_options(ctx, trials));
      warn_if_invalid(set, spec.label);
      emit_bench_json(ctx, spec, n, param, set);
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
    };

    Table churn(std::string("S2 churn sweep — ") + proto + " (rate x burst, " +
                std::to_string(trials) + " trials/point)");
    churn.headers({"scheduler", "n", "mean time", "ci95", "median", "q95",
                   "unstab.", "trials/s"});
    for (const double rate : churn_rates) {
      for (const u64 burst : churn_bursts) {
        SchedulerSpec s;
        s.kind = SchedulerKind::kChurn;
        s.churn_rate = rate;
        s.churn_faults = burst;
        // param encodes the grid point as rate * burst — the expected
        // fault inflow per tick, the axis the stabilisation premium
        // actually tracks.
        run_spec(s, rate * static_cast<double>(burst), churn);
      }
    }
    emit(ctx, churn);

    Table part(std::string("S2 partition sweep — ") + proto + " (blocks, " +
               std::to_string(trials) + " trials/point)");
    part.headers({"scheduler", "n", "mean time", "ci95", "median", "q95",
                  "unstab.", "trials/s"});
    for (const u64 blocks : partition_blocks) {
      SchedulerSpec s;
      s.kind = SchedulerKind::kPartition;
      s.partition_blocks = blocks;
      run_spec(s, static_cast<double>(blocks), part);
    }
    emit(ctx, part);
  }

  // ---- scale section: hostile + dynamic models at 10^4 .. 10^5 ----------
  run_scale_section(
      ctx, "S2 scale — hostile-model throughput", "s2-scale-ag-", "ag",
      capped_sizes(ctx, {10000, 100000}), 5, [](u64 n) {
        std::vector<SchedulerSpec> menu;
        SchedulerSpec s;
        // Churn fault events cost O(k log n) through the protocol's
        // move_agent mutation API (bench_sampler_update measures the
        // per-fault cost directly), so the churn row runs the full size
        // grid — the old copy-and-rebuild path that capped it at 10^4
        // survives only as the churn[.../dense-ref] reference spec.
        s.kind = SchedulerKind::kChurn;
        menu.push_back(s);
        s = SchedulerSpec{};
        s.kind = SchedulerKind::kPartition;
        menu.push_back(s);
        s = SchedulerSpec{};
        s.kind = SchedulerKind::kDynamicGraph;
        s.graph = GraphKind::kCycle;
        s.dynamics = GraphDynamics::kEdgeMarkovian;
        s.edge_death = 2.0 / static_cast<double>(n);  // see S1's scale notes
        menu.push_back(s);
        return menu;
      });

  std::printf(
      "axes: churn param = rate x burst (expected teleported agents per "
      "tick); partition param = block count.  Stabilisation time includes "
      "fault recovery / post-heal reconciliation; \"unstab.\" counts trials "
      "that exhausted the budget.\n");
  return 0;
}

}  // namespace
}  // namespace pp::bench

int main(int argc, char** argv) {
  const auto ctx = pp::bench::init(
      argc, argv, "S2: hostile-environment parameter sweep",
      "Robustness axis: churn rate x fault burst and partition block count "
      "against stabilisation time.");
  return pp::bench::run(ctx);
}
