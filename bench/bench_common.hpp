// Shared plumbing for the benchmark binaries.
//
// Every bench accepts the same knobs (flags override environment):
//   --trials=N  / POPRANK_TRIALS     trials per measurement point
//   --seed=S    / POPRANK_SEED       root seed (printed for reproduction)
//   --threads=T / POPRANK_THREADS    runner pool size (0 = all cores)
//   --csv=DIR   / POPRANK_CSV_DIR    also dump every table as CSV
//   --quick     / POPRANK_QUICK=1    smaller sweeps (CI-sized)
//   --full      / POPRANK_FULL=1     larger sweeps (paper-sized)
//   --max-n=N   / POPRANK_MAX_N      population cap applied to every sweep
//                                    (0 = per-size default: quick caps at
//                                    4096 so the large-n scale points stay
//                                    opt-in for CI smoke steps, standard
//                                    and full are uncapped)
//   --cache-dir=D / POPRANK_CACHE_DIR   chunk-result cache root: points are
//                                    split into chunks, cached on disk and
//                                    resumed across invocations
//                                    (src/service/); missing chunks run
//                                    on the --threads pool
//
// Measurement points fan their trials out over the parallel runner
// (src/runner/), whose per-trial seed streams make the numbers identical
// for every thread count.
//
// Besides the human-readable tables, every binary appends one JSON line
// per measurement point to BENCH_<experiment>.json (in the CSV dir if set,
// else the working directory): trials/sec, wall time, thread count, mean
// time.  Future PRs diff these files to track the perf trajectory.
//
// Default sweeps are calibrated to finish each binary in well under a
// minute on one laptop core.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/fit.hpp"
#include "analysis/table.hpp"
#include "common/types.hpp"
#include "runner/bench_log.hpp"
#include "runner/runner.hpp"

namespace pp::bench {

struct Context {
  u64 trials = 0;  ///< 0 = per-bench default
  u64 seed = kDefaultRootSeed;
  u64 threads = 0;  ///< runner pool size; 0 = hardware concurrency
  u64 max_n = 0;   ///< population cap; 0 = per-size default (see header)
  std::string csv_dir;
  /// Chunk cache root (src/service/): non-empty routes replayable
  /// measurement points through the cache.  Default off.
  std::string cache_dir;
  BenchLog bench_log;  ///< machine-readable per-point records (one run/file)
  enum class Size { kQuick, kStandard, kFull } size = Size::kStandard;

  /// One pool for the whole bench run; every measurement point fans its
  /// trials out over it (created by init()).
  std::shared_ptr<ThreadPool> pool;

  u64 trials_or(u64 fallback) const { return trials != 0 ? trials : fallback; }
  bool quick() const { return size == Size::kQuick; }
  bool full() const { return size == Size::kFull; }

  /// The effective population cap: an explicit --max-n wins; otherwise
  /// quick mode keeps its historical sizes (the 10^4/10^5 scale points
  /// would blow up sanitizer smoke steps), standard/full are uncapped.
  u64 size_cap() const {
    if (max_n != 0) return max_n;
    return quick() ? 4096 : ~static_cast<u64>(0);
  }
};

/// `sizes` filtered to the context's population cap (order preserved).
std::vector<u64> capped_sizes(const Context& ctx, std::vector<u64> sizes);

/// The shared large-n *scale section* of the scheduler benches: for each
/// n in `sizes` (already capped by the caller, then rounded to the
/// protocol's preferred population), runs every scheduler `menu(n)`
/// returns over the registry protocol `protocol` under a parallel-time
/// budget of `parallel_time` (max_interactions = parallel_time · n) —
/// budget-capped throughput points, not stabilisation (AG needs ~n²
/// parallel time) — and emits one table row plus one BENCH
/// record per point, labelled "<label_prefix><scheduler name>".  No-op
/// when `sizes` is empty.  The label prefix is load-bearing: the figure
/// script routes "s1-scale-..." records to the throughput panel, and
/// the regression gate matches baselines by the full label.
void run_scale_section(
    const Context& ctx, const std::string& title,
    const std::string& label_prefix, const std::string& protocol,
    const std::vector<u64>& sizes, u64 parallel_time,
    const std::function<std::vector<SchedulerSpec>(u64)>& menu);

/// Parses flags/environment, prints the experiment banner and truncates
/// the BENCH_*.json file for this run.
Context init(int argc, char** argv, const std::string& experiment_id,
             const std::string& claim);

/// One sweep point: runs `trials` stabilisations and returns the row data.
struct SweepPoint {
  u64 n = 0;
  double param = 0;  ///< free axis (k, trap count, ... ; n if unused)
  Summary time;      ///< parallel stabilisation times
  u64 timeouts = 0;

  // Runner throughput for this point (also appended to BENCH_*.json).
  double wall_seconds = 0;
  double trials_per_sec = 0;
  u64 threads = 1;
};

/// Measures one (protocol factory, generator) point through the parallel
/// runner and appends its BENCH_*.json record.
SweepPoint run_point(const Context& ctx, const std::string& label, u64 n,
                     double param, const ProtocolFactory& factory,
                     const ConfigGenerator& gen, u64 trials,
                     u64 max_interactions = ~static_cast<u64>(0));

/// Builds the TrialSpec run_point would use — for benches that drive
/// run_trials() directly (extra engines, sinks, custom aggregation).
TrialSpec make_spec(const std::string& label, u64 n,
                    const ProtocolFactory& factory, const ConfigGenerator& gen,
                    u64 max_interactions = ~static_cast<u64>(0));

/// RunnerOptions matching the context's seed/threads knobs.
RunnerOptions runner_options(const Context& ctx, u64 trials);

/// The context-aware trial dispatcher every bench measurement point goes
/// through: plain run_trials() on the context pool normally, the chunk
/// cache (run_trials_cached: misses on the context pool) when --cache-dir
/// is set.  The cache runs non-replayable specs uncached on the same pool,
/// with a stderr note — never silently.  Results are bit-identical either
/// way.
TrialSet run_trials_ctx(const Context& ctx, const TrialSpec& spec,
                        const RunnerOptions& opt);

/// Appends one machine-readable record for a measurement point to the
/// run's BENCH_*.json (a JSON-lines file, truncated per run — see
/// runner/bench_log.hpp).  run_point calls this; benches that use
/// run_trials() directly should call it themselves.
void emit_bench_json(const Context& ctx, const std::string& point, u64 n,
                     double param, const TrialSet& set);

/// Spec-aware overload: the record additionally carries the merged obs
/// counters and the point is mirrored into the BENCH file's provenance
/// sidecar (obs/provenance.hpp) — replayable whenever the spec uses a
/// registry protocol and a default/uniform-random init.  Prefer this one;
/// the label is taken from spec.label.
void emit_bench_json(const Context& ctx, const TrialSpec& spec, u64 n,
                     double param, const TrialSet& set);

/// Prints the "invalid outcomes" warning run_point would print — benches
/// that use run_trials() directly must not drop that signal.
void warn_if_invalid(const TrialSet& set, const std::string& label);

/// Adds the standard columns of a sweep point to a table row:
/// n, param (skipped when negative), mean, ci95, median, q95, timeouts.
void add_row(Table& table, const SweepPoint& p, bool with_param);

/// Fits mean time ~ n^b over sweep points and prints the verdict line
/// against the paper's expectation.
PowerFit report_fit(const std::vector<SweepPoint>& points,
                    const std::string& series_name,
                    const std::string& expectation);

/// Prints a table (and CSV if enabled).
void emit(const Context& ctx, Table& table);

}  // namespace pp::bench
