// The parallel Monte-Carlo trial runner.
//
// A TrialSpec describes one measurement point: which protocol to build
// (factory-registry name or an explicit factory), how to generate the
// starting configuration, which engine drives the schedule (accelerated /
// uniform / any interaction model from src/schedulers — hostile ones
// included), and the interaction budget.  run_trials() fans `trials`
// independent copies out over a ThreadPool and returns per-trial records
// plus merged aggregates.
//
// Determinism guarantee.  Trial t's generator is seeded with
// derive_seed(master_seed, label, t), and each trial writes only to its
// own slot of a preallocated record array.  Aggregates are folded from
// that array in trial-index order after the fan-out completes.  Results
// are therefore bit-identical for every thread count and schedule, a
// 1-thread pool included.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "core/engine.hpp"
#include "core/initial.hpp"
#include "core/protocol.hpp"
#include "obs/counters.hpp"
#include "runner/seed_stream.hpp"
#include "runner/thread_pool.hpp"
#include "schedulers/scheduler.hpp"

namespace pp {

enum class EngineKind {
  kAccelerated,  ///< exact geometric null-skipping (the default)
  kUniform,      ///< faithful one-interaction-at-a-time reference engine
  kScheduled,    ///< pluggable interaction model; see TrialSpec::scheduler
};

const char* engine_kind_name(EngineKind k);

struct TrialSpec {
  /// Protocol to instantiate: a factory-registry name ("ag",
  /// "ring-of-traps", ...) with population n, or an explicit factory that
  /// overrides both.  The factory is called once per trial set (once per
  /// run_trials(), run_trial_ranges() or run_one_trial() call), not once
  /// per trial: every trial runs on a Protocol::fresh() instance of its
  /// result, sharing its layout or tree.
  std::string protocol;
  u64 n = 0;
  ProtocolFactory factory;

  /// Starting-configuration generator (core/initial.hpp); defaults to
  /// uniform_random over all states.
  ConfigGenerator init;

  EngineKind engine = EngineKind::kAccelerated;

  /// Interaction model for EngineKind::kScheduled (plain data — each trial
  /// builds its scheduler from this and the resolved population size, so
  /// specs stay copyable and threads share nothing mutable).  Hostile
  /// models (adversarial, churn, partition) and the weighted/dynamic-graph
  /// families run through this path too; run_trials() builds one shared
  /// scheduler per trial set, so expensive per-spec state (a topology, a
  /// weight kernel's tables) is constructed once, not per trial.
  SchedulerSpec scheduler;

  /// Budget on scheduler interactions (for the adversarial schedulers that
  /// is productive firings — they have no null steps).
  u64 max_interactions = ~static_cast<u64>(0);

  /// Seed-derivation namespace; specs with different labels draw
  /// independent streams from the same master seed.
  std::string label = "runner";

  /// The factory to actually use (explicit one, else registry lookup).
  ProtocolFactory resolve_factory() const;
};

/// The per-trial outcome, reduced to what analysis and sinks consume.
struct TrialRecord {
  u64 trial = 0;  ///< trial index; records arrive sorted by this field
  u64 seed = 0;   ///< the derived per-trial seed (for replaying one trial)
  u64 interactions = 0;
  u64 productive_steps = 0;
  u64 fault_events = 0;  ///< environmental faults injected (churn events,
                         ///< partition split/heal transitions)
  double parallel_time = 0;
  bool silent = false;
  bool valid = false;
};

/// Trial-index-ordered fold of all records (see runner.cpp): bit-identical
/// for every thread count.
struct AggregateStats {
  u64 trials = 0;
  /// Trials that ended without reaching silence: the interaction budget
  /// ran out or, under a graph-restricted scheduler, the run got locally
  /// stuck (no productive edge left on the topology).
  u64 timeouts = 0;
  u64 invalid = 0;  ///< silent but not a valid ranking (never expected)
  /// Total environmental faults injected across the set (churn events and
  /// partition split/heal transitions).
  u64 fault_events = 0;
  RunningStat parallel_time;
  RunningStat interactions;
  RunningStat productive_steps;

  void fold(const TrialRecord& r);
};

struct TrialSet {
  AggregateStats stats;
  /// One record per trial, ordered by trial index; cleared when
  /// RunnerOptions::keep_records is false.
  std::vector<TrialRecord> records;

  /// Merged observability metrics (obs/counters.hpp), folded in trial
  /// order — bit-identical for every thread count, like the stats.
  /// deterministic_empty() when POPRANK_OBS=OFF.
  obs::CounterBlock counters;

  /// The master seed the set ran under (echoed for provenance manifests;
  /// per-trial seeds derive from it and the spec label).
  u64 master_seed = 0;

  // Throughput bookkeeping (wall clock, not part of the determinism
  // guarantee).
  double wall_seconds = 0;
  double trials_per_sec = 0;
  u64 threads = 1;

  /// Quantile summary of parallel times; requires keep_records.
  Summary summary() const;
  /// The parallel times alone, trial order (requires keep_records).
  std::vector<double> parallel_times() const;
};

struct RunnerOptions {
  u64 trials = 100;
  u64 threads = 0;  ///< pool size; 0 = hardware concurrency
  u64 master_seed = kDefaultRootSeed;
  bool keep_records = true;
};

/// Runs opt.trials independent trials of `spec` on a fresh pool.
TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt);

/// Same, reusing a caller-owned pool (opt.threads is ignored).
TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt,
                    ThreadPool& pool);

/// Runs one trial of `spec` with an explicit seed — the replay tool behind
/// TrialRecord::seed, also the kernel the parallel fan-out executes.  When
/// `final_counts` is set it receives the trial's final configuration (the
/// chunk cache's behaviour fingerprint hashes it with the record).
TrialRecord run_one_trial(const TrialSpec& spec, u64 trial_index, u64 seed,
                          std::vector<u64>* final_counts = nullptr);

/// One contiguous slice of a trial set — the unit the chunk-result cache
/// stores (src/service/).
struct TrialRange {
  u64 begin = 0;
  u64 end = 0;  ///< exclusive
  /// Records for trials [begin, end), ordered by trial index.
  std::vector<TrialRecord> records;
  /// Per-trial counter blocks merged in trial-index order (sums, so a
  /// chunk-order merge of range counters equals the runner's trial-order
  /// merge bit for bit).
  obs::CounterBlock counters;
};

/// Runs every trial of the half-open ranges [first, second) of `spec` on
/// `pool` and returns one TrialRange per input range, in input order —
/// the one pooled fan-out kernel (run_trials() is its single-range case,
/// the chunk cache's miss pass its many-range case).  Trial t is seeded
/// derive_seed(master_seed, label, t), the pool hands out single trials
/// across all ranges, one protocol (each trial runs on its fresh()
/// instance) and one scheduler are shared by all of them, and each
/// range's counters merge its per-trial blocks in trial order.  Because a
/// trial's stream depends only on (master_seed, label, t), folding the
/// ranges of any partition of [0, trials) back together in trial-index
/// order reproduces run_trials() bit for bit, for every pool size; that
/// is what makes cached results identical to uncached ones.  Ranges may
/// be empty or non-contiguous; they must not overlap.  Arms the
/// ProgressMonitor (POPRANK_HEARTBEAT /
/// POPRANK_STALL_TIMEOUT) over the trials it runs.  After a set of at
/// least 2^16 agents it returns the allocator's free pages to the OS once
/// the heaps have grown by 4 MiB since it last did (glibc only), so a long
/// sweep's RSS does not ratchet up between sets.
std::vector<TrialRange> run_trial_ranges(
    const TrialSpec& spec, u64 master_seed,
    const std::vector<std::pair<u64, u64>>& ranges, ThreadPool& pool);

}  // namespace pp
