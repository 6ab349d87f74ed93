// The chunk cache in front of the runner.
//
// run_trials_cached() is a drop-in sibling of run_trials(): same spec,
// same options, same pool, same TrialSet out — but the trial space is
// partitioned into chunks (service/chunk.hpp) that are read back from the
// on-disk chunk cache when a verified copy is there, and computed
// otherwise: every missing chunk in one run_trial_ranges() pass on the
// caller's thread pool (so --threads is honoured), then stored.  Because
// every chunk is a pure function of (spec, master_seed, range), the merged
// result is bit-identical to run_trials() with the same master seed — for
// any pool size and any cache state (pinned by tests/test_service.cpp).
//
// Cache layout: <cache-dir>/chunks/chunk-<fnv1a64>.result, content-
// addressed, so one cache serves every sweep and every invocation that
// points at it.
//
// Specs that cannot round-trip through the provenance serialisation
// (explicit factories, custom generators — see spec_is_replayable()) have
// no behaviour fingerprint and hence no cache key; those run uncached on
// the caller's pool, reported via ServiceReport::fallback_in_process and
// a stderr note.
#pragma once

#include <string>

#include "runner/runner.hpp"

namespace pp::service {

/// What the cached run did — the cache economics.  The CI smoke and the
/// service tests assert on these.
struct ServiceReport {
  u64 chunks = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_stale = 0;  ///< present but failed verification; recomputed
  u64 inprocess_chunks = 0;  ///< computed on the pool (misses + stale)
  bool fallback_in_process = false;  ///< non-replayable spec, plain runner
};

/// run_trials() through the chunk cache rooted at `cache_dir` (non-empty):
/// probe every chunk, compute the misses in one pooled pass, store them,
/// merge in chunk order.  Bit-identical to run_trials() with
/// the same (spec, master seed) — see file header.  opt.threads is
/// ignored, as in run_trials(..., pool); TrialSet::threads reports
/// pool.size().  `report` (optional) receives the cache accounting.
TrialSet run_trials_cached(const TrialSpec& spec, const RunnerOptions& opt,
                           const std::string& cache_dir, ThreadPool& pool,
                           ServiceReport* report = nullptr);

/// Zeroes the fields documented as outside the determinism contract
/// (wall_seconds, trials_per_sec, threads, counters wall time) so two
/// TrialSets — or the sink rows rendered from them — can be compared
/// byte for byte across pool sizes and machines.
void normalize_throughput(TrialSet* set);

}  // namespace pp::service
