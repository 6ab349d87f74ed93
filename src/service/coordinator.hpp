// Coordinator of the sharded experiment service.
//
// run_trials_sharded() is a drop-in sibling of run_trials(): same spec,
// same options, same pool, same TrialSet out — but the trial space is
// partitioned into chunks (service/chunk.hpp) that are satisfied from the
// on-disk chunk cache when possible and computed otherwise: on the
// caller's thread pool through run_trial_ranges() (one pooled pass over
// every missing chunk, so --threads is honoured), or by worker
// *processes* (service/worker.hpp) when a fleet is requested.  Because
// every chunk is a pure function of (spec, master_seed, range), the
// merged result is bit-identical to a single-process run_trials() with
// the same master seed — for any pool size, any worker count, any cache
// state, and any interleaving of crashes and reassignments (pinned by
// tests/test_service.cpp).
//
// Fan-out model (single machine, filesystem-coordinated):
//
//   <cache-dir>/chunks/                 content-addressed chunk results,
//                                       shared across jobs and sweeps
//   <cache-dir>/jobs/<job-id>/job.kv    the sharded point's descriptor
//                           /leases/    O_EXCL claim files, heartbeated
//                           /workers/   w<id>.status, w<id>.log
//                           /done       coordinator's shutdown marker
//
// The coordinator spawns K copies of the *current binary* re-exec'd in
// worker mode (fork + execv of /proc/self/exe), then only polls: it
// collects finished chunks from the cache, expires leases whose
// heartbeat content stops changing (dead holder → the chunk becomes
// claimable again), reaps dead workers and respawns them under the same
// id (the rejoin passes through NodeStatus::kRecovering), and falls
// back to computing remaining chunks on the caller's pool if the fleet
// burns its respawn budget — the sweep completes even if every worker
// dies.
//
// Specs that cannot round-trip through the provenance serialisation
// (explicit factories, custom generators — see spec_is_replayable())
// cannot be shipped to another process; those fall back to the plain
// runner on the caller's pool, reported via
// ServiceReport::fallback_in_process and a stderr note.
#pragma once

#include <string>

#include "runner/runner.hpp"

namespace pp::service {

struct ServiceOptions {
  /// Worker processes to spawn.  0 = no process fan-out: chunks still go
  /// through the cache (probe, store) so sequential invocations resume,
  /// and the misses run on the caller's thread pool in one pooled pass;
  /// no child processes are involved.
  u64 workers = 0;

  /// Root of the chunk cache and job state ("" disables the service
  /// entirely; callers then use run_trials()).
  std::string cache_dir;

  /// Trials per chunk; 0 = default_chunk_trials(trials).
  u64 chunk_trials = 0;

  /// A lease whose heartbeat content is unchanged for this long is
  /// presumed dead and removed, making its chunk claimable again.
  u64 lease_timeout_ms = 2000;

  /// Coordinator poll cadence.
  u64 poll_ms = 20;

  /// Total worker respawns allowed before the coordinator stops trusting
  /// the fleet and finishes the remaining chunks itself.
  u64 max_respawns = 4;

  /// Hard stall limit: if no new chunk result lands for this long the
  /// coordinator finishes in-process (keeps CI from hanging on a
  /// pathological fleet).
  u64 stall_timeout_ms = 120000;
};

/// What the sharded run actually did — cache economics and fleet events.
/// The CI smoke and the service tests assert on these.
struct ServiceReport {
  u64 chunks = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_stale = 0;  ///< present but failed verification; recomputed
  u64 leases_expired = 0;
  u64 workers_spawned = 0;
  u64 workers_respawned = 0;
  u64 inprocess_chunks = 0;  ///< computed by the coordinator on its pool
  bool fallback_in_process = false;  ///< non-replayable spec, plain runner
};

/// run_trials(), sharded: probe the chunk cache, fan misses out to
/// `sopt.workers` re-exec'd worker processes (on `pool` when 0, or when
/// the fleet fails), merge in chunk order.  Bit-identical to
/// single-process run_trials() with the same (spec, master seed) — see
/// file header.  opt.threads is ignored, as in run_trials(..., pool);
/// TrialSet::threads reports pool.size(), or sopt.workers with a fleet.
/// `report` (optional) receives the cache/fleet accounting.
TrialSet run_trials_sharded(const TrialSpec& spec, const RunnerOptions& opt,
                            const ServiceOptions& sopt, ThreadPool& pool,
                            ServiceReport* report = nullptr);

/// Zeroes the fields documented as outside the determinism contract
/// (wall_seconds, trials_per_sec, threads, counters wall time) so two
/// TrialSets — or the sink rows rendered from them — can be compared
/// byte for byte across process counts and machines.
void normalize_throughput(TrialSet* set);

}  // namespace pp::service
