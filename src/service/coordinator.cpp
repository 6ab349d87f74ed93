#include "service/coordinator.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "service/chunk.hpp"
#include "service/worker.hpp"

namespace pp::service {
namespace {

/// Coordinator-side view of one chunk: its identity, its result (once
/// collected) and the lease-liveness tracker.
struct ChunkState {
  ChunkSpec chunk;
  std::string key_material;
  bool done = false;
  TrialRange range;

  // Lease heartbeat tracking: the holder rewrites the lease content
  // after every trial; content that stops changing past the timeout
  // marks a dead holder.
  std::string lease_content;
  u64 lease_changed_us = 0;
};

/// fork + execv of /proc/self/exe in worker mode, stdout/stderr
/// redirected to the worker's log.  Returns the child pid (-1 on fork
/// failure).
pid_t spawn_worker(const std::string& job_dir, u64 worker_id) {
  const pid_t pid = fork();
  if (pid != 0) return pid;

  // Child: from here on only async-signal-safe-ish work, then exec.
  const std::string log_path =
      job_dir + "/workers/w" + std::to_string(worker_id) + ".log";
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::string argv0 = "poprank-service-worker";
  std::string worker_arg = "--poprank-service-worker=" + job_dir;
  std::string id_arg =
      "--poprank-service-worker-id=" + std::to_string(worker_id);
  char* args[] = {argv0.data(), worker_arg.data(), id_arg.data(), nullptr};
  ::execv("/proc/self/exe", args);
  std::_Exit(127);  // exec failed; the parent sees a dead worker
}

std::string job_file_content(const TrialSpec& spec, const RunnerOptions& opt,
                             u64 chunk_trials, const std::string& chunks_dir) {
  std::string out = "poprank-job-v1\n";
  out += "master_seed " + std::to_string(opt.master_seed) + "\n";
  out += "trials " + std::to_string(opt.trials) + "\n";
  out += "chunk_trials " + std::to_string(chunk_trials) + "\n";
  out += "chunks_dir " + chunks_dir + "\n";
  out += "spec " + obs::spec_to_kv(spec) + "\n";
  return out;
}

/// Plain in-process runner on the caller's pool with the service
/// bookkeeping attached — the path for non-replayable specs and disabled
/// caches.
TrialSet run_fallback(const TrialSpec& spec, const RunnerOptions& opt,
                      ThreadPool& pool, ServiceReport* rep) {
  rep->fallback_in_process = true;
  return run_trials(spec, opt, pool);
}

}  // namespace

void normalize_throughput(TrialSet* set) {
  set->wall_seconds = 0;
  set->trials_per_sec = 0;
  set->threads = 0;
  set->counters.wall_us = 0;
}

TrialSet run_trials_sharded(const TrialSpec& spec, const RunnerOptions& opt,
                            const ServiceOptions& sopt, ThreadPool& pool,
                            ServiceReport* report) {
  PP_ASSERT(opt.trials >= 1);
  obs::init_from_env();
  ServiceReport local;
  ServiceReport* const rep = report != nullptr ? report : &local;
  *rep = ServiceReport{};

  if (sopt.cache_dir.empty()) return run_fallback(spec, opt, pool, rep);
  if (!obs::spec_is_replayable(spec)) {
    // An explicit factory / custom generator cannot be shipped to a
    // worker process via the canonical serialisation; say so and run the
    // plain runner rather than silently changing semantics.
    std::fprintf(stderr,
                 "[service] %s: spec not replayable, running in-process\n",
                 spec.label.c_str());
    return run_fallback(spec, opt, pool, rep);
  }

  const u64 t0_us = obs::now_us();
  const std::string chunks_dir = sopt.cache_dir + "/chunks";
  make_dirs(chunks_dir);

  const u64 chunk_trials = sopt.chunk_trials != 0
                               ? sopt.chunk_trials
                               : default_chunk_trials(opt.trials);
  const std::vector<ChunkSpec> chunks = chunk_ranges(opt.trials, chunk_trials);
  rep->chunks = chunks.size();

  // Probe the cache for every chunk before any fan-out.  Stale files are
  // deleted here: workers use bare existence as "already computed", so a
  // corrupt file left in place would never be recomputed.
  std::vector<ChunkState> state(chunks.size());
  u64 remaining = 0;
  for (u64 i = 0; i < chunks.size(); ++i) {
    state[i].chunk = chunks[i];
    state[i].key_material =
        chunk_key_material(spec, opt.master_seed, chunks[i]);
    ChunkLoad load = load_chunk(chunks_dir, state[i].key_material, chunks[i]);
    switch (load.status) {
      case CacheProbe::kHit:
        state[i].done = true;
        state[i].range = std::move(load.range);
        ++rep->cache_hits;
        break;
      case CacheProbe::kStale:
        remove_file(chunks_dir + "/" + chunk_file_name(state[i].key_material));
        ++rep->cache_stale;
        ++remaining;
        break;
      case CacheProbe::kMiss:
        ++rep->cache_misses;
        ++remaining;
        break;
    }
  }

  if (remaining > 0 && sopt.workers != 0) {
    // Job state lives under its own id so concurrent invocations sharing
    // the cache never collide on leases.
    char id_buf[32];
    std::snprintf(id_buf, sizeof(id_buf), "job-%016" PRIx64,
                  obs::fnv1a64(state[0].key_material) ^
                      (static_cast<u64>(::getpid()) << 32) ^ obs::now_us());
    const std::string job_dir = sopt.cache_dir + "/jobs/" + id_buf;
    make_dirs(job_dir + "/leases");
    make_dirs(job_dir + "/workers");
    write_file_atomic(job_dir + "/job.kv",
                      job_file_content(spec, opt, chunk_trials, chunks_dir));

    const u64 fleet =
        sopt.workers < remaining ? sopt.workers : remaining;
    std::vector<pid_t> pids(fleet, -1);
    for (u64 i = 0; i < fleet; ++i) {
      pids[i] = spawn_worker(job_dir, i);
      if (pids[i] > 0) ++rep->workers_spawned;
    }

    u64 respawns_left = sopt.max_respawns;
    u64 last_progress_us = obs::now_us();
    while (remaining > 0) {
      sleep_ms(sopt.poll_ms);
      const u64 now = obs::now_us();

      // Collect finished chunks (atomic renames: a loadable file is a
      // complete file).
      bool progressed = false;
      for (ChunkState& s : state) {
        if (s.done) continue;
        ChunkLoad load = load_chunk(chunks_dir, s.key_material, s.chunk);
        if (load.status != CacheProbe::kHit) continue;
        s.done = true;
        s.range = std::move(load.range);
        --remaining;
        progressed = true;
      }
      if (progressed) last_progress_us = now;
      if (remaining == 0) break;

      // Lease liveness: a holder heartbeats by rewriting the lease after
      // every trial, so unchanged content past the timeout means a dead
      // holder — remove the lease and let any live worker reclaim the
      // chunk.  (If the holder is merely slow, the duplicate computation
      // is byte-identical and the atomic rename keeps the cache sound.)
      for (ChunkState& s : state) {
        if (s.done) continue;
        const std::string lease_path =
            job_dir + "/leases/chunk-" + std::to_string(s.chunk.index) +
            ".lease";
        const std::optional<std::string> content = read_file(lease_path);
        if (!content.has_value()) {
          s.lease_content.clear();
          s.lease_changed_us = 0;
          continue;
        }
        if (*content != s.lease_content) {
          s.lease_content = *content;
          s.lease_changed_us = now;
        } else if (s.lease_changed_us != 0 &&
                   now - s.lease_changed_us > sopt.lease_timeout_ms * 1000) {
          remove_file(lease_path);
          s.lease_content.clear();
          s.lease_changed_us = 0;
          ++rep->leases_expired;
        }
      }

      // Reap dead workers; respawn under the same id (the replacement
      // re-registers through NodeStatus::kRecovering) while the budget
      // lasts.
      bool any_alive = false;
      for (u64 i = 0; i < fleet; ++i) {
        if (pids[i] <= 0) continue;
        int wstatus = 0;
        const pid_t r = ::waitpid(pids[i], &wstatus, WNOHANG);
        if (r == 0) {
          any_alive = true;
          continue;
        }
        pids[i] = -1;
        if (respawns_left > 0) {
          --respawns_left;
          pids[i] = spawn_worker(job_dir, i);
          if (pids[i] > 0) {
            ++rep->workers_respawned;
            any_alive = true;
          }
        }
      }

      // Fail-safe: fleet gone (or wedged past the stall limit) — leave
      // the remaining chunks to the in-process pass below.  Idempotent
      // stores make this safe even if a zombie worker later writes the
      // same chunks.
      if (!any_alive ||
          now - last_progress_us > sopt.stall_timeout_ms * 1000) {
        break;
      }
    }

    // Shutdown: the done marker releases workers still scanning, then
    // reap whoever is left.
    write_file_atomic(job_dir + "/done", "done\n");
    for (u64 i = 0; i < fleet; ++i) {
      if (pids[i] <= 0) continue;
      int wstatus = 0;
      ::waitpid(pids[i], &wstatus, 0);
    }
  }

  // Misses no worker computed — all of them without a fleet, the fleet's
  // leftovers after its fail-safe — run on the caller's pool in one pass,
  // still feeding the cache so the next invocation resumes.
  if (remaining > 0) {
    std::vector<ChunkState*> todo;
    std::vector<std::pair<u64, u64>> bounds;
    for (ChunkState& s : state) {
      if (s.done) continue;
      todo.push_back(&s);
      bounds.emplace_back(s.chunk.begin, s.chunk.end);
    }
    std::vector<TrialRange> ranges =
        run_trial_ranges(spec, opt.master_seed, bounds, pool);
    for (u64 i = 0; i < todo.size(); ++i) {
      ChunkState& s = *todo[i];
      s.range = std::move(ranges[i]);
      store_chunk(chunks_dir, s.key_material, s.chunk, s.range);
      s.done = true;
      ++rep->inprocess_chunks;
    }
  }

  // Merge in chunk-index order.  Chunks partition [0, trials) in
  // ascending contiguous ranges, so chunk order IS trial order: records
  // concatenate sorted, stats fold exactly as run_trials() folds them,
  // and the counter merge (commutative sums) matches bit for bit.
  TrialSet out;
  out.master_seed = opt.master_seed;
  out.threads = sopt.workers != 0 ? sopt.workers : pool.size();
  out.records.reserve(opt.trials);
  for (const ChunkState& s : state) {
    PP_ASSERT(s.done);
    for (const TrialRecord& r : s.range.records) out.records.push_back(r);
    out.counters.merge(s.range.counters);
  }
  PP_ASSERT(out.records.size() == opt.trials);
  for (const TrialRecord& r : out.records) out.stats.fold(r);

  // Wall-clock bookkeeping, as ever outside the determinism contract.
  out.wall_seconds =
      static_cast<double>(obs::now_us() - t0_us) / 1e6;
  out.trials_per_sec = out.wall_seconds > 0
                           ? static_cast<double>(opt.trials) / out.wall_seconds
                           : 0.0;

  std::printf("[service] %s: chunks=%llu hits=%llu misses=%llu stale=%llu "
              "workers=%llu respawned=%llu expired=%llu inprocess=%llu\n",
              spec.label.c_str(),
              static_cast<unsigned long long>(rep->chunks),
              static_cast<unsigned long long>(rep->cache_hits),
              static_cast<unsigned long long>(rep->cache_misses),
              static_cast<unsigned long long>(rep->cache_stale),
              static_cast<unsigned long long>(rep->workers_spawned),
              static_cast<unsigned long long>(rep->workers_respawned),
              static_cast<unsigned long long>(rep->leases_expired),
              static_cast<unsigned long long>(rep->inprocess_chunks));

  if (!opt.keep_records) {
    out.records.clear();
    out.records.shrink_to_fit();
  }
  return out;
}

}  // namespace pp::service
