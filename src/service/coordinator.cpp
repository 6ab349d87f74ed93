#include "service/coordinator.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "service/chunk.hpp"

namespace pp::service {

void normalize_throughput(TrialSet* set) {
  set->wall_seconds = 0;
  set->trials_per_sec = 0;
  set->threads = 0;
  set->counters.wall_us = 0;
}

TrialSet run_trials_cached(const TrialSpec& spec, const RunnerOptions& opt,
                           const std::string& cache_dir, ThreadPool& pool,
                           ServiceReport* report) {
  PP_ASSERT(opt.trials >= 1);
  PP_ASSERT_MSG(!cache_dir.empty(), "run_trials_cached needs a cache dir");
  obs::init_from_env();
  ServiceReport local;
  ServiceReport* const rep = report != nullptr ? report : &local;
  *rep = ServiceReport{};

  if (!obs::spec_is_replayable(spec)) {
    // An explicit factory / custom generator has no canonical
    // serialisation, hence no behaviour fingerprint and no cache key; say
    // so and run the plain runner rather than silently changing semantics.
    std::fprintf(stderr,
                 "[service] %s: spec not replayable, running uncached\n",
                 spec.label.c_str());
    rep->fallback_in_process = true;
    return run_trials(spec, opt, pool);
  }

  const u64 t0_us = obs::now_us();
  const std::string chunks_dir = cache_dir + "/chunks";
  make_dirs(chunks_dir);

  const std::vector<ChunkSpec> chunks =
      chunk_ranges(opt.trials, default_chunk_trials(opt.trials));
  rep->chunks = chunks.size();

  // Probe every chunk; a stale file is simply overwritten by the store
  // below (store_chunk renames atomically over it).
  std::vector<std::string> keys(chunks.size());
  std::vector<TrialRange> ranges(chunks.size());
  std::vector<u64> todo;
  std::vector<std::pair<u64, u64>> bounds;
  for (u64 i = 0; i < chunks.size(); ++i) {
    keys[i] = chunk_key_material(spec, opt.master_seed, chunks[i]);
    ChunkLoad load = load_chunk(chunks_dir, keys[i], chunks[i]);
    switch (load.status) {
      case CacheProbe::kHit:
        ranges[i] = std::move(load.range);
        ++rep->cache_hits;
        continue;
      case CacheProbe::kStale:
        ++rep->cache_stale;
        break;
      case CacheProbe::kMiss:
        ++rep->cache_misses;
        break;
    }
    todo.push_back(i);
    bounds.emplace_back(chunks[i].begin, chunks[i].end);
  }

  // Every miss in one pooled pass, still feeding the cache so the next
  // invocation resumes.
  if (!todo.empty()) {
    std::vector<TrialRange> computed =
        run_trial_ranges(spec, opt.master_seed, bounds, pool);
    for (u64 k = 0; k < todo.size(); ++k) {
      const u64 i = todo[k];
      ranges[i] = std::move(computed[k]);
      store_chunk(chunks_dir, keys[i], chunks[i], ranges[i]);
      ++rep->inprocess_chunks;
    }
  }

  // Merge in chunk-index order.  Chunks partition [0, trials) in
  // ascending contiguous ranges, so chunk order IS trial order: records
  // concatenate sorted, stats fold exactly as run_trials() folds them,
  // and the counter merge (commutative sums) matches bit for bit.
  TrialSet out;
  out.master_seed = opt.master_seed;
  out.threads = pool.size();
  out.records.reserve(opt.trials);
  for (const TrialRange& range : ranges) {
    out.records.insert(out.records.end(), range.records.begin(),
                       range.records.end());
    out.counters.merge(range.counters);
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
              "inprocess=%llu\n",
              spec.label.c_str(),
              static_cast<unsigned long long>(rep->chunks),
              static_cast<unsigned long long>(rep->cache_hits),
              static_cast<unsigned long long>(rep->cache_misses),
              static_cast<unsigned long long>(rep->cache_stale),
              static_cast<unsigned long long>(rep->inprocess_chunks));

  if (!opt.keep_records) {
    out.records.clear();
    out.records.shrink_to_fit();
  }
  return out;
}

}  // namespace pp::service
