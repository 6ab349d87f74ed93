// Tests for the sharded experiment service (src/service/): the chunk
// model and its on-disk cache, the run_trial_ranges / run_trial_range
// kernels, and the coordinator/worker fan-out — including the
// load-bearing claims:
//
//  * merged aggregates are BIT-identical to single-process run_trials()
//    for cached cold and warm runs on pools of 1, 2, 4 and 8 threads and
//    at 1, 2 and 4 workers (records, stats, counters, and the sink rows
//    rendered from them);
//  * a repeated sweep is 100% cache hits and spawns no workers;
//  * a worker killed mid-sweep (crash injection) still yields identical
//    results: its lease expires, the chunk is reassigned, and the
//    respawned worker re-registers through NodeStatus::kRecovering;
//  * non-replayable specs fall back in-process, reported.
//
// This binary has a custom main: the coordinator re-execs the test
// executable itself as its worker shards, so worker-mode argv must be
// routed to service::maybe_run_worker before InitGoogleTest.
#include "service/coordinator.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <stdlib.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "protocols/factory.hpp"
#include "rng/random.hpp"
#include "runner/runner.hpp"
#include "runner/sink.hpp"
#include "service/chunk.hpp"
#include "service/worker.hpp"

namespace pp {
namespace {

// ---- helpers -------------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "poprank_" + tag + "_XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  const char* made = mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(buf.data());
}

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* d = opendir(path.c_str());
  if (d == nullptr) return names;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

TrialSpec small_spec(const std::string& label) {
  TrialSpec spec;
  spec.label = label;
  spec.protocol = "ag";
  spec.n = 16;
  return spec;  // default engine, default (replayable) init
}

RunnerOptions small_options(u64 trials, u64 seed = 12345) {
  RunnerOptions opt;
  opt.trials = trials;
  opt.master_seed = seed;
  opt.threads = 2;
  return opt;
}

void expect_records_identical(const std::vector<TrialRecord>& a,
                              const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trial, b[i].trial) << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].interactions, b[i].interactions) << i;
    EXPECT_EQ(a[i].productive_steps, b[i].productive_steps) << i;
    EXPECT_EQ(a[i].fault_events, b[i].fault_events) << i;
    EXPECT_EQ(std::bit_cast<u64>(a[i].parallel_time),
              std::bit_cast<u64>(b[i].parallel_time))
        << i;
    EXPECT_EQ(a[i].silent, b[i].silent) << i;
    EXPECT_EQ(a[i].valid, b[i].valid) << i;
  }
}

void expect_sets_identical(const TrialSet& a, const TrialSet& b) {
  expect_records_identical(a.records, b.records);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.invalid, b.stats.invalid);
  EXPECT_EQ(a.stats.fault_events, b.stats.fault_events);
  // The stat accumulators fold the same values in the same order, so the
  // derived moments must match to the bit, not to a tolerance.
  EXPECT_EQ(std::bit_cast<u64>(a.stats.parallel_time.mean()),
            std::bit_cast<u64>(b.stats.parallel_time.mean()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.parallel_time.variance()),
            std::bit_cast<u64>(b.stats.parallel_time.variance()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.interactions.mean()),
            std::bit_cast<u64>(b.stats.interactions.mean()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.productive_steps.mean()),
            std::bit_cast<u64>(b.stats.productive_steps.mean()));
  EXPECT_TRUE(obs::CounterBlock::deterministic_equal(a.counters, b.counters));
}

/// Renders the trial rows (CSV + JSONL) of a set: fully deterministic, so
/// the sharded service must reproduce them byte for byte.
std::string render_trial_rows(const TrialSpec& spec, const TrialSet& set) {
  std::ostringstream csv, jsonl;
  CsvSink c(csv);
  c.write_trials(spec, set);
  JsonlSink j(jsonl);
  j.write_trials(spec, set);
  return csv.str() + jsonl.str();
}

/// Renders the aggregate rows after normalize_throughput(): with the
/// wall-clock fields zeroed, the remaining fields are all deterministic.
std::string render_aggregate_rows(const TrialSpec& spec, TrialSet set) {
  service::normalize_throughput(&set);
  std::ostringstream csv, jsonl;
  CsvSink c(csv);
  c.write_aggregate(spec, set);
  JsonlSink j(jsonl);
  j.write_aggregate(spec, set);
  return csv.str() + jsonl.str();
}

// ---- run_trial_range -----------------------------------------------------

TEST(TrialRange, PartitionReproducesRunTrials) {
  const TrialSpec spec = small_spec("svc-range");
  const RunnerOptions opt = small_options(17);
  const TrialSet whole = run_trials(spec, opt);

  // Any partition of [0, trials), folded back in order, must match.
  std::vector<TrialRecord> stitched;
  obs::CounterBlock counters;
  for (const auto& [b, e] :
       std::vector<std::pair<u64, u64>>{{0, 5}, {5, 6}, {6, 6}, {6, 17}}) {
    const TrialRange r = run_trial_range(spec, opt.master_seed, b, e);
    EXPECT_EQ(r.records.size(), e - b);
    stitched.insert(stitched.end(), r.records.begin(), r.records.end());
    counters.merge(r.counters);
  }
  expect_records_identical(whole.records, stitched);
  EXPECT_TRUE(
      obs::CounterBlock::deterministic_equal(whole.counters, counters));
}

TEST(TrialRange, AfterTrialHookFiresPerTrial) {
  const TrialSpec spec = small_spec("svc-hook");
  std::vector<u64> seen;
  run_trial_range(spec, 7, 3, 8, [&](u64 t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<u64>{3, 4, 5, 6, 7}));
}

// The pooled kernel computes each range exactly as the serial one does —
// records and counters — for random partitions (empty ranges included),
// non-contiguous subsets, any pool size, and a shared churn scheduler.
TEST(TrialRanges, MatchSerialRangePerRange) {
  TrialSpec churn;
  churn.label = "svc-ranges-churn";
  churn.protocol = "ring-of-traps";
  churn.n = 24;
  churn.engine = EngineKind::kScheduled;
  churn.scheduler.kind = SchedulerKind::kChurn;
  churn.scheduler.churn_rate = 0.02;
  churn.scheduler.churn_reset = ChurnReset::kUniformState;
  churn.max_interactions = 200 * churn.n;
  const u64 seed = 4242;

  Rng rng(7);
  u64 churn_faults = 0;
  for (const TrialSpec& spec : {small_spec("svc-ranges"), churn}) {
    for (const u64 threads : {1u, 3u, 8u}) {
      ThreadPool pool(threads);
      for (int round = 0; round < 4; ++round) {
        // Random cut points over [0, 30), plus a repeated one so there is
        // always an empty range; on odd rounds every other range is
        // dropped (non-contiguous).
        std::vector<u64> cuts{0, 30, 12, 12};
        for (int c = 0; c < 6; ++c) cuts.push_back(rng.below(31));
        std::sort(cuts.begin(), cuts.end());
        std::vector<std::pair<u64, u64>> ranges;
        for (u64 i = 0; i + 1 < cuts.size(); ++i) {
          if (round % 2 == 1 && i % 2 == 1) continue;
          ranges.emplace_back(cuts[i], cuts[i + 1]);
        }
        const std::vector<TrialRange> pooled =
            run_trial_ranges(spec, seed, ranges, pool);
        ASSERT_EQ(pooled.size(), ranges.size());
        for (u64 i = 0; i < ranges.size(); ++i) {
          const auto [b, e] = ranges[i];
          const TrialRange serial = run_trial_range(spec, seed, b, e);
          EXPECT_EQ(pooled[i].begin, b);
          EXPECT_EQ(pooled[i].end, e);
          expect_records_identical(serial.records, pooled[i].records);
          EXPECT_TRUE(obs::CounterBlock::deterministic_equal(
              serial.counters, pooled[i].counters))
              << spec.label << " [" << b << ", " << e << ")";
          if (spec.label == churn.label) {
            for (const TrialRecord& r : pooled[i].records) {
              churn_faults += r.fault_events;
            }
          }
        }
      }
    }
  }

  EXPECT_GT(churn_faults, 0u);  // the churn model really ran

  // No ranges at all: nothing to run, nothing returned.
  ThreadPool pool(2);
  EXPECT_TRUE(run_trial_ranges(churn, seed, {}, pool).empty());
}

// ---- chunk model & cache -------------------------------------------------

TEST(ChunkCache, PartitionCoversTrialSpace) {
  const auto chunks = service::chunk_ranges(17, 5);
  ASSERT_EQ(chunks.size(), 4u);
  u64 expect_begin = 0;
  for (u64 i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].index, i);
    EXPECT_EQ(chunks[i].begin, expect_begin);
    expect_begin = chunks[i].end;
  }
  EXPECT_EQ(chunks.back().end, 17u);
  // Chunk sizing never depends on worker count (cache-sharing contract).
  EXPECT_GE(service::default_chunk_trials(1), 1u);
  EXPECT_EQ(service::default_chunk_trials(160), 10u);
}

TEST(ChunkCache, HitMissStale) {
  const std::string dir = fresh_dir("chunks");
  const TrialSpec spec = small_spec("svc-cache");
  const service::ChunkSpec chunk{0, 0, 4};
  const std::string material = service::chunk_key_material(spec, 99, chunk);

  // Miss: nothing stored yet.
  EXPECT_EQ(service::load_chunk(dir, material, chunk).status,
            service::CacheProbe::kMiss);

  // Hit: store, load, records round-trip exactly.
  const TrialRange range = run_trial_range(spec, 99, 0, 4);
  ASSERT_NE(service::store_chunk(dir, material, chunk, range), "");
  service::ChunkLoad load = service::load_chunk(dir, material, chunk);
  ASSERT_EQ(load.status, service::CacheProbe::kHit);
  expect_records_identical(range.records, load.range.records);
  EXPECT_TRUE(obs::CounterBlock::deterministic_equal(range.counters,
                                                     load.range.counters));

  // A different spec keys a different file: still a miss, never a
  // false hit.
  TrialSpec other = small_spec("svc-cache");
  other.n = 32;
  const std::string other_material =
      service::chunk_key_material(other, 99, chunk);
  EXPECT_NE(service::chunk_file_name(material),
            service::chunk_file_name(other_material));
  EXPECT_EQ(service::load_chunk(dir, other_material, chunk).status,
            service::CacheProbe::kMiss);

  // Stale: a torn/corrupt file at the keyed path fails verification.
  write_file_atomic(dir + "/" + service::chunk_file_name(material),
                    "poprank-chunk-v1\nkey " + material + "\ntorn");
  EXPECT_EQ(service::load_chunk(dir, material, chunk).status,
            service::CacheProbe::kStale);
}

// Threads of one process storing the same chunk at once each write their
// own temp file, so every store lands whole and none leaves debris.
TEST(ChunkCache, ConcurrentStoresOfOneChunk) {
  const std::string dir = fresh_dir("concurrent");
  const TrialSpec spec = small_spec("svc-concurrent");
  const service::ChunkSpec chunk{0, 0, 6};
  const std::string material = service::chunk_key_material(spec, 5, chunk);
  const TrialRange range = run_trial_range(spec, 5, 0, 6);
  const std::string final_path =
      dir + "/" + service::chunk_file_name(material);

  std::vector<std::string> paths(8);
  std::vector<std::thread> writers;
  for (u64 i = 0; i < paths.size(); ++i) {
    writers.emplace_back([&, i] {
      paths[i] = service::store_chunk(dir, material, chunk, range);
    });
  }
  for (std::thread& w : writers) w.join();

  for (const std::string& p : paths) EXPECT_EQ(p, final_path);
  service::ChunkLoad load = service::load_chunk(dir, material, chunk);
  ASSERT_EQ(load.status, service::CacheProbe::kHit);
  expect_records_identical(range.records, load.range.records);
  EXPECT_EQ(list_dir(dir),
            std::vector<std::string>{service::chunk_file_name(material)});
}

TrialSpec churn_spec(const std::string& label, u64 n) {
  TrialSpec spec;
  spec.label = label;
  spec.protocol = "ring-of-traps";
  spec.n = n;
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kChurn;
  spec.scheduler.churn_rate = 0.05;
  return spec;
}

// The fingerprint is a pure function of the spec's behaviour: fixed across
// calls and threads, blind to what the canonical trial normalises away
// (label, n past the canonical size, budget past 200 n), and different for
// a different interaction model.
TEST(ChunkCache, BehaviourFingerprintIsStableAcrossCallsAndThreads) {
  const TrialSpec spec = churn_spec("svc-fp", 100);
  const u64 fp = service::behaviour_fingerprint(spec);
  EXPECT_EQ(service::behaviour_fingerprint(spec), fp);

  TrialSpec relabelled = churn_spec("svc-fp-other", 300);
  relabelled.max_interactions = 1000000;
  EXPECT_EQ(service::behaviour_fingerprint(relabelled), fp);

  TrialSpec dense = spec;
  dense.scheduler.dense_reference = true;
  EXPECT_NE(service::behaviour_fingerprint(dense), fp);
  EXPECT_NE(service::behaviour_fingerprint(small_spec("svc-fp")), fp);

  // First calls for a new canonical spec race on a pool: every thread
  // sees the same value, and the same as a later serial call.
  TrialSpec fresh_spec = churn_spec("svc-fp-race", 40);
  fresh_spec.scheduler.churn_faults = 3;
  for (const u64 threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<u64> seen(8);
    pool.parallel_for(seen.size(), [&](u64 i) {
      seen[i] = service::behaviour_fingerprint(fresh_spec);
    });
    for (const u64 v : seen) {
      EXPECT_EQ(v, service::behaviour_fingerprint(fresh_spec)) << threads;
    }
  }

  // A cache filled from a 1-thread pool is all hits from a 4-thread one.
  service::ServiceOptions sopt;
  sopt.cache_dir = fresh_dir("svcfp");
  sopt.chunk_trials = 4;
  const RunnerOptions opt = small_options(12);
  service::ServiceReport rep;
  ThreadPool one(1), four(4);
  const TrialSet cold = run_trials_sharded(spec, opt, sopt, one, &rep);
  EXPECT_EQ(rep.cache_misses, 3u);
  const TrialSet warm = run_trials_sharded(spec, opt, sopt, four, &rep);
  EXPECT_EQ(rep.cache_hits, 3u);
  EXPECT_EQ(rep.cache_misses, 0u);
  expect_sets_identical(cold, warm);
}

// A cache filled by code that predates the fingerprint (key material in
// the format=1 layout) must read as all misses — never as hits carrying
// that code's answers — and the pass that recomputes the misses must give
// exactly the uncached records.
TEST(ChunkCache, PreFingerprintKeysMissAndRecompute) {
  const TrialSpec spec = churn_spec("svc-old-format", 30);
  const RunnerOptions opt = small_options(12);
  const TrialSet base = run_trials(spec, opt);

  service::ServiceOptions sopt;
  sopt.cache_dir = fresh_dir("svcold");
  sopt.chunk_trials = 4;
  const std::string chunks_dir = sopt.cache_dir + "/chunks";
  make_dirs(chunks_dir);
  for (const service::ChunkSpec& chunk : service::chunk_ranges(12, 4)) {
    const std::string old_material =
        obs::spec_to_kv(spec) + "master_seed=" +
        std::to_string(opt.master_seed) + ";chunk=" +
        std::to_string(chunk.begin) + "-" + std::to_string(chunk.end) +
        ";format=1;";
    const std::string material =
        service::chunk_key_material(spec, opt.master_seed, chunk);
    EXPECT_NE(service::chunk_file_name(old_material),
              service::chunk_file_name(material));
    // Old code's answers: well-formed records that differ from today's.
    TrialRange range =
        run_trial_range(spec, opt.master_seed, chunk.begin, chunk.end);
    for (TrialRecord& r : range.records) ++r.fault_events;
    ASSERT_NE(service::store_chunk(chunks_dir, old_material, chunk, range),
              "");
  }

  ThreadPool pool(2);
  service::ServiceReport rep;
  const TrialSet cold = run_trials_sharded(spec, opt, sopt, pool, &rep);
  EXPECT_EQ(rep.chunks, 3u);
  EXPECT_EQ(rep.cache_hits, 0u);
  EXPECT_EQ(rep.cache_stale, 0u);
  EXPECT_EQ(rep.cache_misses, 3u);
  expect_sets_identical(base, cold);

  const TrialSet warm = run_trials_sharded(spec, opt, sopt, pool, &rep);
  EXPECT_EQ(rep.cache_hits, 3u);
  expect_sets_identical(base, warm);
}

// ---- sharded runs: bit identity ------------------------------------------

TEST(Service, InProcessShardingBitIdenticalAndCached) {
  const TrialSpec spec = small_spec("svc-shard0");
  const RunnerOptions opt = small_options(24);
  const TrialSet base = run_trials(spec, opt);
  const std::string base_trials = render_trial_rows(spec, base);
  const std::string base_aggregate = render_aggregate_rows(spec, base);

  for (const u64 threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    service::ServiceOptions sopt;
    sopt.workers = 0;
    sopt.cache_dir = fresh_dir("svc0t" + std::to_string(threads));
    sopt.chunk_trials = 5;

    // Cold: every chunk misses and is computed on the pool.
    service::ServiceReport rep;
    const TrialSet cold = run_trials_sharded(spec, opt, sopt, pool, &rep);
    expect_sets_identical(base, cold);
    EXPECT_EQ(base_trials, render_trial_rows(spec, cold)) << threads;
    EXPECT_EQ(base_aggregate, render_aggregate_rows(spec, cold)) << threads;
    EXPECT_EQ(cold.threads, pool.size());
    EXPECT_EQ(rep.chunks, 5u);
    EXPECT_EQ(rep.cache_misses, 5u);
    EXPECT_EQ(rep.cache_hits, 0u);
    EXPECT_EQ(rep.inprocess_chunks, 5u);
    EXPECT_EQ(rep.workers_spawned, 0u);

    // Second invocation: pure cache, zero computation, same bits.
    const TrialSet warm = run_trials_sharded(spec, opt, sopt, pool, &rep);
    expect_sets_identical(base, warm);
    EXPECT_EQ(base_trials, render_trial_rows(spec, warm)) << threads;
    EXPECT_EQ(base_aggregate, render_aggregate_rows(spec, warm)) << threads;
    EXPECT_EQ(rep.cache_hits, 5u);
    EXPECT_EQ(rep.cache_misses, 0u);
    EXPECT_EQ(rep.inprocess_chunks, 0u);

    // A different master seed keys different chunks: misses again.
    const RunnerOptions reseeded = small_options(24, 777);
    run_trials_sharded(spec, reseeded, sopt, pool, &rep);
    EXPECT_EQ(rep.cache_misses, 5u);
  }
}

TEST(Service, WorkerShardingBitIdenticalAt1_2_4Workers) {
  const TrialSpec spec = small_spec("svc-fleet");
  const RunnerOptions opt = small_options(24);
  const TrialSet base = run_trials(spec, opt);
  const std::string base_trials = render_trial_rows(spec, base);
  const std::string base_aggregate = render_aggregate_rows(spec, base);

  for (const u64 workers : {1u, 2u, 4u}) {
    service::ServiceOptions sopt;
    sopt.workers = workers;
    sopt.cache_dir = fresh_dir("svcw" + std::to_string(workers));
    sopt.chunk_trials = 4;

    ThreadPool pool(2);
    service::ServiceReport rep;
    const TrialSet sharded = run_trials_sharded(spec, opt, sopt, pool, &rep);
    expect_sets_identical(base, sharded);
    EXPECT_GE(rep.workers_spawned, 1u) << workers;
    EXPECT_EQ(sharded.threads, workers);

    // Sink rows: trial rows byte-identical as-is; aggregate rows
    // byte-identical once the documented wall-clock fields are
    // normalized out.
    EXPECT_EQ(base_trials, render_trial_rows(spec, sharded)) << workers;
    EXPECT_EQ(base_aggregate, render_aggregate_rows(spec, sharded))
        << workers;
  }
}

TEST(Service, SecondInvocationIsAllHitsNoWorkers) {
  const TrialSpec spec = small_spec("svc-rerun");
  const RunnerOptions opt = small_options(20);

  service::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.cache_dir = fresh_dir("svcrerun");
  sopt.chunk_trials = 5;

  ThreadPool pool(2);
  service::ServiceReport rep;
  const TrialSet first = run_trials_sharded(spec, opt, sopt, pool, &rep);
  EXPECT_EQ(rep.cache_misses, 4u);

  const TrialSet second = run_trials_sharded(spec, opt, sopt, pool, &rep);
  expect_sets_identical(first, second);
  EXPECT_EQ(rep.cache_hits, 4u);
  EXPECT_EQ(rep.cache_misses, 0u);
  EXPECT_EQ(rep.workers_spawned, 0u);  // nothing left to fan out
}

TEST(Service, StaleChunkIsRecomputed) {
  const TrialSpec spec = small_spec("svc-stale");
  const RunnerOptions opt = small_options(20);

  service::ServiceOptions sopt;
  sopt.workers = 0;
  sopt.cache_dir = fresh_dir("svcstale");
  sopt.chunk_trials = 5;

  // The recompute runs over a multi-thread pool.
  ThreadPool pool(4);
  service::ServiceReport rep;
  const TrialSet first = run_trials_sharded(spec, opt, sopt, pool, &rep);

  // Corrupt one cached chunk in place (a torn write).
  const std::string chunks_dir = sopt.cache_dir + "/chunks";
  const std::vector<std::string> files = list_dir(chunks_dir);
  ASSERT_EQ(files.size(), 4u);
  write_file_atomic(chunks_dir + "/" + files[0], "poprank-chunk-v1\ntorn");

  const TrialSet second = run_trials_sharded(spec, opt, sopt, pool, &rep);
  expect_sets_identical(first, second);
  EXPECT_EQ(rep.cache_stale, 1u);
  EXPECT_EQ(rep.cache_hits, 3u);
  EXPECT_EQ(rep.inprocess_chunks, 1u);
}

// ---- failure handling ----------------------------------------------------

TEST(Service, CrashedWorkerLeaseExpiresAndRejoinsRecovering) {
  const TrialSpec spec = small_spec("svc-crash");
  const RunnerOptions opt = small_options(24);
  const TrialSet base = run_trials(spec, opt);

  service::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.cache_dir = fresh_dir("svccrash");
  sopt.chunk_trials = 3;
  sopt.lease_timeout_ms = 300;  // fast expiry keeps the test snappy

  // Worker 0 hard-exits right after claiming its first chunk (once; the
  // marker file stops the respawned incarnation from crash-looping).
  ASSERT_EQ(setenv("POPRANK_SERVICE_CRASH_AFTER", "1", 1), 0);
  ThreadPool pool(2);
  service::ServiceReport rep;
  const TrialSet sharded = run_trials_sharded(spec, opt, sopt, pool, &rep);
  ASSERT_EQ(unsetenv("POPRANK_SERVICE_CRASH_AFTER"), 0);

  // The kill cost nothing but time: bits identical, the orphaned lease
  // was expired and its chunk reassigned, the dead worker was respawned.
  expect_sets_identical(base, sharded);
  EXPECT_GE(rep.leases_expired, 1u);
  EXPECT_GE(rep.workers_respawned, 1u);

  // The respawned incarnation re-registered through the recovery state.
  const std::vector<std::string> jobs = list_dir(sopt.cache_dir + "/jobs");
  ASSERT_EQ(jobs.size(), 1u);
  const std::string status =
      read_file(sopt.cache_dir + "/jobs/" + jobs[0] + "/workers/w0.status")
          .value_or("");
  EXPECT_NE(status.find("joining"), std::string::npos) << status;
  EXPECT_NE(status.find("recovering"), std::string::npos) << status;
  EXPECT_NE(status.find("offline"), std::string::npos) << status;
}

TEST(Service, DeadFleetFinishesOnThePool) {
  const TrialSpec spec = small_spec("svc-failsafe");
  const RunnerOptions opt = small_options(24);
  const TrialSet base = run_trials(spec, opt);

  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.cache_dir = fresh_dir("svcfailsafe");
  sopt.chunk_trials = 3;
  sopt.max_respawns = 0;  // the one worker's crash ends the fleet

  ASSERT_EQ(setenv("POPRANK_SERVICE_CRASH_AFTER", "1", 1), 0);
  ThreadPool pool(4);
  service::ServiceReport rep;
  const TrialSet sharded = run_trials_sharded(spec, opt, sopt, pool, &rep);
  ASSERT_EQ(unsetenv("POPRANK_SERVICE_CRASH_AFTER"), 0);

  // The fail-safe computed the leftovers on the pool: same bits.
  expect_sets_identical(base, sharded);
  EXPECT_EQ(rep.workers_respawned, 0u);
  EXPECT_GE(rep.inprocess_chunks, 1u);
  EXPECT_EQ(sharded.threads, sopt.workers);
}

TEST(Service, WorkerStatusLifecycle) {
  const TrialSpec spec = small_spec("svc-status");
  const RunnerOptions opt = small_options(8);

  service::ServiceOptions sopt;
  sopt.workers = 1;
  sopt.cache_dir = fresh_dir("svcstatus");
  sopt.chunk_trials = 4;

  ThreadPool pool(1);
  run_trials_sharded(spec, opt, sopt, pool);
  const std::vector<std::string> jobs = list_dir(sopt.cache_dir + "/jobs");
  ASSERT_EQ(jobs.size(), 1u);
  const std::string status =
      read_file(sopt.cache_dir + "/jobs/" + jobs[0] + "/workers/w0.status")
          .value_or("");
  // Clean lifecycle: joining -> online -> offline, in that order.
  const auto joining = status.find("joining");
  const auto online = status.find("online");
  const auto offline = status.find("offline");
  ASSERT_NE(joining, std::string::npos) << status;
  ASSERT_NE(online, std::string::npos) << status;
  ASSERT_NE(offline, std::string::npos) << status;
  EXPECT_LT(joining, online);
  EXPECT_LT(online, offline);
  EXPECT_EQ(status.find("recovering"), std::string::npos) << status;
}

TEST(Service, NonReplayableSpecFallsBackInProcess) {
  TrialSpec spec;
  spec.label = "svc-fallback";
  spec.factory = [] { return make_protocol("ag", 16); };
  const RunnerOptions opt = small_options(6);
  const TrialSet base = run_trials(spec, opt);

  service::ServiceOptions sopt;
  sopt.workers = 2;
  sopt.cache_dir = fresh_dir("svcfb");

  ThreadPool pool(3);
  service::ServiceReport rep;
  const TrialSet fell_back = run_trials_sharded(spec, opt, sopt, pool, &rep);
  expect_records_identical(base.records, fell_back.records);
  EXPECT_EQ(fell_back.threads, pool.size());
  EXPECT_TRUE(rep.fallback_in_process);
  EXPECT_EQ(rep.workers_spawned, 0u);
  EXPECT_EQ(rep.chunks, 0u);
}

}  // namespace
}  // namespace pp

int main(int argc, char** argv) {
  // Worker shards are this same binary, re-exec'd by the coordinator:
  // route worker-mode argv to the worker loop before gtest sees it.
  pp::service::maybe_run_worker(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
