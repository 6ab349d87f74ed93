#include "runner/runner.hpp"

#include <chrono>
#include <mutex>
#include <utility>

// mallinfo2() arrived in glibc 2.33; elsewhere the heap is never trimmed.
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
#define PP_TRIM_HEAP 1
#include <malloc.h>
#else
#define PP_TRIM_HEAP 0
#endif

#include "common/assert.hpp"
#include "core/initial.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "protocols/factory.hpp"

namespace pp {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kAccelerated:
      return "accelerated";
    case EngineKind::kUniform:
      return "uniform";
    case EngineKind::kScheduled:
      return "scheduled";
  }
  return "?";
}

ProtocolFactory TrialSpec::resolve_factory() const {
  if (factory) return factory;
  PP_ASSERT_MSG(!protocol.empty() && n > 0,
                "TrialSpec needs either a factory or protocol+n");
  const std::string name = protocol;
  const u64 size = n;
  return [name, size] { return make_protocol(name, size); };
}

void AggregateStats::fold(const TrialRecord& r) {
  ++trials;
  if (!r.silent) {
    ++timeouts;
  } else if (!r.valid) {
    ++invalid;
  }
  fault_events += r.fault_events;
  parallel_time.push(r.parallel_time);
  interactions.push(static_cast<double>(r.interactions));
  productive_steps.push(static_cast<double>(r.productive_steps));
}

Summary TrialSet::summary() const {
  PP_ASSERT_MSG(!records.empty(), "summary() needs keep_records");
  return summarize(parallel_times());
}

std::vector<double> TrialSet::parallel_times() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const TrialRecord& r : records) out.push_back(r.parallel_time);
  return out;
}

namespace {

// What every trial of a set shares, built once per set: the factory's
// protocol, whose fresh() instances share its layout or tree, and
// (for EngineKind::kScheduled) the scheduler — immutable and thread-safe,
// and graph topologies can be O(n^2) to construct.
struct SharedTrialState {
  ProtocolPtr probe;
  SchedulerPtr scheduler;
};

SharedTrialState prepare_trial_set(const TrialSpec& spec) {
  SharedTrialState shared;
  shared.probe = spec.resolve_factory()();
  if (spec.engine == EngineKind::kScheduled) {
    shared.scheduler =
        make_scheduler(spec.scheduler, shared.probe->num_agents());
  }
  return shared;
}

// Returns the allocator's free pages to the OS after a trial set of at
// least kTrimPopulation agents, once its heaps have grown by kTrimGrowth
// since the last trim.  A trial frees its n-word arrays when it ends; a
// caller that keeps small results between trial sets (a bench keeps its
// records, perfbench every round) gets them carved out of those freed
// arrays, so the next set's arrays no longer fit there and the heap grows
// by a little every set.  Over a sweep of many short large-n sets that
// ratchet, not the trials, sets peak RSS.  Smaller sets never trim: their
// arrays sit in the allocator's small bins, and a trim would only cost the
// next set its page faults.
void trim_heap_after_set(u64 n) {
#if PP_TRIM_HEAP
  constexpr u64 kTrimPopulation = u64{1} << 16;
  constexpr size_t kTrimGrowth = size_t{4} << 20;
  if (n < kTrimPopulation) return;
  static std::mutex mu;
  static size_t trimmed_at = 0;
  const std::lock_guard<std::mutex> lock(mu);
  if (mallinfo2().arena < trimmed_at + kTrimGrowth) return;
  malloc_trim(0);
  trimmed_at = mallinfo2().arena;
#else
  (void)n;
#endif
}

// The fan-out kernel.
TrialRecord run_one_trial_impl(const TrialSpec& spec,
                               const SharedTrialState& shared,
                               u64 trial_index, u64 seed,
                               obs::CounterBlock* block,
                               std::vector<u64>* final_counts = nullptr) {
#if PP_OBS
  const u64 t0_us = obs::now_us();
#endif
  // The block is per *trial*, so the merged counters inherit the runner's
  // thread-count-independent determinism.  Step tracing is per-thread
  // state scoped to the one flagged trial.
  obs::ScopedCounters counters(block);
  const bool step_trace = trial_index == obs::flagged_trial();
  if (step_trace) obs::set_step_trace(true);
  Rng rng(seed);
  ProtocolPtr p;
  {
    PP_OBS_SPAN("trial-setup", "\"trial\":" + std::to_string(trial_index));
    p = shared.probe->fresh();
    if (spec.init) {
      p->reset(spec.init(*p, rng));
    } else {
      p->reset(initial::uniform_random(*p, rng));
    }
  }
  RunResult r;
  {
    PP_OBS_SPAN("scheduler-run",
                "\"trial\":" + std::to_string(trial_index));
    switch (spec.engine) {
      case EngineKind::kAccelerated: {
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = run_accelerated(*p, rng, ro);
        break;
      }
      case EngineKind::kUniform: {
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = run_uniform(*p, rng, ro);
        break;
      }
      case EngineKind::kScheduled: {
        RunOptions ro;
        ro.max_interactions = spec.max_interactions;
        r = shared.scheduler->run(*p, rng, ro);
        break;
      }
    }
  }
  if (step_trace) obs::set_step_trace(false);
#if PP_OBS
  if (block != nullptr) block->wall_us = obs::now_us() - t0_us;
#endif
  if (final_counts != nullptr) *final_counts = p->counts();
  TrialRecord rec;
  rec.trial = trial_index;
  rec.seed = seed;
  rec.interactions = r.interactions;
  rec.productive_steps = r.productive_steps;
  rec.fault_events = r.fault_events;
  rec.parallel_time = r.parallel_time;
  rec.silent = r.silent;
  rec.valid = r.valid;
  return rec;
}

}  // namespace

TrialRecord run_one_trial(const TrialSpec& spec, u64 trial_index, u64 seed,
                          std::vector<u64>* final_counts) {
  return run_one_trial_impl(spec, prepare_trial_set(spec), trial_index, seed,
                            nullptr, final_counts);
}

std::vector<TrialRange> run_trial_ranges(
    const TrialSpec& spec, u64 master_seed,
    const std::vector<std::pair<u64, u64>>& ranges, ThreadPool& pool) {
  obs::init_from_env();  // POPRANK_TRACE / POPRANK_TRACE_TRIAL, idempotent
  const SeedStream seeds(master_seed, spec.label);

  // Flatten the ranges into one index space, range by range in trial
  // order, so the pool hands out single trials: stabilisation times vary
  // by orders of magnitude, and per-range tasks would idle threads behind
  // one long range.
  std::vector<TrialRange> out(ranges.size());
  std::vector<std::pair<u64, TrialRecord*>> slots;  // (trial, its record)
  for (u64 r = 0; r < ranges.size(); ++r) {
    const auto [begin, end] = ranges[r];
    PP_ASSERT(begin <= end);
    out[r].begin = begin;
    out[r].end = end;
    out[r].records.resize(end - begin);
    for (u64 t = begin; t < end; ++t) {
      slots.emplace_back(t, &out[r].records[t - begin]);
    }
  }
  const u64 total = slots.size();
  if (total == 0) return out;

  // One protocol and one scheduler for every range: fresh() and
  // Scheduler::run are const and all per-trial state is local to the
  // trial, so threads can share both.
  const SharedTrialState shared = prepare_trial_set(spec);

#if PP_OBS
  // One counter block per trial (merged in trial order below); skipped
  // entirely when the layer is compiled out.
  std::vector<obs::CounterBlock> blocks(total);
  obs::CounterBlock* const blocks_data = blocks.data();
#else
  obs::CounterBlock* const blocks_data = nullptr;
#endif

  // Heartbeat / stall watchdog, armed only via the environment
  // (POPRANK_HEARTBEAT / POPRANK_STALL_TIMEOUT).
  obs::ProgressMonitor monitor(
      obs::watchdog_options_from_env(spec.label, total, spec.n));

  // Each trial writes only its own record slot and counter block; no
  // cross-thread state.  The shared spec and tables are read-only.
  pool.parallel_for(total, [&](u64 i) {
    const auto [t, record] = slots[i];
    monitor.trial_started(t);
    *record =
        run_one_trial_impl(spec, shared, t, seeds.trial_seed(t),
                           blocks_data == nullptr ? nullptr : blocks_data + i);
    monitor.trial_finished(t, record->interactions);
  });
  trim_heap_after_set(shared.probe->num_agents());

#if PP_OBS
  // Deterministic merge: trial-index order within each range, never
  // completion order.
  u64 i = 0;
  for (TrialRange& range : out) {
    for (u64 t = range.begin; t < range.end; ++t) {
      range.counters.merge(blocks[i++]);
    }
  }
#endif
  return out;
}

TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt,
                    ThreadPool& pool) {
  PP_ASSERT(opt.trials >= 1);
  TrialSet out;
  out.threads = pool.size();
  out.master_seed = opt.master_seed;

  // wall_seconds / trials_per_sec are documented as outside the
  // determinism contract, hence:
  // poprank-lint: allow(R1): wall-clock throughput bookkeeping only
  const auto t0 = std::chrono::steady_clock::now();
  TrialRange all =
      std::move(run_trial_ranges(spec, opt.master_seed, {{0, opt.trials}},
                                 pool)
                    .front());
  // poprank-lint: allow(R1): ditto — throughput bookkeeping only.
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();  // poprank-lint: allow(R1)
  out.trials_per_sec = out.wall_seconds > 0
                           ? static_cast<double>(opt.trials) / out.wall_seconds
                           : 0.0;

  // Deterministic aggregation: fold in trial-index order, never in
  // completion order.
  out.records = std::move(all.records);
  out.counters = std::move(all.counters);
  for (const TrialRecord& r : out.records) out.stats.fold(r);
  if (!opt.keep_records) {
    out.records.clear();
    out.records.shrink_to_fit();
  }
  return out;
}

TrialSet run_trials(const TrialSpec& spec, const RunnerOptions& opt) {
  ThreadPool pool(opt.threads);
  return run_trials(spec, opt, pool);
}

}  // namespace pp
