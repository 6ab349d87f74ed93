// Tests for the observability layer (src/obs/): deterministic counter
// merges, span nesting/closing under early aborts, Chrome trace JSON
// structure, provenance manifests that replay bit-for-bit, the
// generalized fault_events accounting, and the heartbeat/stall watchdog.
//
// Everything that needs the compiled-in hooks is skipped (not silently
// passed) when the suite is built with -DPOPRANK_OBS=OFF; the determinism
// and replay tests run in both configurations — they are exactly the
// claims the OFF build must also honour.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/initial.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "runner/seed_stream.hpp"
#include "runner/sink.hpp"

namespace pp {
namespace {

using obs::Counter;
using obs::CounterBlock;
using obs::Sketch;

// A spec that exercises counters from several subsystems: churn faults,
// uniform stepping, and the clean accelerated tail (null skips).
TrialSpec churn_spec(u64 n = 64) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = n;
  spec.label = "test-obs-churn";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kChurn;
  spec.scheduler.churn_rate = 0.05;
  spec.scheduler.churn_active = 5 * n;
  return spec;
}

TrialSpec partition_spec(u64 n = 64) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = n;
  spec.label = "test-obs-partition";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kPartition;
  spec.scheduler.partition_blocks = 2;
  spec.scheduler.partition_cycles = 3;
  return spec;
}

bool records_equal(const std::vector<TrialRecord>& a,
                   const std::vector<TrialRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trial != b[i].trial || a[i].seed != b[i].seed ||
        a[i].interactions != b[i].interactions ||
        a[i].productive_steps != b[i].productive_steps ||
        a[i].fault_events != b[i].fault_events ||
        a[i].parallel_time != b[i].parallel_time ||
        a[i].silent != b[i].silent || a[i].valid != b[i].valid) {
      return false;
    }
  }
  return true;
}

// ---- counter registry ----------------------------------------------------

TEST(ObsCounters, SketchBucketsAreBitWidth) {
  EXPECT_EQ(obs::sketch_bucket(0), 0u);
  EXPECT_EQ(obs::sketch_bucket(1), 1u);
  EXPECT_EQ(obs::sketch_bucket(2), 2u);
  EXPECT_EQ(obs::sketch_bucket(3), 2u);
  EXPECT_EQ(obs::sketch_bucket(4), 3u);
  EXPECT_EQ(obs::sketch_bucket(1024), 11u);
  EXPECT_EQ(obs::sketch_bucket(~static_cast<u64>(0)), 64u);
}

TEST(ObsCounters, NamesAreUniqueSnakeCase) {
  std::set<std::string> names;
  for (u32 c = 0; c < obs::kNumCounters; ++c) {
    const std::string name = obs::counter_name(static_cast<Counter>(c));
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
  }
  for (u32 s = 0; s < obs::kNumSketches; ++s) {
    const std::string name = obs::sketch_name(static_cast<Sketch>(s));
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
}

TEST(ObsCounters, MergeSumsAndDeterministicEqualIgnoresWall) {
  CounterBlock a, b;
  a.counter[0] = 3;
  a.sketch[0][5] = 2;
  a.wall_us = 100;
  b.counter[0] = 4;
  b.sketch[0][5] = 1;
  b.wall_us = 999;
  a.merge(b);
  EXPECT_EQ(a.counter[0], 7u);
  EXPECT_EQ(a.sketch[0][5], 3u);
  EXPECT_EQ(a.wall_us, 1099u);

  CounterBlock c = a;
  c.wall_us = 0;
  EXPECT_TRUE(CounterBlock::deterministic_equal(a, c));
  c.counter[0] = 8;
  EXPECT_FALSE(CounterBlock::deterministic_equal(a, c));
  EXPECT_FALSE(a.deterministic_empty());
  EXPECT_TRUE(CounterBlock{}.deterministic_empty());
}

TEST(ObsCounters, ToJsonShapeAndNames) {
  CounterBlock b;
  b.counter[static_cast<u32>(Counter::kNullSkips)] = 41;
  b.sketch[static_cast<u32>(Sketch::kNullSkipGap)][3] = 7;
  b.wall_us = 5;
  const std::string json = b.to_json();
  EXPECT_NE(json.find("\"null_skips\":41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"null_skip_gap\":{\"count\":7,\"buckets\":{\"3\":7}}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("wall_us"), std::string::npos) << json;
  EXPECT_NE(b.to_json(/*include_wall=*/true).find("\"wall_us\":5"),
            std::string::npos);
}

// The headline determinism claim: merged counters are bit-identical for
// every thread count, because blocks are per-trial and merged in trial
// order.  Holds vacuously (all empty) when POPRANK_OBS=OFF — asserted
// too, since that is the OFF build's half of the contract.
TEST(ObsCounters, MergedCountersAreThreadCountIndependent) {
  RunnerOptions opt;
  opt.trials = 24;
  opt.threads = 1;
  const TrialSet base = run_trials(churn_spec(), opt);
#if PP_OBS
  EXPECT_FALSE(base.counters.deterministic_empty());
  EXPECT_GT(base.counters.get(Counter::kFaultEvents), 0u);
  EXPECT_GT(base.counters.get(Counter::kNullSkips), 0u);
  EXPECT_GT(base.counters.sketch_count(Sketch::kNullSkipGap), 0u);
#else
  EXPECT_TRUE(base.counters.deterministic_empty());
#endif
  for (const u64 threads : {2u, 8u}) {
    opt.threads = threads;
    const TrialSet set = run_trials(churn_spec(), opt);
    EXPECT_TRUE(records_equal(base.records, set.records)) << threads;
    EXPECT_TRUE(CounterBlock::deterministic_equal(base.counters, set.counters))
        << threads << " threads";
  }
}

// One ring-of-traps trial's merged block, pinned: the rank tree's updates
// count exactly as the stored-weight tree's did (a zero-delta update, e.g.
// a count moving between 0 and 1, counts nothing), one depth sample each.
TEST(ObsCounters, RingOfTrapsTrialCountersArePinned) {
#if PP_OBS
  TrialSpec spec;
  spec.protocol = "ring-of-traps";
  spec.n = 240;
  spec.label = "test-obs-ring-pin";
  RunnerOptions opt;
  opt.trials = 1;
  opt.threads = 1;
  const TrialSet set = run_trials(spec, opt);
  ASSERT_TRUE(set.records[0].silent);
  EXPECT_EQ(set.records[0].productive_steps, 1829u);
  EXPECT_EQ(set.records[0].interactions, 4210888u);
  EXPECT_EQ(
      set.counters.to_json(),
      "{\"counters\":{\"productive_steps\":1829,\"null_skips\":4209059,"
      "\"fenwick_updates\":7486,\"group_touches\":0,\"roster_grows\":0,"
      "\"roster_rejections\":0,\"fault_events\":0,"
      "\"fault_agent_moves\":0,\"fault_state_touches\":0},"
      "\"sketches\":{\"null_skip_gap\":{\"count\":1829,\"buckets\":{"
      "\"0\":1,\"2\":3,\"3\":6,\"4\":10,\"5\":26,\"6\":40,\"7\":83,"
      "\"8\":129,\"9\":200,\"10\":307,\"11\":360,\"12\":371,"
      "\"13\":217,\"14\":58,\"15\":15,\"16\":3}},"
      "\"fenwick_depth\":{\"count\":7486,\"buckets\":{\"2\":7486}},"
      "\"group_size\":{\"count\":0,\"buckets\":{}},"
      "\"fault_burst\":{\"count\":0,\"buckets\":{}}}}");
#else
  GTEST_SKIP() << "obs hooks compiled out (POPRANK_OBS=OFF)";
#endif
}

// Counters must never perturb a trajectory: records with counters armed
// equal records from the plain single-trial path (no block installed).
TEST(ObsCounters, CountersDoNotPerturbTrajectories) {
  RunnerOptions opt;
  opt.trials = 8;
  opt.threads = 2;
  const TrialSpec spec = churn_spec();
  const TrialSet set = run_trials(spec, opt);
  const SeedStream seeds(opt.master_seed, spec.label);
  for (u64 t = 0; t < opt.trials; ++t) {
    const TrialRecord solo = run_one_trial(spec, t, seeds.trial_seed(t));
    EXPECT_EQ(solo.interactions, set.records[t].interactions) << t;
    EXPECT_EQ(solo.productive_steps, set.records[t].productive_steps) << t;
    EXPECT_EQ(solo.fault_events, set.records[t].fault_events) << t;
  }
}

// ---- generalized fault_events (partition split/heal) ---------------------

TEST(ObsFaults, PartitionCountsSplitHealTransitions) {
  RunnerOptions opt;
  opt.trials = 6;
  const TrialSet set = run_trials(partition_spec(), opt);
  // Every trial injects at least the first split; a full run injects
  // 2 * cycles transitions.
  EXPECT_GE(set.stats.fault_events, opt.trials);
  EXPECT_LE(set.stats.fault_events,
            2 * partition_spec().scheduler.partition_cycles * opt.trials);
  for (const TrialRecord& r : set.records) EXPECT_GE(r.fault_events, 1u);
}

TEST(ObsFaults, AggregateFaultEventsFoldsAndReachesSinks) {
  RunnerOptions opt;
  opt.trials = 4;
  const TrialSet set = run_trials(partition_spec(), opt);
  u64 sum = 0;
  for (const TrialRecord& r : set.records) sum += r.fault_events;
  EXPECT_EQ(set.stats.fault_events, sum);

  std::ostringstream json;
  JsonlSink(json).write_aggregate(partition_spec(), set);
  EXPECT_NE(json.str().find("\"fault_events\":" + std::to_string(sum)),
            std::string::npos)
      << json.str();
  std::ostringstream csv;
  CsvSink(csv).write_aggregate(partition_spec(), set);
  EXPECT_NE(csv.str().find(",fault_events,"), std::string::npos);
}

// ---- span tracing --------------------------------------------------------

#if PP_OBS

TEST(ObsTrace, SpansNestAndCloseUnderEarlyAbort) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    // Runner path with the budget cut almost immediately.
    TrialSpec aborting = churn_spec(32);
    aborting.max_interactions = 16;
    RunnerOptions opt;
    opt.trials = 3;
    opt.threads = 2;
    (void)run_trials(aborting, opt);
    // Engine path under an observer abort, inside a live span.
    {
      obs::ScopedSpan span("observer-abort");
      ProtocolPtr p = make_protocol("ag", 32);
      Rng rng(3);
      p->reset(initial::uniform_random(*p, rng));
      RunOptions ro;
      ro.on_change = [](const Protocol&, u64) { return false; };
      const RunResult r = run_accelerated(*p, rng, ro);
      EXPECT_TRUE(r.aborted);
    }
  }
  // Every span closed: no thread has a live frame left.
  for (const obs::SpanStackSnapshot& s : obs::live_span_stacks()) {
    EXPECT_TRUE(s.frames.empty()) << "thread " << s.tid << " leaked a span";
  }
  u64 setup = 0, run = 0, abort_span = 0;
  for (const obs::TraceEvent& e : session.events()) {
    if (e.name == "trial-setup") ++setup;
    if (e.name == "scheduler-run") ++run;
    if (e.name == "observer-abort") ++abort_span;
    EXPECT_EQ(e.phase, 'X');
  }
  EXPECT_EQ(setup, 3u);
  EXPECT_EQ(run, 3u);
  EXPECT_EQ(abort_span, 1u);
}

TEST(ObsTrace, StepTraceRecordsInstantEventsForFlaggedTrialOnly) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    obs::set_step_trace(true);
    obs::trace_step(123);
    obs::set_step_trace(false);
    obs::trace_step(456);  // not recorded: flag off
  }
  const auto events = session.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "productive-step");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_NE(events[0].args.find("\"interactions\":123"), std::string::npos);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// and the document carries the Chrome trace_event framing.
void expect_wellformed_trace_json(const std::string& json) {
  i64 depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ObsTrace, TraceJsonRoundTripsThroughMinimalParser) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    obs::ScopedSpan outer("outer", "\"k\":1");
    {
      obs::ScopedSpan inner("inner");
    }
    obs::trace_instant("mark", "\"weird\":\"quote \\\" and \\\\ slash\"");
  }
  const std::string json = session.to_json();
  expect_wellformed_trace_json(json);
  // Complete events carry durations; instants carry thread scope.
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(ObsTrace, SessionCapDropsInsteadOfGrowing) {
  obs::TraceSession session(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent e;
    e.name = "e";
    session.record(std::move(e));
  }
  EXPECT_EQ(session.events().size(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  EXPECT_NE(session.to_json().find("\"dropped_events\":6"), std::string::npos);
}

#endif  // PP_OBS

// ---- provenance ----------------------------------------------------------

TEST(ObsProvenance, SpecKvRoundTripsForEveryRegisteredScheduler) {
  for (const SchedulerSpec& sched : all_scheduler_specs()) {
    TrialSpec spec;
    spec.protocol = "ag";
    spec.n = 48;
    spec.label = "test-obs-roundtrip";
    spec.engine = EngineKind::kScheduled;
    spec.scheduler = sched;
    const std::string kv = obs::spec_to_kv(spec);
    EXPECT_TRUE(obs::spec_is_replayable(spec)) << kv;
    const TrialSpec back = obs::spec_from_kv(kv);
    EXPECT_EQ(obs::spec_to_kv(back), kv) << sched.to_string();
    EXPECT_EQ(obs::spec_hash(back), obs::spec_hash(spec));
  }
}

// The scheduler kind travels by name, so a kv naming a kind this build
// does not have, or written with the kind's old enum integer, fails
// loudly instead of replaying as whichever kind now holds that number.
TEST(ObsProvenance, UnknownOrNumericSchedulerKindIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(obs::spec_from_kv("protocol=ag;n=48;sched.kind=hybrid;"),
               "unknown sched.kind");
  EXPECT_DEATH(obs::spec_from_kv("protocol=ag;n=48;sched.kind=4;"),
               "unknown sched.kind");
}

TEST(ObsProvenance, CustomFactoriesAndInitsAreHonestlyNonReplayable) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 16;
  spec.factory = [] { return make_protocol("ag", 16); };
  EXPECT_FALSE(obs::spec_is_replayable(spec));
  TrialSpec spec2;
  spec2.protocol = "ag";
  spec2.n = 16;
  spec2.init = [](const Protocol& p, Rng& rng) {
    return initial::uniform_random(p, rng);
  };
  EXPECT_FALSE(obs::spec_is_replayable(spec2));
  // The *named* uniform-random generator is recognised.
  spec2.init = gen_uniform_random();
  EXPECT_TRUE(obs::spec_is_replayable(spec2));
}

TEST(ObsProvenance, ManifestFieldExtraction) {
  const std::string line =
      "{\"kind\":\"point\",\"label\":\"a b\",\"n\":64,\"replayable\":true,"
      "\"spec\":\"protocol=ag;n=64;\"}";
  EXPECT_EQ(obs::manifest_field(line, "kind"), "point");
  EXPECT_EQ(obs::manifest_field(line, "label"), "a b");
  EXPECT_EQ(obs::manifest_field(line, "n"), "64");
  EXPECT_EQ(obs::manifest_field(line, "replayable"), "true");
  EXPECT_EQ(obs::manifest_field(line, "spec"), "protocol=ag;n=64;");
  EXPECT_EQ(obs::manifest_field(line, "absent"), "");
}

TEST(ObsProvenance, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors (so the python checker can cross-check).
  EXPECT_EQ(obs::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// The headline provenance claim: a sink's manifest sidecar alone is
// enough to reproduce the artifact's records bit for bit.
TEST(ObsProvenance, ManifestReplaysRunBitForBit) {
  const std::string path = ::testing::TempDir() + "obs_replay.jsonl";
  TrialSpec spec = churn_spec(48);
  spec.init = gen_uniform_random();
  RunnerOptions opt;
  opt.trials = 5;
  opt.master_seed = 0xfeedbeef;
  const TrialSet set = run_trials(spec, opt);
  {
    JsonlSink sink(path);
    sink.write_trials(spec, set);
  }

  // Read the sidecar back; find the point line.
  std::ifstream manifest(path + ".manifest.json");
  ASSERT_TRUE(manifest.good());
  std::string line, point_line, header_line;
  while (std::getline(manifest, line)) {
    if (obs::manifest_field(line, "kind") == "manifest") header_line = line;
    if (obs::manifest_field(line, "kind") == "point") point_line = line;
  }
  ASSERT_FALSE(header_line.empty());
  ASSERT_FALSE(point_line.empty());
  EXPECT_EQ(obs::manifest_field(point_line, "spec_hash"),
            obs::spec_hash(spec));

  // Replay purely from the manifest record.
  const obs::ReplayPoint rp = obs::parse_manifest_point(point_line);
  EXPECT_EQ(rp.master_seed, opt.master_seed);
  EXPECT_EQ(rp.trials, opt.trials);
  RunnerOptions replay_opt;
  replay_opt.trials = rp.trials;
  replay_opt.master_seed = rp.master_seed;
  replay_opt.threads = 2;  // determinism claim: thread count is free
  const TrialSet replay = run_trials(rp.spec, replay_opt);
  EXPECT_TRUE(records_equal(set.records, replay.records));
  EXPECT_TRUE(
      CounterBlock::deterministic_equal(set.counters, replay.counters));
}

TEST(ObsProvenance, BuildInfoIsStamped) {
  const obs::BuildInfo b = obs::build_info();
  EXPECT_NE(std::string(b.git_sha), "");
  EXPECT_NE(std::string(b.build_type), "");
  EXPECT_EQ(b.obs_enabled, PP_OBS != 0);
}

// ---- watchdog ------------------------------------------------------------

TEST(ObsWatchdog, DisabledMonitorStartsNoThread) {
  obs::WatchdogOptions opt;  // both deadlines zero
  obs::ProgressMonitor monitor(opt);
  EXPECT_FALSE(monitor.enabled());
  monitor.trial_started(0);
  monitor.trial_finished(0, 10);  // cheap no-ops, must not crash
}

TEST(ObsWatchdog, HeartbeatAndStallDumpFire) {
  obs::WatchdogOptions opt;
  opt.heartbeat_seconds = 0.01;
  opt.stall_seconds = 0.02;
  opt.abort_on_stall = false;  // observe the dump instead of dying
  opt.label = "test-obs-watchdog";
  opt.total_trials = 2;
  obs::ProgressMonitor monitor(opt);
  EXPECT_TRUE(monitor.enabled());
  monitor.trial_started(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.force_tick();
  EXPECT_GE(monitor.heartbeats(), 1u);
  EXPECT_EQ(monitor.stall_dumps(), 1u);
  // A stalled trial dumps once, not once per scan.
  monitor.force_tick();
  EXPECT_EQ(monitor.stall_dumps(), 1u);
  monitor.trial_finished(0, 100);
  monitor.trial_started(1);
  monitor.force_tick();
  EXPECT_EQ(monitor.stall_dumps(), 1u) << "fresh trial is not stalled";
}

}  // namespace
}  // namespace pp
