// The poprank benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --out-dir <dir>
//
// Closed loop: this process is the only caller, and a ThreadPool of
// min(nproc, 4) threads fans each measurement point's trials out through
// run_trials().  There is no arrival rate, so the benchmark reports
// throughput at a stated n.  One process runs one workload, so set-up time
// and peak RSS belong to that workload alone.
//
// Phases of a run:
//   1. Set-up passes (kSetupPasses of them): start a pool, then run the
//      workload's first point once per pool thread at interaction budget 0
//      under a "setup" label, never through the cache.  The first pass is
//      timed from process start.
//   2. Timed phase: whole rounds of the workload's points (fresh labels per
//      round) until `seconds` of round wall time have accumulated.  One
//      more untimed set-up pass precedes each round after the first;
//      setup_s is the median over every pass of the run.
//   3. Checks, outside the timed window: a sample of each point's round-0
//      trials is replayed through run_one_trial() and must match bit for
//      bit; every silent trial must be valid; budget-free workloads must
//      have no timeouts; cached warm-pass records must equal the cold ones.
//   4. --trace 1 only: the same rounds again with spans recorded (the
//      ratio of the two phases is trace.overhead_frac), a serial traced
//      replay of the sampled trials through the public calls
//      (make_protocol, initial::uniform_random, Protocol::reset, pp::run),
//      a 1-thread run of the first point, and microbenchmarks of the ds,
//      rng and core kernels on the first point's sizes.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 carries the end-to-end metrics, --trace 1
// the per-layer ones.  Everything above it is a human-readable record.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/initial.hpp"
#include "ds/fenwick.hpp"
#include "protocols/factory.hpp"
#include "rng/seed_sequence.hpp"
#include "schedulers/scheduler.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pp::perfbench {
namespace {

namespace fs = std::filesystem;

// Read during static initialisation: the closest this process gets to its
// own start without parsing /proc.
const u64 g_process_start_ns = now_ns();

constexpr u64 kSetupPasses = 5;
constexpr u64 kMaxPoolThreads = 4;
constexpr u64 kMicroBatches = 200;
constexpr u64 kMicroOps = 1024;
constexpr u64 kStepBatch = 256;
constexpr double kMicroSecondsCap = 0.25;
// Point id of the microbenchmark and service-pass spans.
constexpr u64 kMicroPoint = 1000;

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

double seconds_between(u64 t0, u64 t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --out-dir "
               "<dir>\nworkloads:",
               why.c_str());
  for (const std::string_view w : workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("bad value for " + flag + ": " + s);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
      have_seconds = true;
    } else if (flag == "--trace") {
      const u64 t = parse_u64(flag, v);
      if (t > 1) usage("--trace takes 0 or 1");
      a.trace = t == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      a.out_dir.empty()) {
    usage("every flag is required");
  }
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

// ---- machine record ------------------------------------------------------

struct Machine {
  u64 nproc = 0;
  u64 l2_bytes = 0;
  u64 l3_bytes = 0;
};

std::string read_line(const fs::path& p) {
  std::ifstream in(p);
  std::string s;
  std::getline(in, s);
  return s;
}

// Cache sizes of cpu0 as sysfs reports them ("2048K" -> bytes); 0 when
// sysfs does not say.
Machine read_machine() {
  Machine m;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  m.nproc = n > 0 ? static_cast<u64>(n) : 1;
  std::error_code ec;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  for (const auto& e : fs::directory_iterator(base, ec)) {
    const std::string level = read_line(e.path() / "level");
    const std::string size = read_line(e.path() / "size");
    if (size.empty()) continue;
    u64 bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level == "2") m.l2_bytes = bytes;
    if (level == "3") m.l3_bytes = bytes;
  }
  return m;
}

// Bytes one trial's core arrays take, computed from the protocol's
// dimensions (not measured): counts, the two Fenwick trees (tree + leaf
// mirror each), the rule table and the initial configuration.
u64 fenwick_bytes(const Protocol& p) {
  const u64 r = p.num_ranks();
  const u64 s = p.num_states();
  return 8 * ((r + 1) + r + (s + 1) + s);
}

u64 computed_bytes_per_trial(const Protocol& p) {
  return 8 * p.num_states() + fenwick_bytes(p) + 8 * p.num_ranks() +
         8 * p.num_states();
}

// ---- timed rounds --------------------------------------------------------

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

// Pins the calling thread to one CPU for its lifetime, then restores the
// previous mask.  On a shared host each core has slow and fast stretches
// of its own lasting tens of seconds; moving the driver's thread to the
// next CPU every round makes a serial phase (the cached-sweep cold pass)
// sample every core instead of reporting the luck of one.  Threads
// created while pinned would inherit the mask, so no pool is started
// inside a pinned scope.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    CPU_ZERO(&saved_);
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

struct Round {
  std::vector<TrialSet> sets;       ///< one per point (the cold pass if cached)
  std::vector<double> point_wall;   ///< seconds per point
  std::vector<TrialSet> warm_sets;  ///< cached workloads only
  double wall = 0;                  ///< timed seconds of the round
  double cold_s = 0;
  double warm_s = 0;
  u64 cache_bytes = 0;
  double warm_hit_frac = 0;
};

struct FileStamp {
  u64 inode = 0;
  i64 mtime_ns = 0;
  bool operator==(const FileStamp&) const = default;
};

std::map<std::string, FileStamp> stamp_files(const fs::path& dir,
                                             u64* bytes) {
  std::map<std::string, FileStamp> out;
  *bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    *bytes += e.file_size();
    const std::string name = e.path().string();
    if (e.path().filename().string().rfind("chunk-", 0) != 0) continue;
    struct stat st {};
    if (::stat(name.c_str(), &st) != 0) continue;
    out[name] = FileStamp{static_cast<u64>(st.st_ino),
                          static_cast<i64>(st.st_mtim.tv_sec) * 1000000000 +
                              st.st_mtim.tv_nsec};
  }
  return out;
}

// Totals over rounds.  Trials and events count both passes of a cached
// round; counters and compute_wall cover only the sets computed (the cold
// pass), since a warm pass loads its results.
struct PhaseTotals {
  u64 trials = 0;
  u64 events = 0;
  double compute_wall = 0;  ///< seconds inside run_trials of computed sets
  double wall = 0;          ///< timed seconds, both passes when cached
  obs::CounterBlock counters;
};

void accumulate(PhaseTotals& t, const Round& r) {
  t.wall += r.wall;
  for (u64 i = 0; i < r.sets.size(); ++i) {
    t.counters.merge(r.sets[i].counters);
    t.compute_wall += r.point_wall[i];
  }
  for (const auto* sets : {&r.sets, &r.warm_sets}) {
    for (const TrialSet& s : *sets) {
      t.trials += s.records.size();
      for (const TrialRecord& rec : s.records) t.events += rec.productive_steps;
    }
  }
}

PhaseTotals totals(const std::vector<Round>& rounds) {
  PhaseTotals t;
  for (const Round& r : rounds) accumulate(t, r);
  return t;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("metric %-42s %.6g %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  void timing(const std::string& name, const std::vector<double>& v,
              const std::string& unit) {
    const TimingSummary s = summarize_timing(v);
    std::printf("timing %s: p50=%.6g p%" PRIu64 "=%.6g samples=%" PRIu64
                " %s\n",
                name.c_str(), s.p50, s.tail_pct, s.tail, s.samples,
                unit.c_str());
    add(name + ".p50", s.p50, unit);
    add(name + ".tail", s.tail, unit);
    add(name + ".samples", static_cast<double>(s.samples), "count");
  }
  std::string object() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

class Bench {
 public:
  Bench(const Args& args, Workload wl)
      : args_(args),
        wl_(std::move(wl)),
        master_(derive_seed(args.seed, "perfbench/master")),
        threads_(std::min(kMaxPoolThreads,
                          ThreadPool::resolve_threads(0))),
        tracer_(args.trace),
        machine_(read_machine()),
        cpus_(allowed_cpus()) {}

  int run();

 private:
  // Every timed round runs the same labels, so the same trials: rounds
  // repeat identical work and differ only in how the machine ran them.
  TrialSpec spec_for(const Point& pt, const std::string& phase) const {
    TrialSpec s = pt.spec;
    s.label = "perfbench/" + wl_.name + "/" + pt.name + "/" + phase;
    return s;
  }
  RunnerOptions options(u64 trials) const {
    RunnerOptions o;
    o.trials = trials;
    o.threads = threads_;
    o.master_seed = master_;
    o.keep_records = true;
    return o;
  }

  void print_machine();
  void setup_pass();
  Round run_round(u64 r);
  u64 check_rounds(const std::vector<Round>& rounds);
  void replay_check();
  void report_end_to_end(MetricsJson& m);
  void report_per_layer(MetricsJson& m);
  void traced_replay();
  void microbench();
  void write_trace();

  Args args_;
  Workload wl_;
  u64 master_;
  u64 threads_;
  Tracer tracer_;
  Machine machine_;
  std::vector<int> cpus_;  ///< round r pins the driver thread to cpus_[r % size]
  std::shared_ptr<ThreadPool> pool_;

  std::vector<double> setup_samples_;
  std::vector<Round> rounds_;         ///< untraced timed phase
  std::vector<Round> traced_rounds_;  ///< --trace 1 only
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 replayed_ = 0;

  // Per-layer samples (traced run).
  std::map<std::string, std::vector<double>> timings_;
  double child_cover_min_ = 1;
};

void Bench::print_machine() {
  const Machine& m = machine_;
  std::printf(
      "machine: nproc=%" PRIu64 " pool_threads=%" PRIu64 " l2_bytes=%" PRIu64
      " l3_bytes=%" PRIu64 " (sysfs, cpu0)\n",
      m.nproc, threads_, m.l2_bytes, m.l3_bytes);
  for (const Point& pt : wl_.points) {
    const ProtocolPtr p = make_protocol(pt.spec.protocol, pt.spec.n);
    std::printf("point %s: n=%" PRIu64 " states=%" PRIu64
                " trials/round=%" PRIu64 " budget=%" PRIu64
                " bytes_per_trial=%" PRIu64
                " (computed: counts, 2 Fenwick trees, rules, initial config)\n",
                pt.name.c_str(), p->num_agents(), p->num_states(), pt.trials,
                pt.spec.max_interactions, computed_bytes_per_trial(*p));
  }
}

void Bench::setup_pass() {
  const u64 k = setup_samples_.size();
  pool_.reset();
  const u64 t0 = k == 0 ? g_process_start_ns : now_ns();
  pool_ = std::make_shared<ThreadPool>(threads_);
  TrialSpec spec = spec_for(wl_.points.front(), "setup" + std::to_string(k));
  spec.max_interactions = 0;
  const TrialSet set = run_trials(spec, options(threads_), *pool_);
  keep(set.records.size());
  setup_samples_.push_back(seconds_between(t0, now_ns()));
}

Round Bench::run_round(u64 r) {
  const CpuPin pin(cpus_.empty() ? -1 : cpus_[r % cpus_.size()]);
  Round out;
  if (!wl_.cached) {
    const u64 t0 = now_ns();
    for (u64 i = 0; i < wl_.points.size(); ++i) {
      const Point& pt = wl_.points[i];
      const TrialSpec spec = spec_for(pt, "timed");
      const u64 p0 = now_ns();
      {
        SpanScope s(tracer_, "runner.run_trials", i);
        out.sets.push_back(run_trials(spec, options(pt.trials), *pool_));
      }
      out.point_wall.push_back(seconds_between(p0, now_ns()));
    }
    out.wall = seconds_between(t0, now_ns());
    return out;
  }

  // Cached: a cold pass fills a fresh cache directory, a warm pass reads it
  // back.  Both are timed; the directory survey between them is not.
  const fs::path dir = fs::path(args_.out_dir) / ("cache-r" + std::to_string(r));
  fs::remove_all(dir);
  bench::Context ctx;
  ctx.seed = master_;
  ctx.pool = pool_;
  ctx.cache_dir = dir.string();
  auto pass = [&](const char* name, std::vector<TrialSet>& sets,
                  std::vector<double>* walls) {
    SpanScope s(tracer_, name, kMicroPoint);
    const u64 t0 = now_ns();
    for (u64 i = 0; i < wl_.points.size(); ++i) {
      const Point& pt = wl_.points[i];
      const u64 p0 = now_ns();
      {
        SpanScope ps(tracer_, "runner.run_trials", i);
        sets.push_back(
            bench::run_trials_ctx(ctx, spec_for(pt, "timed"), options(pt.trials)));
      }
      if (walls != nullptr) walls->push_back(seconds_between(p0, now_ns()));
    }
    return seconds_between(t0, now_ns());
  };
  out.cold_s = pass("service.cold", out.sets, &out.point_wall);
  u64 bytes = 0;
  const auto before = stamp_files(dir, &bytes);
  out.cache_bytes = bytes;
  out.warm_s = pass("service.warm", out.warm_sets, nullptr);
  const auto after = stamp_files(dir, &bytes);
  u64 untouched = 0;
  for (const auto& [name, stamp] : before) {
    const auto it = after.find(name);
    if (it != after.end() && it->second == stamp) ++untouched;
  }
  out.warm_hit_frac =
      before.empty() ? 0 : static_cast<double>(untouched) / before.size();
  out.wall = out.cold_s + out.warm_s;
  fs::remove_all(dir);
  return out;
}

// Counts failed trials over every round.  Rounds repeat the same trials, so
// every round must also equal the untraced phase's round 0 record for
// record.
u64 Bench::check_rounds(const std::vector<Round>& rounds) {
  u64 failed = 0;
  for (u64 r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    for (u64 i = 0; i < round.sets.size(); ++i) {
      const auto& recs = round.sets[i].records;
      attempted_ += recs.size();
      for (u64 t = 0; t < recs.size(); ++t) {
        const TrialRecord& rec = recs[t];
        bool bad = rec.silent && !rec.valid;
        if (wl_.expect_silent && !rec.silent) bad = true;
        if (!same_record(rec, rounds_[0].sets[i].records[t])) bad = true;
        failed += bad ? 1 : 0;
      }
      if (wl_.cached) {
        const auto& warm = round.warm_sets[i].records;
        attempted_ += warm.size();
        for (u64 t = 0; t < recs.size(); ++t) {
          if (t >= warm.size() || !same_record(recs[t], warm[t])) ++failed;
        }
      }
    }
  }
  return failed;
}

std::vector<u64> replay_sample(u64 trials, u64 m) {
  std::vector<u64> out;
  m = std::min(m, trials);
  for (u64 j = 0; j < m; ++j) out.push_back(j * trials / m);
  return out;
}

void Bench::traced_replay() {
  const Round& r0 = rounds_.front();
  for (u64 i = 0; i < wl_.points.size(); ++i) {
    const Point& pt = wl_.points[i];
    const TrialSpec spec = spec_for(pt, "timed");
    SchedulerPtr sched;
    u64 make_sched_id = 0;
    {
      const SpanScope s(tracer_, "schedulers.make", i);
      make_sched_id = s.id();
      sched = make_scheduler(spec.scheduler, spec.n);
    }
    timings_["schedulers.make_ms"].push_back(
        static_cast<double>(tracer_.spans()[make_sched_id].dur()) / 1e6);
    for (const u64 t : replay_sample(pt.trials, wl_.replay_per_point)) {
      const TrialRecord& want = r0.sets[i].records[t];
      ProtocolPtr p;
      Configuration c;
      RunResult res;
      u64 trial_id = 0;
      u64 make_id = 0, init_id = 0, reset_id = 0, run_id = 0;
      {
        const SpanScope trial(tracer_, "trial", i);
        trial_id = trial.id();
        Rng rng(want.seed);
        {
          const SpanScope s(tracer_, "protocols.make", i);
          make_id = s.id();
          p = make_protocol(spec.protocol, spec.n);
        }
        {
          const SpanScope s(tracer_, "core.init", i);
          init_id = s.id();
          c = initial::uniform_random(*p, rng);
        }
        {
          const SpanScope s(tracer_, "core.reset", i);
          reset_id = s.id();
          p->reset(c);
        }
        {
          const SpanScope s(tracer_, "core.run", i);
          run_id = s.id();
          RunOptions ro;
          ro.max_interactions = spec.max_interactions;
          ro.scheduler = sched.get();
          res = pp::run(*p, rng, ro);
        }
      }
      TrialRecord got;
      got.trial = t;
      got.seed = want.seed;
      got.interactions = res.interactions;
      got.productive_steps = res.productive_steps;
      got.fault_events = res.fault_events;
      got.parallel_time = res.parallel_time;
      got.silent = res.silent;
      got.valid = res.valid;
      ++attempted_;
      if (!same_record(got, want)) {
        ++failed_;
        std::printf("FAIL traced replay %s trial %" PRIu64 " differs\n",
                    pt.name.c_str(), t);
      }
      const auto& sp = tracer_.spans();
      const double run_ns = static_cast<double>(sp[run_id].self_ns());
      timings_["protocols.make_ms"].push_back(sp[make_id].self_ns() / 1e6);
      timings_["core.init_ms"].push_back(sp[init_id].self_ns() / 1e6);
      timings_["core.reset_ms"].push_back(sp[reset_id].self_ns() / 1e6);
      if (res.productive_steps > 0) {
        timings_["core.run_ns_per_event"].push_back(
            run_ns / static_cast<double>(res.productive_steps));
      }
      if (res.interactions > 0) {
        timings_["schedulers.run_ns_per_interaction"].push_back(
            run_ns / static_cast<double>(res.interactions));
      }
      const Tracer::Span& ts = sp[trial_id];
      child_cover_min_ = std::min(
          child_cover_min_, static_cast<double>(ts.child_ns) / ts.dur());
    }
  }
}

void Bench::microbench() {
  const Point& pt = wl_.points.front();
  Rng rng(derive_seed(master_, "perfbench/micro"));
  const ProtocolPtr p = make_protocol(pt.spec.protocol, pt.spec.n);
  const Configuration cfg = initial::uniform_random(*p, rng);
  p->reset(cfg);
  const u64 weight = std::max<u64>(p->productive_weight(), 1);
  const double n = static_cast<double>(p->num_agents());
  const double prob = static_cast<double>(weight) / (n * (n - 1));

  // Runs `batch` up to kMicroBatches times (at most kMicroSecondsCap
  // seconds) under span `name`; `batch` returns the operations it did.
  auto bench = [&](const std::string& name, const std::string& metric,
                   const auto& batch) {
    const u64 start = now_ns();
    for (u64 b = 0; b < kMicroBatches; ++b) {
      u64 ops = 0;
      u64 id = 0;
      {
        const SpanScope s(tracer_, name, kMicroPoint);
        id = s.id();
        ops = batch();
      }
      if (ops > 0) {
        timings_[metric].push_back(
            static_cast<double>(tracer_.spans()[id].dur()) / ops);
      }
      if (seconds_between(start, now_ns()) > kMicroSecondsCap) break;
    }
  };

  bench("core.step_productive", "core.step_productive_ns", [&] {
    if (p->is_silent()) p->reset(cfg);
    u64 k = 0;
    for (; k < kStepBatch && !p->is_silent(); ++k) p->step_productive(rng);
    return k;
  });

  Fenwick f;
  f.assign(cfg.counts);
  std::vector<u64> targets(kMicroOps);
  std::vector<u64> slots(kMicroOps);
  for (u64 k = 0; k < kMicroOps; ++k) {
    targets[k] = rng.below(f.total());
    slots[k] = rng.below(f.size());
  }
  bench("ds.fenwick_find", "ds.fenwick_find_ns", [&] {
    u64 acc = 0;
    for (const u64 t : targets) acc += f.find(t);
    keep(acc);
    return kMicroOps;
  });
  bench("ds.fenwick_add", "ds.fenwick_add_ns", [&] {
    for (u64 k = 0; k < kMicroOps; k += 2) {
      f.add(slots[k], 1);
      f.add(slots[k], -1);
    }
    keep(f.total());
    return kMicroOps;
  });
  bench("rng.geometric", "rng.geometric_ns", [&] {
    u64 acc = 0;
    for (u64 k = 0; k < kMicroOps; ++k) acc += rng.geometric_failures(prob);
    keep(acc);
    return kMicroOps;
  });
  bench("rng.below", "rng.below_ns", [&] {
    u64 acc = 0;
    for (u64 k = 0; k < kMicroOps; ++k) acc += rng.below(weight);
    keep(acc);
    return kMicroOps;
  });
}

void Bench::replay_check() {
  struct Replay {
    u64 point;
    u64 trial;
  };
  std::vector<Replay> sample;
  for (u64 i = 0; i < wl_.points.size(); ++i) {
    for (const u64 t :
         replay_sample(wl_.points[i].trials, wl_.replay_per_point)) {
      sample.push_back({i, t});
    }
  }
  std::vector<char> ok(sample.size(), 0);
  pool_->parallel_for(sample.size(), [&](u64 k) {
    const Replay& rp = sample[k];
    const TrialSpec spec = spec_for(wl_.points[rp.point], "timed");
    const TrialRecord& want = rounds_[0].sets[rp.point].records[rp.trial];
    ok[k] = same_record(run_one_trial(spec, rp.trial, want.seed), want);
  });
  for (u64 k = 0; k < sample.size(); ++k) {
    ++replayed_;
    if (!ok[k]) {
      ++failed_;
      std::printf("FAIL replay %s trial %" PRIu64 " differs\n",
                  wl_.points[sample[k].point].name.c_str(), sample[k].trial);
    }
  }
}

void Bench::report_end_to_end(MetricsJson& m) {
  // The rates are per round (every round runs the same trials), median
  // over the rounds: a neighbour's burst on the shared machine then costs
  // one round, not the run.
  std::vector<double> trial_rates;
  std::vector<double> event_rates;
  for (u64 r = 0; r < rounds_.size(); ++r) {
    PhaseTotals t;
    accumulate(t, rounds_[r]);
    trial_rates.push_back(ratio(static_cast<double>(t.trials), t.wall));
    event_rates.push_back(ratio(static_cast<double>(t.events), t.wall));
    std::printf("round %" PRIu64 ": wall_s=%.6g trials_per_s=%.6g "
                "point_wall_s=",
                r, t.wall, trial_rates.back());
    for (const double w : rounds_[r].point_wall) std::printf(" %.4g", w);
    std::printf("\n");
  }
  const auto q = quartiles(trial_rates);
  std::printf("round trials_per_s q1/q2/q3: %.6g/%.6g/%.6g\n", q[0], q[1],
              q[2]);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  m.add("trials_per_s", median(trial_rates), "trials/s");
  m.add("events_per_s", median(event_rates), "events/s");
  m.add("setup_s", median(setup_samples_), "s");
  m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

void Bench::report_per_layer(MetricsJson& m) {
  // The same rounds again, with spans recorded.
  for (u64 r = 0; r < rounds_.size(); ++r) traced_rounds_.push_back(run_round(r));
  failed_ += check_rounds(traced_rounds_);
  const PhaseTotals untraced = totals(rounds_);
  const PhaseTotals tt = totals(traced_rounds_);

  // 1-thread run of the first point against its median pool wall over the
  // untraced rounds; for a cached workload the pool reference is an
  // uncached run of the points, which also gives cold_over_uncached.
  const Point& first = wl_.points.front();
  std::vector<double> first_walls;
  for (const Round& r : rounds_) first_walls.push_back(r.point_wall[0]);
  double pool_first = median(first_walls);
  double uncached = 0;
  if (wl_.cached) {
    const u64 t0 = now_ns();
    for (u64 i = 0; i < wl_.points.size(); ++i) {
      const u64 p0 = now_ns();
      const TrialSet s = run_trials(spec_for(wl_.points[i], "timed"),
                                    options(wl_.points[i].trials), *pool_);
      if (i == 0) pool_first = seconds_between(p0, now_ns());
      keep(s.records.size());
    }
    uncached = seconds_between(t0, now_ns());
  }
  double serial_first = 0;
  {
    ThreadPool one(1);
    const u64 t0 = now_ns();
    const TrialSet s =
        run_trials(spec_for(first, "timed"), options(first.trials), one);
    serial_first = seconds_between(t0, now_ns());
    for (u64 t = 0; t < s.records.size(); ++t) {
      ++attempted_;
      if (!same_record(s.records[t], rounds_[0].sets[0].records[t])) ++failed_;
    }
  }

  traced_replay();
  microbench();

  const ProtocolPtr fp = make_protocol(first.spec.protocol, first.spec.n);
  const double ev = static_cast<double>(tt.events);
  const obs::CounterBlock& c = tt.counters;
  auto per = [&](obs::Counter num, double den) {
    return ratio(static_cast<double>(c.get(num)), den);
  };
  m.add("runner.busy_frac",
        ratio(static_cast<double>(c.wall_us) / 1e6, tt.compute_wall * threads_),
        "ratio");
  m.add("runner.speedup", ratio(serial_first, pool_first), "x");
  m.timing("protocols.make_ms", timings_["protocols.make_ms"], "ms");
  m.timing("core.init_ms", timings_["core.init_ms"], "ms");
  m.timing("core.reset_ms", timings_["core.reset_ms"], "ms");
  m.timing("core.run_ns_per_event", timings_["core.run_ns_per_event"], "ns");
  m.add("core.null_skips_per_event", per(obs::Counter::kNullSkips, ev),
        "count");
  m.timing("core.step_productive_ns", timings_["core.step_productive_ns"],
           "ns");
  m.timing("ds.fenwick_find_ns", timings_["ds.fenwick_find_ns"], "ns");
  m.timing("ds.fenwick_add_ns", timings_["ds.fenwick_add_ns"], "ns");
  m.add("ds.fenwick_updates_per_event",
        per(obs::Counter::kFenwickUpdates, ev), "count");
  m.add("ds.fenwick_bytes", static_cast<double>(fenwick_bytes(*fp)), "bytes");
  m.timing("rng.geometric_ns", timings_["rng.geometric_ns"], "ns");
  m.timing("rng.below_ns", timings_["rng.below_ns"], "ns");
  m.timing("schedulers.make_ms", timings_["schedulers.make_ms"], "ms");
  m.timing("schedulers.run_ns_per_interaction",
           timings_["schedulers.run_ns_per_interaction"], "ns");
  m.add("schedulers.fault_state_touches_per_fault",
        per(obs::Counter::kFaultStateTouches,
            static_cast<double>(c.get(obs::Counter::kFaultEvents))),
        "count");
  m.add("schedulers.group_touches_per_event",
        per(obs::Counter::kGroupTouches, ev), "count");
  // Workloads that never call the service report zeros here.
  std::vector<double> cold;
  std::vector<double> warm;
  double hits = 0;
  for (const Round& r : wl_.cached ? traced_rounds_ : std::vector<Round>{}) {
    cold.push_back(r.cold_s);
    warm.push_back(r.warm_s);
    hits += r.warm_hit_frac;
  }
  m.timing("service.cold_s", cold, "s");
  m.timing("service.warm_s", warm, "s");
  m.add("service.cold_over_uncached", ratio(rounds_[0].cold_s, uncached),
        "ratio");
  m.add("service.cache_bytes", static_cast<double>(rounds_[0].cache_bytes),
        "bytes");
  m.add("service.warm_hit_frac", ratio(hits, static_cast<double>(cold.size())),
        "ratio");
  m.add("trace.overhead_frac", ratio(tt.wall, untraced.wall) - 1, "ratio");
  m.add("trace.child_cover_min", child_cover_min_, "ratio");
  if (child_cover_min_ < 0.95) {
    std::printf("WARN child spans cover only %.4f of a trial span\n",
                child_cover_min_);
  }
  write_trace();
}

void Bench::write_trace() {
  const Machine& mach = machine_;
  char header[256];
  std::snprintf(header, sizeof header,
                "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"nproc\":%" PRIu64
                ",\"pool_threads\":%" PRIu64 ",\"l2_bytes\":%" PRIu64
                ",\"l3_bytes\":%" PRIu64 "}",
                wl_.name.c_str(), args_.seed, mach.nproc, threads_,
                mach.l2_bytes, mach.l3_bytes);
  const std::string file =
      "trace-" + wl_.name + "-seed" + std::to_string(args_.seed) + ".json";
  if (tracer_.write_json((fs::path(args_.out_dir) / file).string(), header)) {
    std::printf("trace: %zu spans in %s\n", tracer_.spans().size(),
                file.c_str());
  }
}

int Bench::run() {
  std::printf("perfbench workload=%s seed=%" PRIu64 " master_seed=%" PRIu64
              " seconds=%g trace=%d\n",
              wl_.name.c_str(), args_.seed, master_, args_.seconds,
              args_.trace ? 1 : 0);
  print_machine();
  std::fflush(stdout);
  fs::create_directories(args_.out_dir);

  for (u64 k = 0; k < kSetupPasses; ++k) setup_pass();

  // Timed phase: whole rounds until `seconds` of round time accumulate.
  // A further set-up pass (untimed) precedes every round after the first,
  // so the set-up samples spread over the whole run.
  double elapsed = 0;
  tracer_.set_enabled(false);  // the untraced phase records no spans
  do {
    if (!rounds_.empty()) setup_pass();
    rounds_.push_back(run_round(rounds_.size()));
    elapsed += rounds_.back().wall;
  } while (elapsed < args_.seconds);
  tracer_.set_enabled(args_.trace);

  // Checks, outside the timed window.
  failed_ += check_rounds(rounds_);
  replay_check();
  RecordDigest digest;
  u64 timeouts = 0;
  for (const TrialSet& s : rounds_[0].sets) {
    timeouts += s.stats.timeouts;
    for (const TrialRecord& rec : s.records) digest.add(rec);
  }
  std::printf("setup: passes=%zu median_s=%.6g first_s=%.6g\n",
              setup_samples_.size(), median(setup_samples_),
              setup_samples_.front());
  std::printf("timed: rounds=%zu timeouts_per_round=%" PRIu64 "\n",
              rounds_.size(), timeouts);
  std::printf("digest %s seed %" PRIu64 ": %016" PRIx64
              " (round 0, %zu points)\n",
              wl_.name.c_str(), args_.seed, digest.value(),
              rounds_[0].sets.size());

  MetricsJson m;
  if (args_.trace) {
    report_per_layer(m);
  } else {
    report_end_to_end(m);
  }

  std::printf("checks: attempted=%" PRIu64 " failed=%" PRIu64
              " replayed=%" PRIu64 "\n",
              attempted_, failed_, replayed_);
  // Not among the JSON metrics: it is 0 on a correct run, and the result
  // line carries it as failed / attempted.
  std::printf("metric %-42s %.6g ratio\n", "fail_frac",
              ratio(static_cast<double>(failed_), static_cast<double>(attempted_)));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", attempted_, failed_,
              m.object().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pp::perfbench

int main(int argc, char** argv) {
  using namespace pp::perfbench;
  const Args args = parse_args(argc, argv);
  std::optional<Workload> wl = make_workload(args.workload);
  if (!wl) usage("unknown workload " + args.workload);
  Bench bench(args, std::move(*wl));
  return bench.run();
}
