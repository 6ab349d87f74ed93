#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "protocols/factory.hpp"
#include "service/coordinator.hpp"
#include "service/worker.hpp"

namespace pp::bench {
namespace {

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

Context init(int argc, char** argv, const std::string& experiment_id,
             const std::string& claim) {
  // Worker-mode re-exec hook: when the sharded service spawned this
  // process as a shard, run the worker loop and exit before any bench
  // setup (banner, BENCH log truncation, thread pool) happens.
  service::maybe_run_worker(argc, argv);

  Context ctx;
  ctx.trials = std::strtoull(env_or("POPRANK_TRIALS", "0"), nullptr, 10);
  ctx.seed = std::strtoull(env_or("POPRANK_SEED", "0"), nullptr, 10);
  if (ctx.seed == 0) ctx.seed = kDefaultRootSeed;
  ctx.threads = std::strtoull(env_or("POPRANK_THREADS", "0"), nullptr, 10);
  ctx.max_n = std::strtoull(env_or("POPRANK_MAX_N", "0"), nullptr, 10);
  ctx.csv_dir = env_or("POPRANK_CSV_DIR", "");
  ctx.cache_dir = env_or("POPRANK_CACHE_DIR", "");
  ctx.service_workers =
      std::strtoull(env_or("POPRANK_SERVICE_WORKERS", "0"), nullptr, 10);
  if (std::strcmp(env_or("POPRANK_QUICK", "0"), "1") == 0) {
    ctx.size = Context::Size::kQuick;
  }
  if (std::strcmp(env_or("POPRANK_FULL", "0"), "1") == 0) {
    ctx.size = Context::Size::kFull;
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--trials=", 9) == 0) {
      ctx.trials = std::strtoull(a + 9, nullptr, 10);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      ctx.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      ctx.threads = std::strtoull(a + 10, nullptr, 10);
    } else if (std::strncmp(a, "--max-n=", 8) == 0) {
      ctx.max_n = std::strtoull(a + 8, nullptr, 10);
    } else if (std::strncmp(a, "--csv=", 6) == 0) {
      ctx.csv_dir = a + 6;
    } else if (std::strncmp(a, "--cache-dir=", 12) == 0) {
      ctx.cache_dir = a + 12;
    } else if (std::strncmp(a, "--service-workers=", 18) == 0) {
      ctx.service_workers = std::strtoull(a + 18, nullptr, 10);
    } else if (std::strcmp(a, "--quick") == 0) {
      ctx.size = Context::Size::kQuick;
    } else if (std::strcmp(a, "--full") == 0) {
      ctx.size = Context::Size::kFull;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --trials= --seed= --threads= "
                   "--max-n= --csv= --cache-dir= --service-workers= "
                   "--quick --full)\n",
                   a);
      std::exit(2);
    }
  }
  if (ctx.service_workers != 0 && ctx.cache_dir.empty()) {
    std::fprintf(stderr,
                 "--service-workers needs --cache-dir (the chunk cache is "
                 "how shards hand results back)\n");
    std::exit(2);
  }
  ctx.pool = std::make_shared<ThreadPool>(ctx.threads);
  // Truncates the file and stamps a per-run id: a BENCH file always
  // describes exactly one run (runner/bench_log.hpp, tested in
  // tests/test_bench_log.cpp).
  BenchLog::RunInfo info;
  info.seed = ctx.seed;
  info.threads = ctx.pool->size();
  // The *effective* cap (size_cap folds in the quick-mode default), so
  // the regression gate can excuse baseline points above it; "uncapped"
  // is encoded as 0 rather than ~0 to keep the JSON readable.
  const u64 cap = ctx.size_cap();
  info.max_n = cap == ~static_cast<u64>(0) ? 0 : cap;
  info.size = ctx.quick() ? "quick" : (ctx.full() ? "full" : "standard");
  ctx.bench_log = BenchLog::open(ctx.csv_dir, experiment_id, info);
  std::printf("=======================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("root seed %llu | %s sweep%s | runner threads %s\n",
              static_cast<unsigned long long>(ctx.seed),
              ctx.quick() ? "quick" : (ctx.full() ? "full" : "standard"),
              ctx.trials ? " | trials overridden" : "",
              ctx.threads ? std::to_string(ctx.threads).c_str() : "auto");
  if (!ctx.cache_dir.empty()) {
    std::printf("service: cache %s | workers %llu\n", ctx.cache_dir.c_str(),
                static_cast<unsigned long long>(ctx.service_workers));
  }
  std::printf("=======================================================\n\n");
  return ctx;
}

TrialSet run_trials_ctx(const Context& ctx, const TrialSpec& spec,
                        const RunnerOptions& opt) {
  if (ctx.cache_dir.empty()) return run_trials(spec, opt, *ctx.pool);
  service::ServiceOptions sopt;
  sopt.workers = ctx.service_workers;
  sopt.cache_dir = ctx.cache_dir;
  return service::run_trials_sharded(spec, opt, sopt, *ctx.pool);
}

TrialSpec make_spec(const std::string& label, u64 n,
                    const ProtocolFactory& factory, const ConfigGenerator& gen,
                    u64 max_interactions) {
  TrialSpec spec;
  spec.label = label;
  spec.n = n;
  spec.factory = factory;
  spec.init = gen;
  spec.max_interactions = max_interactions;
  return spec;
}

std::vector<u64> capped_sizes(const Context& ctx, std::vector<u64> sizes) {
  const u64 cap = ctx.size_cap();
  std::vector<u64> kept;
  kept.reserve(sizes.size());
  for (const u64 n : sizes) {
    if (n <= cap) kept.push_back(n);
  }
  return kept;
}

RunnerOptions runner_options(const Context& ctx, u64 trials) {
  RunnerOptions opt;
  opt.trials = trials;
  opt.threads = ctx.threads;
  opt.master_seed = ctx.seed;
  opt.keep_records = true;
  return opt;
}

void run_scale_section(
    const Context& ctx, const std::string& title,
    const std::string& label_prefix, const std::string& protocol,
    const std::vector<u64>& sizes,
    const std::function<std::vector<SchedulerSpec>(u64)>& menu) {
  if (sizes.empty()) return;
  const u64 trials = ctx.trials_or(ctx.quick() ? 2 : 3);
  Table t(title + ", " + protocol + ", parallel-time budget 5 (" +
          std::to_string(trials) + " trials/point)");
  t.headers({"scheduler", "n", "interactions", "prod. steps", "trials/s",
             "wall s"});
  for (const u64 raw_n : sizes) {
    // Rounded per protocol (line-of-traps wants its canonical 3m³(m+1)
    // populations) — AFTER the caller's cap filter, so a rounded size may
    // sit slightly below the nominal 10^4/10^5 grid point.
    const u64 n = preferred_population(protocol, raw_n);
    for (const SchedulerSpec& sched : menu(n)) {
      const std::string sched_name = sched.to_string();
      // Registry protocol + named init rather than an opaque factory
      // lambda: resolve_factory() builds the identical protocol, and the
      // point's provenance-manifest record stays replayable.
      TrialSpec spec;
      spec.label = label_prefix + sched_name;
      spec.protocol = protocol;
      spec.n = n;
      spec.init = gen_uniform_random();
      spec.max_interactions = 5 * n;
      spec.engine = EngineKind::kScheduled;
      spec.scheduler = sched;
      const TrialSet set =
          run_trials_ctx(ctx, spec, runner_options(ctx, trials));
      warn_if_invalid(set, spec.label);
      emit_bench_json(ctx, spec, n, 0, set);
      t.row()
          .cell(sched_name)
          .cell(n)
          .cell(set.stats.interactions.mean(), 0)
          .cell(set.stats.productive_steps.mean(), 0)
          .cell(set.trials_per_sec, 4)
          .cell(set.wall_seconds, 3);
    }
  }
  emit(ctx, t);
}

void emit_bench_json(const Context& ctx, const std::string& point, u64 n,
                     double param, const TrialSet& set) {
  ctx.bench_log.append_point(point, n, param, set);
}

void emit_bench_json(const Context& ctx, const TrialSpec& spec, u64 n,
                     double param, const TrialSet& set) {
  ctx.bench_log.append_point(spec.label, n, param, set, &spec);
}

void warn_if_invalid(const TrialSet& set, const std::string& label) {
  if (set.stats.invalid != 0) {
    std::fprintf(stderr, "WARNING: %llu invalid outcomes at %s\n",
                 static_cast<unsigned long long>(set.stats.invalid),
                 label.c_str());
  }
}

SweepPoint run_point(const Context& ctx, const std::string& label, u64 n,
                     double param, const ProtocolFactory& factory,
                     const ConfigGenerator& gen, u64 trials,
                     u64 max_interactions) {
  const TrialSpec spec = make_spec(label, n, factory, gen, max_interactions);
  const TrialSet set = run_trials_ctx(ctx, spec, runner_options(ctx, trials));
  SweepPoint p;
  p.n = n;
  p.param = param;
  p.time = set.summary();
  p.timeouts = set.stats.timeouts;
  p.wall_seconds = set.wall_seconds;
  p.trials_per_sec = set.trials_per_sec;
  p.threads = set.threads;
  warn_if_invalid(set, label);
  emit_bench_json(ctx, spec, n, param, set);
  return p;
}

void add_row(Table& table, const SweepPoint& p, bool with_param) {
  auto row = table.row();
  row.cell(p.n);
  if (with_param) row.cell(p.param, 6);
  row.cell(p.time.mean, 5)
      .cell(p.time.ci95_halfwidth(), 3)
      .cell(p.time.median, 5)
      .cell(p.time.q95, 5)
      .cell(p.timeouts);
}

PowerFit report_fit(const std::vector<SweepPoint>& points,
                    const std::string& series_name,
                    const std::string& expectation) {
  std::vector<double> x, y;
  for (const auto& p : points) {
    x.push_back(static_cast<double>(p.n));
    y.push_back(p.time.mean);
  }
  const PowerFit f = fit_power(x, y);
  std::printf("fit  [%s]: %s\n", series_name.c_str(), f.to_string().c_str());
  std::printf("paper[%s]: %s\n\n", series_name.c_str(), expectation.c_str());
  return f;
}

void emit(const Context& ctx, Table& table) { table.print(ctx.csv_dir); }

}  // namespace pp::bench
