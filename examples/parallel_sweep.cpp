// Demonstrates the parallel Monte-Carlo runner (src/runner/): a
// multi-protocol, multi-n sweep of stabilisation times from
// uniform-random starts, fanned out over a thread pool, with per-point
// aggregates printed as a table and optionally dumped as CSV/JSON-lines
// for plotting.
//
// The numbers are bit-identical for every --threads value (and identical
// to a serial run): trial t of a point labelled L draws its random stream
// from derive_seed(seed, L, t), never from the schedule.
//
//   ./parallel_sweep [--threads=T] [--trials=N] [--seed=S]
//                    [--csv=sweep.csv] [--jsonl=sweep.jsonl]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "runner/sink.hpp"

using namespace pp;

int main(int argc, char** argv) {
  RunnerOptions opt;
  opt.trials = 20;
  opt.threads = 0;  // all cores
  std::string csv_path, jsonl_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--threads=", 10) == 0) {
      opt.threads = std::strtoull(a + 10, nullptr, 10);
    } else if (std::strncmp(a, "--trials=", 9) == 0) {
      opt.trials = std::strtoull(a + 9, nullptr, 10);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opt.master_seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--csv=", 6) == 0) {
      csv_path = a + 6;
    } else if (std::strncmp(a, "--jsonl=", 8) == 0) {
      jsonl_path = a + 8;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads=T] [--trials=N] [--seed=S] "
                   "[--csv=F] [--jsonl=F]\n",
                   argv[0]);
      return 2;
    }
  }

  // One pool for the whole sweep; each point fans its trials out over it.
  ThreadPool pool(opt.threads);
  std::unique_ptr<CsvSink> csv;
  if (!csv_path.empty()) csv = std::make_unique<CsvSink>(csv_path);
  std::unique_ptr<JsonlSink> jsonl;
  if (!jsonl_path.empty()) jsonl = std::make_unique<JsonlSink>(jsonl_path);

  std::printf("parallel sweep: %llu trials/point, %llu threads, seed %llu\n",
              static_cast<unsigned long long>(opt.trials),
              static_cast<unsigned long long>(pool.size()),
              static_cast<unsigned long long>(opt.master_seed));

  Table t("Stabilisation from uniform-random starts (parallel time)");
  t.headers({"protocol", "n", "mean", "median", "q95", "trials/s"});
  for (const auto name : protocol_names()) {
    u64 last_n = 0;  // line-of-traps snaps several hints to one size
    for (const u64 n_hint : {64u, 128u, 256u}) {
      const u64 n = preferred_population(name, n_hint);
      if (n == last_n) continue;
      last_n = n;
      TrialSpec spec;
      spec.protocol = std::string(name);
      spec.n = n;
      spec.label = "sweep-" + std::string(name) + "-" + std::to_string(n);
      const TrialSet set = run_trials(spec, opt, pool);
      if (csv) csv->write_trials(spec, set);
      if (jsonl) jsonl->write_aggregate(spec, set);
      const Summary sum = set.summary();
      t.row()
          .cell(std::string(name))
          .cell(n)
          .cell(sum.mean, 5)
          .cell(sum.median, 5)
          .cell(sum.q95, 5)
          .cell(set.trials_per_sec, 4);
    }
  }
  t.print();
  std::printf(
      "\nRe-run with a different --threads value: every number above stays "
      "identical.\n");
  return 0;
}
