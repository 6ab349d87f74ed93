// The benchmark's four workloads, as plain trial specs.
//
// A workload is a list of measurement points; one *round* runs every point
// once through the parallel runner.  The timed phase repeats whole rounds,
// so every round does the same work however many rounds fit in the run.
// The specs do not depend on the seed: the benchmark's seed becomes the
// runner's master seed, from which every trial derives its own stream.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/runner.hpp"

namespace pp::perfbench {

struct Point {
  std::string name;  ///< stable within the workload, e.g. "ring-of-traps"
  TrialSpec spec;    ///< label left to the caller (set per round)
  u64 trials = 0;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// Send every round through the chunk cache (cold pass, then warm pass).
  bool cached = false;
  /// No interaction budget: every trial must end silent.
  bool expect_silent = false;
  /// Round-0 trials per point replayed by the correctness check (and, in
  /// the traced run, replayed again through the traced public calls).
  u64 replay_per_point = 1;
};

std::vector<std::string_view> workload_names();

/// The named workload, or nullopt for an unknown name.
std::optional<Workload> make_workload(std::string_view name);

}  // namespace pp::perfbench
