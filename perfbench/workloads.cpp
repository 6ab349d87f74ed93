#include "workloads.hpp"

#include "protocols/factory.hpp"

namespace pp::perfbench {
namespace {

Point accelerated(const std::string& protocol, u64 n, u64 trials,
                  u64 budget = ~static_cast<u64>(0)) {
  Point p;
  p.name = protocol + "@" + std::to_string(n);
  p.spec.protocol = protocol;
  p.spec.n = n;
  p.spec.engine = EngineKind::kAccelerated;
  p.spec.max_interactions = budget;
  p.trials = trials;
  return p;
}

// The paper's headline experiment: every protocol from a uniform-random
// start to silence, no budget, at n ~ 1024.
std::vector<Point> small_points() {
  std::vector<Point> pts;
  for (const std::string_view name : protocol_names()) {
    const std::string proto(name);
    pts.push_back(accelerated(proto, preferred_population(proto, 1024), 64));
  }
  return pts;
}

Workload stabilise_small() {
  Workload w;
  w.name = "stabilise-small";
  w.points = small_points();
  w.expect_silent = true;
  w.replay_per_point = 16;
  return w;
}

Workload large_n() {
  Workload w;
  w.name = "large-n";
  const u64 n6 = preferred_population("ring-of-traps", 1000000);
  const u64 n7 = preferred_population("ring-of-traps", 10000000);
  // Event-heavy: ~56 MB of core arrays per trial, past L2; every trial
  // stops at the budget, long before silence.
  w.points.push_back(accelerated("ring-of-traps", n6, 4, 4000000 * n6));
  // Parallel-time budget 5: set-up (factory, init, reset) over ~0.56 GB
  // per trial, past L3.
  w.points.push_back(accelerated("ring-of-traps", n7, 4, 5 * n7));
  w.replay_per_point = 1;
  return w;
}

Workload hostile() {
  Workload w;
  w.name = "hostile";
  SchedulerSpec churn;
  churn.kind = SchedulerKind::kChurn;
  churn.churn_rate = 0.02;
  churn.churn_reset = ChurnReset::kUniformState;
  SchedulerSpec weighted;
  weighted.kind = SchedulerKind::kWeighted;
  weighted.kernel = WeightKernel::kTrapDecay;
  for (const SchedulerSpec& sched : {churn, weighted}) {
    for (const std::string proto : {"ring-of-traps", "line-of-traps"}) {
      const u64 n = preferred_population(proto, 100000);
      Point p = accelerated(proto, n, 4, 50 * n);
      p.name = sched.to_string() + "/" + p.name;
      p.spec.engine = EngineKind::kScheduled;
      p.spec.scheduler = sched;
      w.points.push_back(std::move(p));
    }
  }
  w.replay_per_point = 1;
  return w;
}

Workload cached_sweep() {
  Workload w;
  w.name = "cached-sweep";
  w.points = small_points();
  w.cached = true;
  w.expect_silent = true;
  w.replay_per_point = 16;
  return w;
}

}  // namespace

std::vector<std::string_view> workload_names() {
  return {"stabilise-small", "large-n", "hostile", "cached-sweep"};
}

std::optional<Workload> make_workload(std::string_view name) {
  if (name == "stabilise-small") return stabilise_small();
  if (name == "large-n") return large_n();
  if (name == "hostile") return hostile();
  if (name == "cached-sweep") return cached_sweep();
  return std::nullopt;
}

}  // namespace pp::perfbench
