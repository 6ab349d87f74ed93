// The paper's uniform random scheduler behind the Scheduler interface.
//
// Both classes delegate verbatim to the engines in src/core, so a run
// through the interface consumes the generator identically to a direct
// run_uniform()/run_accelerated() call — trajectories are bit-identical
// seed-for-seed, which tests/test_scheduler.cpp pins with hard-coded
// regression values.
#pragma once

#include <string_view>

#include "schedulers/scheduler.hpp"

namespace pp {

class UniformScheduler final : public Scheduler {
 public:
  std::string_view name() const override { return "uniform"; }
  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;
};

class AcceleratedUniformScheduler final : public Scheduler {
 public:
  std::string_view name() const override { return "accelerated-uniform"; }
  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;
};

}  // namespace pp
