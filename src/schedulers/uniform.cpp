#include "schedulers/uniform.hpp"

namespace pp {
namespace {

// The engines never read opt.scheduler, but clearing it keeps the
// delegated RunOptions literally equal to what a pre-refactor caller
// passed — the bit-identical-trajectory guarantee has no asterisks.
RunOptions strip_scheduler(const RunOptions& opt) {
  RunOptions engine_opt = opt;
  engine_opt.scheduler = nullptr;
  return engine_opt;
}

}  // namespace

RunResult UniformScheduler::run(Protocol& p, Rng& rng,
                                const RunOptions& opt) const {
  return run_uniform(p, rng, strip_scheduler(opt));
}

RunResult AcceleratedUniformScheduler::run(Protocol& p, Rng& rng,
                                           const RunOptions& opt) const {
  return run_accelerated(p, rng, strip_scheduler(opt));
}

}  // namespace pp
