#include "core/engine.hpp"

#include "common/assert.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pp {
namespace {

// Common exit path of both engines; also enforces the RunResult contract
// that observers and the parallel runner rely on: interactions never
// undercounts productive_steps, and `silent` stays defined as
// productive_weight()==0 on the protocol object itself.  The second assert
// is a tripwire against future drift (e.g. silent becoming a cached flag
// that can go stale); an *independent* recount of silence from the formal
// transition function lives in tests/test_engine.cpp, not on the hot path.
RunResult finish(const Protocol& p, RunResult r) {
  r.silent = p.is_silent();
  r.valid = p.is_valid_ranking();
  r.parallel_time =
      static_cast<double>(r.interactions) / static_cast<double>(p.num_agents());
  PP_ASSERT_MSG(r.interactions >= r.productive_steps,
                "engine contract: interactions >= productive_steps");
  PP_ASSERT_MSG(!r.silent || p.productive_weight() == 0,
                "engine contract: silent implies productive_weight()==0");
  return r;
}

}  // namespace

bool advance_past_nulls(Rng& rng, double prob, u64 budget,
                        u64& interactions) {
  const u64 skip = rng.geometric_failures(prob);
  // For astronomically small `prob` the sampled gap can exceed u64 range
  // (geometric_failures saturates at kGeometricInfinity).  Any such gap
  // necessarily overruns the interaction budget, so clamp to it instead
  // of treating the sentinel as an ordinary gap length.
  if (skip == Rng::kGeometricInfinity || skip >= budget - interactions) {
    interactions = budget;
    return false;
  }
  interactions += skip + 1;
  PP_OBS_ADD(kNullSkips, skip);
  PP_OBS_SKETCH(kNullSkipGap, skip);
  return true;
}

RunResult run_accelerated(Protocol& p, Rng& rng, const RunOptions& opt) {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "run_accelerated needs n >= 2 (no pairs otherwise)");
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  RunResult r;
  while (true) {
    const u64 w = p.productive_weight();
    if (w == 0) break;
    const double prob = static_cast<double>(w) / pairs;
    if (!advance_past_nulls(rng, prob, opt.max_interactions,
                            r.interactions)) {
      return finish(p, r);
    }
    p.step_productive(rng);
    ++r.productive_steps;
    note_productive_step(r.interactions);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      return finish(p, r);
    }
  }
  return finish(p, r);
}

RunResult run_uniform(Protocol& p, Rng& rng, const RunOptions& opt) {
  PP_ASSERT_MSG(p.num_agents() >= 2,
                "run_uniform needs n >= 2 (no pairs otherwise)");
  RunResult r;
  while (p.productive_weight() != 0) {
    if (r.interactions >= opt.max_interactions) return finish(p, r);
    ++r.interactions;
    if (p.step_uniform(rng)) {
      ++r.productive_steps;
      note_productive_step(r.interactions);
      if (opt.on_change && !opt.on_change(p, r.interactions)) {
        r.aborted = true;
        return finish(p, r);
      }
    }
  }
  return finish(p, r);
}

// pp::run(p, rng, opt) — the scheduler-dispatching entry point declared
// above — is defined in schedulers/scheduler.cpp: it needs the Scheduler
// vtable, and keeping that out of this file keeps src/core compilable
// without src/schedulers.

}  // namespace pp
