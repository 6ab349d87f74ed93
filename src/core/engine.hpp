// Simulation engines for the uniform random scheduler.
//
// Parallel time (the paper's complexity measure) is the number of scheduler
// interactions divided by n.  Near stabilisation almost all interactions
// are null (the two sampled agents have no applicable rule), which makes a
// naive simulation of a Θ(n^2)-parallel-time protocol cost Θ(n^3) work.
//
// AcceleratedEngine removes that overhead *exactly*: if W of the n(n-1)
// ordered pairs are productive, the index of the next productive
// interaction is geometrically distributed with success probability
// p = W / (n(n-1)), and conditioned on being productive the pair is uniform
// among the W productive ones.  Both quantities are exactly what the
// protocols expose (productive_weight / step_productive), so the engine
// samples the gap length in closed form and replays only productive
// interactions.  The resulting trajectory has the same distribution as the
// naive simulation — tests/test_engine.cpp validates this against
// UniformEngine statistically.
//
// UniformEngine simulates every interaction; it is the reference
// implementation used in tests and small demos.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/random.hpp"

namespace pp {

class Scheduler;  // src/schedulers/scheduler.hpp

struct RunOptions {
  /// Hard budget on scheduler interactions (null ones included); the run
  /// reports silent = false if the budget is exhausted first.
  u64 max_interactions = ~static_cast<u64>(0);

  /// Optional observer invoked after every configuration change with the
  /// number of interactions elapsed so far; return false to abort the run.
  std::function<bool(const Protocol&, u64)> on_change;

  /// Which interaction model drives the run.  nullptr (the default) selects
  /// the accelerated uniform engine; anything else is a non-owning pointer
  /// into src/schedulers/ (run(p, rng, opt) dispatches to it).  Schedulers
  /// are immutable — all per-run state lives inside their run() — so a
  /// const pointer is enough and one instance can serve many threads.
  const Scheduler* scheduler = nullptr;
};

struct RunResult {
  u64 interactions = 0;      ///< scheduler steps, null interactions included
  u64 productive_steps = 0;  ///< configuration changes driven by δ
  u64 fault_events = 0;      ///< environmental faults injected: churn fault
                             ///< events and partition split/heal transitions
                             ///< (0 under the non-hostile models)
  bool silent = false;       ///< reached a silent configuration
  bool valid = false;        ///< final configuration is a valid ranking
  bool aborted = false;      ///< observer requested an early stop
  double parallel_time = 0;  ///< interactions / n
};

/// Exact accelerated simulation (geometric null-skipping).
RunResult run_accelerated(Protocol& p, Rng& rng, const RunOptions& opt = {});

/// Faithful one-interaction-at-a-time simulation.
RunResult run_uniform(Protocol& p, Rng& rng, const RunOptions& opt = {});

/// Runs `p` under opt.scheduler when set, else under the accelerated
/// uniform engine — the single entry point callers should prefer now that
/// the interaction model is pluggable.
RunResult run(Protocol& p, Rng& rng, const RunOptions& opt = {});

/// The exact-acceleration kernel shared by every null-skipping loop
/// (run_accelerated, graph-restricted, weighted, dynamic, the churn
/// storm): samples the geometric run of null steps preceding the next
/// eventful one (per-step event probability `prob`) and advances
/// `interactions` past it, including the eventful step itself.  Returns
/// false — with interactions clamped to `budget` — when the gap overruns
/// the budget, treating Rng::kGeometricInfinity (the sampler's saturation
/// sentinel for astronomically small `prob`) as an overrun of any budget.
/// It records the gap (null_skips, null_skip_gap) but not the event: an
/// eventful step may be a fault or an edge flip rather than a productive
/// step, so the caller reports what fired.
bool advance_past_nulls(Rng& rng, double prob, u64 budget, u64& interactions);

/// Observability for one productive step that fired at `interactions`:
/// the productive_steps counter and the flagged trial's step-trace event.
/// Every engine and scheduler calls it right after a step fires, so the
/// per-trial counter equals RunResult::productive_steps.
inline void note_productive_step([[maybe_unused]] u64 interactions) {
  PP_OBS_INC(kProductiveSteps);
  PP_OBS_TRACE_STEP(interactions);
}

}  // namespace pp
