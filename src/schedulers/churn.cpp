#include "schedulers/churn.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "core/configuration.hpp"
#include "obs/counters.hpp"

namespace pp {
namespace {

// Where one teleported agent lands; shared by both fault paths so their
// RNG consumption can never drift apart.
StateId sample_reset(const Protocol& p, Rng& rng, ChurnReset reset) {
  switch (reset) {
    case ChurnReset::kUniformState:
      return static_cast<StateId>(rng.below(p.num_states()));
    case ChurnReset::kUniformRank:
      return static_cast<StateId>(rng.below(p.num_ranks()));
    case ChurnReset::kStateZero:
      return 0;
  }
  return 0;
}

// Applies one fault event — `faults` uniformly random agents teleported to
// reset states — through the protocol's O(log n) mutation API.  Agents are
// anonymous, so "a uniform agent" is a state sampled with probability
// proportional to its count.  `sources`/`sinks` are O(faults) scratch:
// the states the burst took agents from and put them in.  The burst
// net-changed the configuration iff the two differ as multisets, which
// sorting both decides in O(faults log faults), never O(states).  Returns
// whether it did.
bool move_burst(Protocol& p, Rng& rng, u64 faults, ChurnReset reset,
                std::vector<StateId>& sources, std::vector<StateId>& sinks) {
  const u64 n = p.num_agents();
  for (u64 f = 0; f < faults; ++f) {
    const StateId victim = p.uniform_agent_state(rng.below(n));
    const StateId target = sample_reset(p, rng, reset);
    if (victim == target) continue;
    p.move_agent(victim, target);
    PP_OBS_ADD(kFaultStateTouches, 2);
    sources.push_back(victim);
    sinks.push_back(target);
  }
  std::sort(sources.begin(), sources.end());
  std::sort(sinks.begin(), sinks.end());
  const bool changed = sources != sinks;
  sources.clear();
  sinks.clear();
  // Mirror the reference path: on_reset() fires only when the burst
  // net-changed the configuration.
  if (changed) p.commit_moves();
  return changed;
}

// The transparent reference for one fault event: mutate a copy of the
// configuration, rebuild everything.  O(n) per event.  Consumes the same
// draws as move_burst and samples each victim from the same intermediate
// distribution (move_burst applies each move immediately, which is exactly
// this scan of the mutated copy), so the two agree draw for draw.
bool rebuild_burst(Protocol& p, Rng& rng, u64 faults, ChurnReset reset) {
  const u64 n = p.num_agents();
  Configuration c = p.configuration();
  for (u64 f = 0; f < faults; ++f) {
    u64 t = rng.below(n);
    StateId victim = 0;
    while (t >= c.counts[victim]) {
      t -= c.counts[victim];
      ++victim;
    }
    const StateId target = sample_reset(p, rng, reset);
    --c.counts[victim];
    ++c.counts[target];
  }
  const bool changed = c.counts != p.counts();
  if (changed) p.reset(std::move(c));
  return changed;
}

// A fault is environmental, never a productive step of the protocol.
void note_fault(RunResult& r, u64 faults) {
  ++r.fault_events;
  PP_OBS_INC(kFaultEvents);
  PP_OBS_ADD(kFaultAgentMoves, faults);
  PP_OBS_SKETCH(kFaultBurst, faults);
}

}  // namespace

ChurnScheduler::ChurnScheduler(double rate, u64 faults, u64 active,
                               ChurnReset reset, bool rebuild_reference)
    : rate_(rate),
      faults_(faults),
      active_(active),
      reset_(reset),
      rebuild_reference_(rebuild_reference) {
  PP_ASSERT_MSG(rate >= 0.0 && rate <= 1.0, "churn rate must be in [0, 1]");
  PP_ASSERT_MSG(faults >= 1, "a churn event must teleport at least 1 agent");
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kChurn;
  spec.churn_rate = rate;
  spec.churn_faults = faults;
  spec.churn_active = active;
  spec.churn_reset = reset;
  spec.dense_reference = rebuild_reference;
  name_ = spec.to_string();
}

RunResult ChurnScheduler::run(Protocol& p, Rng& rng,
                              const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "churn scheduler needs n >= 2 (no pairs otherwise)");
  const u64 storm_ticks = active_ != 0 ? active_ : 50 * n;
  const u64 storm_end = std::min(storm_ticks, opt.max_interactions);

  RunResult r = rebuild_reference_ ? tick_storm(p, rng, opt, storm_end)
                                   : event_storm(p, rng, opt, storm_end);

  // The storm is over: run clean to silence on the remaining budget, with
  // exact null-skipping.
  detail::run_clean_tail(p, rng, opt, r);
  return detail::finish_run(
      p, r, static_cast<double>(r.interactions) / static_cast<double>(n));
}

RunResult ChurnScheduler::event_storm(Protocol& p, Rng& rng,
                                      const RunOptions& opt,
                                      u64 storm_end) const {
  const u64 n = p.num_agents();
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  std::vector<StateId> sources;
  std::vector<StateId> sinks;
  sources.reserve(faults_);
  sinks.reserve(faults_);

  RunResult r;
  while (r.interactions < storm_end) {
    // A tick is a fault with probability rate_ and otherwise a uniform
    // meeting, productive with probability q; everything else is null.
    // The gap to the next eventful tick is Geometric(e), capped at the
    // storm's end (exact: the gap is memoryless).  e == 0 (rate 0 on a
    // silent configuration) jumps straight to storm_end without a draw.
    const double q = static_cast<double>(p.productive_weight()) / pairs;
    const double e = rate_ + (1.0 - rate_) * q;
    if (!advance_past_nulls(rng, e, storm_end, r.interactions)) break;
    bool changed = true;
    // bernoulli draws nothing at 0 or 1, so rate 1 spends exactly the
    // reference's draws and rate 0 exactly run_accelerated's.
    if (rng.bernoulli(rate_ / e)) {
      changed = move_burst(p, rng, faults_, reset_, sources, sinks);
      note_fault(r, faults_);
    } else {
      p.step_productive(rng);
      ++r.productive_steps;
      note_productive_step(r.interactions);
    }
    if (changed && opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return r;
}

RunResult ChurnScheduler::tick_storm(Protocol& p, Rng& rng,
                                     const RunOptions& opt,
                                     u64 storm_end) const {
  RunResult r;
  while (r.interactions < storm_end) {
    ++r.interactions;
    bool changed;
    if (rng.bernoulli(rate_)) {
      changed = rebuild_burst(p, rng, faults_, reset_);
      note_fault(r, faults_);
    } else {
      changed = p.step_uniform(rng);
      if (changed) {
        ++r.productive_steps;
        note_productive_step(r.interactions);
      }
    }
    if (changed && opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return r;
}

}  // namespace pp
