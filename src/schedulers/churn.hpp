// Churn: transient faults as a first-class interaction model.
//
// Self-stabilisation means "converges from every configuration once the
// faults stop".  This scheduler makes the fault process part of the
// schedule instead of an observer hack in the tests: for a bounded storm
// phase, every scheduler tick is either
//
//   * (probability 1 - rate) one uniform random pair interaction — the
//     paper's model, simulated faithfully; or
//   * (probability rate) a fault event that teleports `faults` agents
//     (chosen uniformly, with multiplicity) to states drawn from a
//     configurable reset distribution (ChurnReset) — the kill/respawn of
//     an agent whose memory is re-initialised arbitrarily.
//
// After `active` ticks the storm stops and the run continues *clean* under
// the accelerated uniform engine until silence or budget exhaustion, so a
// churn run ends exactly like the fault-storm tests always did: abuse, then
// prove recovery.  active = 0 resolves to 50 n at run time (a storm long
// enough to hit a stabilised population many times over).
//
// Accounting: RunResult::interactions counts ticks (fault events occupy a
// scheduler slot, null meetings included); productive_steps counts only
// δ-driven configuration changes; fault_events counts the injected faults
// (so tests can assert the storm actually corrupted the run);
// parallel_time = ticks / n.
//
// Storm cost.  The storm runs event by event, not tick by tick.  A tick
// is a fault with probability r (the rate), a productive meeting with
// probability (1 - r) q, where q = productive_weight() / (n (n - 1)), and
// null otherwise.  So the gap to the next eventful tick is Geometric(e)
// with e = r + (1 - r) q — the same construction the dynamic-graph
// scheduler's markov loop uses — and the storm jumps over it in closed
// form (advance_past_nulls), capped at the storm's end, which is exact
// because the gap is memoryless.  The event is a fault with probability
// r / e, otherwise one Protocol::step_productive().  A storm with F fault
// events of k agents and P productive steps therefore costs
// O(F · k log n + P) — P times the O(log n) of a productive step — not
// O(storm ticks): at n = 10^5 and r = 0.02 that is ~10^5 fault events in
// place of 5·10^6 ticks.  null_skips and null_skip_gap count the gaps
// between storm events like any other closed-form skip.
//
// Fault cost.  Each fault event applies its teleports through the
// Protocol's O(log n) mutation API (uniform_agent_state / move_agent /
// commit_moves) — O(k log n) for a k-agent burst, with O(k) scratch per
// run.  The original transparent implementation survives as the one
// reference, SchedulerSpec::dense_reference ("churn[.../dense-ref]"): a
// tick-by-tick storm (Protocol::step_uniform per meeting) whose faults
// copy the configuration, apply the burst to the copy and reset the
// protocol, O(n) per fault.  The two storms agree in distribution, not in
// bits; tests pin the two anchors where they agree draw for draw — at
// rate 1 every tick is a fault and both consume identical draws, at
// rate 0 the storm is exactly run_accelerated — and compare the two
// paths' fault counts, productive steps, storm-end weight and recovery
// time by two-sample tests in between.
#pragma once

#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"

namespace pp {

class ChurnScheduler final : public Scheduler {
 public:
  /// rate: per-tick fault probability in [0, 1]; faults: agents teleported
  /// per event (>= 1); active: storm length in ticks (0 = 50 n); reset:
  /// where teleported agents land; rebuild_reference: run the tick-by-tick
  /// storm with O(n) copy-and-rebuild faults instead of the event-driven
  /// storm with O(k log n) move_agent faults (same law — see the header
  /// comment).
  ChurnScheduler(double rate, u64 faults, u64 active, ChurnReset reset,
                 bool rebuild_reference = false);

  std::string_view name() const override { return name_; }

  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

 private:
  // The storm phase alone, up to tick storm_end; run() adds the clean tail.
  RunResult event_storm(Protocol& p, Rng& rng, const RunOptions& opt,
                        u64 storm_end) const;
  RunResult tick_storm(Protocol& p, Rng& rng, const RunOptions& opt,
                       u64 storm_end) const;

  double rate_;
  u64 faults_;
  u64 active_;
  ChurnReset reset_;
  bool rebuild_reference_;
  std::string name_;  // "churn[<rate>{x<faults>}/<reset>{/dense-ref}]"
};

}  // namespace pp
