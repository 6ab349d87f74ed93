// Initial-configuration generators.
//
// Self-stabilising protocols must converge from *every* configuration, so
// the test/bench harness exercises a menagerie of starting points:
//
//   * valid_ranking      — the final configuration itself (silence check);
//   * uniform_random     — every agent in an independently uniform state
//                          (over all states, or rank states only);
//   * k_distant          — a valid ranking damaged so that exactly k rank
//                          states are unoccupied (paper §1/§3);
//   * all_in_state       — the fully-degenerate single-state start;
//   * perturbed          — an arbitrary configuration with f agents moved
//                          to random states (fault injection).
//
// All generators are deterministic functions of the supplied Rng.
#pragma once

#include "core/configuration.hpp"
#include "core/protocol.hpp"
#include "rng/random.hpp"

namespace pp::initial {

/// The unique final configuration: one agent per rank state.
Configuration valid_ranking(u64 num_ranks, u64 num_states);

/// Each of `num_agents` agents picks a state uniformly from
/// [0, num_states).  The draws are exactly those of a per-agent loop
/// `++counts[rng.below(num_states)]`, in the same order, so the counts and
/// the Rng's next state match it; the increments are merely batched.
Configuration uniform_random(u64 num_agents, u64 num_states, Rng& rng);

/// Each agent picks a state uniformly from the first `num_ranks` states
/// of a `num_states`-state space (rank states only).  Same draws, in the
/// same order, as the loop `++counts[rng.below(num_ranks)]`.
Configuration uniform_random_ranks(u64 num_agents, u64 num_ranks,
                                   u64 num_states, Rng& rng);

/// A configuration at k-distance from final: exactly k rank states
/// unoccupied, no agents in extra states.  Built by vacating k random ranks
/// of a valid ranking and re-homing the displaced agents on random occupied
/// ranks.  Requires k < num_ranks.
Configuration k_distant(u64 num_ranks, u64 num_states, u64 k, Rng& rng);

/// All agents piled into state s.
Configuration all_in_state(u64 num_agents, u64 num_states, StateId s);

/// Moves `faults` agents (chosen uniformly, with multiplicity) to uniformly
/// random states.  Models transient memory corruption hitting a running or
/// stabilised population.
Configuration perturbed(Configuration base, u64 faults, Rng& rng);

/// --- convenience overloads bound to a protocol's dimensions -------------
Configuration valid_ranking(const Protocol& p);
Configuration uniform_random(const Protocol& p, Rng& rng);
Configuration uniform_random_ranks(const Protocol& p, Rng& rng);
Configuration k_distant(const Protocol& p, u64 k, Rng& rng);
Configuration all_in_state(const Protocol& p, StateId s);

}  // namespace pp::initial
