// The Protocol interface: a self-stabilising ranking population protocol
// ready for simulation under the uniform random scheduler.
//
// Design.  The paper observes (§2) that in a state-optimal ranking protocol
// the *only* permitted rules are of the form (s,s) -> (s',s'') on rank
// states — any other rule would keep firing in the final configuration and
// break silence.  All four protocols in this library therefore share the
// same backbone:
//
//   * one same-state rule per rank state, transition(s, s), with a sum
//     tree of "productive weights" c_s(c_s - 1) (the number of ordered
//     pairs of distinct agents both in s) used to sample the next
//     productive interaction in O(log n); and
//   * optional protocol-specific *extra categories* covering interactions
//     that involve extra states (the line protocol's X, the tree protocol's
//     red/green buffer), exposed through three virtual hooks.
//
// Memory.  A protocol splits into two halves:
//   * immutable geometry — the ring/line layout or balanced tree that
//     transition() reads — built once by the constructor and held through
//     shared_ptr<const ...>, so every instance fresh() makes shares it.
//     There is no rule table: a rank rule is arithmetic on the geometry
//     (a ring layout is a handful of words; ag has none); and
//   * per-instance state, loaded by reset(): the count tree (ds/fenwick.hpp:
//     the counts as leaves plus internal levels, ~9.1 B per state) and the
//     rank tree (a PairWeightTree reading c_s from the count tree's leaves:
//     internal levels only, ~1.1 B per rank state).  The count vector
//     (from initial::, adopted by reset()) and any internal levels of
//     2 MiB or more are backed by transparent huge pages
//     (common/huge_pages.hpp), so a random state costs one TLB entry per
//     2 MiB instead of per 4 KiB.
// The runner builds one protocol per trial set and one fresh() instance per
// trial, so concurrent trials hold ~10.3 B per state each plus one shared
// copy of the geometry.
//
// Mutation.  After reset(), move_agent() is the only writer of the trees:
// a rank rule is at most two moves (none for an output equal to s, so the
// ring's inner rule and ag move one agent), apply_pair() at most two, and
// the extra-state hooks and the churn fault path are moves as well.
//
// The two engines drive this interface in different ways:
//   * AcceleratedEngine calls productive_weight() / step_productive() and
//     skips null interactions in closed form (exact in distribution);
//   * UniformEngine calls step_uniform(), faithfully simulating every
//     single interaction — it exists to validate the accelerated path.
//
// Invariant maintained throughout: productive_weight() counts *exactly* the
// ordered agent pairs whose interaction would change the configuration, so
// productive_weight() == 0  <=>  the configuration is silent.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/configuration.hpp"
#include "ds/fenwick.hpp"
#include "rng/random.hpp"

namespace pp {

class Protocol {
 public:
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Human-readable protocol name (e.g. "ring-of-traps").
  virtual std::string_view name() const = 0;

  /// A new instance of the same protocol, sharing this one's immutable
  /// geometry (layout, tree) and holding no configuration: call reset()
  /// before use.  Safe to call from several threads at once.
  virtual std::unique_ptr<Protocol> fresh() const = 0;

  /// Population size n; equals the number of rank states for ranking
  /// protocols (auxiliary sub-protocols such as the single-line model of
  /// §4.1 may differ).
  u64 num_agents() const { return n_agents_; }
  u64 num_ranks() const { return n_ranks_; }
  u64 num_states() const { return n_states_; }
  u64 num_extra_states() const { return n_states_ - n_ranks_; }

  /// Loads a starting configuration (any arrangement of num_agents() agents
  /// over num_states() states — this is a *self-stabilising* protocol).
  /// Must precede every call that reads or changes the configuration: a
  /// constructed protocol holds no configuration (and no trees) yet.
  /// The configuration is taken by value and its count vector becomes the
  /// count tree's leaves, so pass an rvalue to skip the copy.
  void reset(Configuration c);

  /// Current configuration as per-state counts (the leaves of the count
  /// tree; no separate copy is kept).
  const std::vector<u64>& counts() const { return count_all_.weights(); }
  Configuration configuration() const { return Configuration(counts()); }

  /// Number of ordered agent pairs whose interaction changes the
  /// configuration.
  u64 productive_weight() const {
    return rank_weight_.total() + extra_weight();
  }

  /// Applies one productive interaction sampled uniformly among all
  /// productive ordered pairs.  Precondition: productive_weight() > 0.
  void step_productive(Rng& rng);

  /// Simulates one interaction of the uniform scheduler (an ordered pair of
  /// distinct agents chosen uniformly).  Returns true iff the configuration
  /// changed.
  ///
  /// Both agents are drawn as positions in the canonical count order
  /// (state 0's agents first, extra states last) and resolved against the
  /// count tree as it stands.  A null tick between two rank agents costs
  /// two draws and a few compares, with no tree walk: the tick is null when
  /// both positions lie among the rank agents and are at least
  /// count_bound_ apart, since no rank state's agent range is that long.
  /// Any other tick costs one descent, plus a second only when an
  /// extra-state agent meets an agent in another state.
  bool step_uniform(Rng& rng);

  /// Applies δ to one *specific* ordered pair of agents currently in states
  /// (initiator, responder) and returns their new states — unchanged inputs
  /// mean a null interaction.  This is how the agent-level schedulers
  /// (src/schedulers/: random matching, graph-restricted) drive the
  /// protocol: they decide who meets, the protocol's transition function
  /// decides what happens, and all count/Fenwick bookkeeping stays
  /// consistent.  Precondition: both states are occupied (two distinct
  /// agents, so count(s) >= 2 when initiator == responder).
  std::pair<StateId, StateId> apply_pair(StateId initiator, StateId responder);

  /// Silent <=> no interaction can change the configuration.
  bool is_silent() const { return productive_weight() == 0; }

  /// True iff every rank is held by exactly one agent (the final
  /// configuration).  For every protocol in this library this is equivalent
  /// to is_silent(); tests assert the equivalence rather than assuming it.
  bool is_valid_ranking() const;

  /// Capability declaration for the hierarchical pair samplers
  /// (schedulers/pair_sampler.hpp): which whole *classes* of ordered pairs
  /// involving extra-state agents are productive, independent of counts.
  /// Under this library's protocol backbone every same-state rank pair is
  /// productive and every distinct-rank pair is null; the extra-state
  /// protocols additionally make entire orientation classes productive —
  /// e.g. line-of-traps routes *every* agent meeting an X responder, and
  /// tree-ranking fires on *every* pair whose initiator is a buffer agent.
  /// When a class flag is set, EVERY ordered pair in that class must be
  /// productive; when clear, every such pair must be null.  This is a
  /// promise: GroupedKernelSampler cross-checks it against transition() at
  /// construction on a bounded probe set, so a wrong declaration fails
  /// fast instead of skewing the sampling distribution.
  struct ExtraPairClasses {
    bool extra_extra = false;  ///< every ordered (extra, extra) pair
    bool extra_rank = false;   ///< every ordered (extra, rank) pair
    bool rank_extra = false;   ///< every ordered (rank, extra) pair
  };
  /// Default: no extra pair is ever productive (exactly right for
  /// protocols without extra states, and for inert extras such as
  /// SingleLineProtocol's absorbing X).
  virtual ExtraPairClasses extra_pair_classes() const { return {}; }

  /// --- O(log n) mutation API -------------------------------------------
  /// move_agent() carries every configuration change after reset(): the
  /// rules and hooks inside the protocol, and fault models outside it.  A
  /// churn fault teleports k agents; rebuilding the protocol from a
  /// copied configuration costs O(n), these three calls cost O(k log n)
  /// total.  ChurnScheduler's event-driven storm uses them; its
  /// copy-and-rebuild reference survives behind
  /// SchedulerSpec::dense_reference, and tests pin the two fault paths
  /// bit-identical on fault-only storms.

  /// State of the `target`-th agent under the canonical count ordering
  /// (agents are anonymous: "a uniform agent" is a state sampled with
  /// probability proportional to its count).  `target` in [0, n).
  StateId uniform_agent_state(u64 target) const {
    PP_DCHECK(target < n_agents_);
    return static_cast<StateId>(count_all_.find(target));
  }

  /// Teleports one agent from state `from` (which must be occupied) to
  /// state `to`, keeping counts, both sum trees, extra_agents_ and
  /// step_uniform()'s count_bound_ consistent.  With reset(), the only
  /// writer of the trees: every rule, hook and fault is a sequence of
  /// moves, each one two-leaf update per tree (ds/fenwick.hpp).  The bound
  /// only rises here: a move that empties the fullest state leaves it
  /// stale, which costs step_uniform() speed (fewer constant-time
  /// rejections), never correctness; the next reset() makes it exact
  /// again.  Callers mutating in bulk must call commit_moves() afterwards.
  void move_agent(StateId from, StateId to);

  /// Ends a bulk-mutation burst: gives derived protocols the same
  /// cache-refresh hook a full reset() would (no library protocol caches
  /// anything today, but the contract keeps move_agent equivalent to
  /// reset(configuration-with-moves-applied) forever).
  void commit_moves() { on_reset(); }

  /// The formal transition function δ(initiator, responder) ->
  /// (initiator', responder') — the paper's rule set, written down
  /// directly.  Null interactions return the inputs unchanged.
  ///
  /// It is the only code for the same-state rank rules: step_productive()
  /// and step_uniform() fire one as transition(s, s), while the extra-state
  /// hooks below re-express the cross rules on counts.  The agent-level
  /// reference simulator (core/agent_simulator.hpp) runs on transition()
  /// alone, so consistency tests check the count/Fenwick machinery (the
  /// samplers, the bookkeeping, the extra-state hooks) against it
  /// pair-by-pair and trajectory-by-trajectory.  Every same-state rank pair
  /// must be productive: transition(s, s) != (s, s) for s < num_ranks().
  virtual std::pair<StateId, StateId> transition(StateId initiator,
                                                 StateId responder) const = 0;

  /// Debugging name of a state, e.g. "(a=3,b=0|gate)" or "X_4".
  virtual std::string describe_state(StateId s) const;

 protected:
  /// A ranking protocol has num_agents == num_ranks; auxiliary
  /// sub-protocols may simulate fewer/more agents than rank states.
  Protocol(u64 num_agents, u64 num_ranks, u64 num_extra);

  /// --- hooks for protocols with extra states ------------------------
  /// Number of productive ordered pairs not counted by the rank tree
  /// (i.e. pairs involving at least one extra-state agent).
  virtual u64 extra_weight() const { return 0; }
  /// Applies the extra productive interaction selected by
  /// `target` uniform in [0, extra_weight()).
  virtual void step_extra(u64 target, Rng& rng);
  /// Uniform-scheduler interaction for a pair that is not two rank agents
  /// in the same state.  Returns true iff the configuration changed.
  virtual bool apply_cross(StateId initiator, StateId responder);
  /// Called at the end of reset() so derived classes can refresh caches.
  virtual void on_reset() {}

  /// --- helpers for derived classes -----------------------------------
  /// Fires the same-state rule transition(s, s) of rank state s (two agents
  /// in s interact): at most two moves, none for an output equal to s.
  void apply_rank_rule(StateId s);
  u64 count(StateId s) const { return count_all_.get(s); }
  /// Total number of agents currently in rank states.
  u64 rank_agents() const { return count_all_.prefix(n_ranks_); }
  /// Samples a rank state with probability proportional to its count;
  /// `target` must be uniform in [0, rank_agents()).
  StateId sample_rank_by_count(u64 target) const {
    return static_cast<StateId>(count_all_.find(target));
  }

 private:
  u64 n_agents_;
  u64 n_ranks_;
  u64 n_states_;
  Fenwick count_all_;           // all states: c_s (the leaves are counts())
  PairWeightTree rank_weight_;  // rank states: c_s (c_s - 1), read from
                                // count_all_'s leaves
  // Invariant: count_bound_ >= count(s) for every rank state s.  reset()
  // sets it to the exact maximum, move_agent() only raises it.
  u64 count_bound_ = 0;
  u64 extra_agents_ = 0;  // agents in extra states
};

using ProtocolPtr = std::unique_ptr<Protocol>;
using ProtocolFactory = std::function<ProtocolPtr()>;

}  // namespace pp
