// The pluggable scheduler subsystem: "which ordered pair interacts next?"
//
// The paper states its complexity claims for the uniform random scheduler
// — every interaction is an ordered pair of distinct agents drawn uniformly
// at random.  This module extracts that decision out of the engines behind
// a Scheduler interface so the same protocols can be exercised under other
// classic interaction models:
//
//   uniform              one uniformly random ordered pair per step — the
//                        paper's model, simulated faithfully (the former
//                        run_uniform, delegated to verbatim so trajectories
//                        stay bit-identical seed-for-seed);
//   accelerated-uniform  the same distribution with exact geometric
//                        null-skipping (the former run_accelerated,
//                        delegated to verbatim);
//   random-matching      synchronous rounds: each round a uniformly random
//                        maximal matching of the agents fires at once
//                        (initiator/responder orientation a fair coin per
//                        matched pair; one unmatched agent idles when n is
//                        odd);
//   graph-restricted     agents are pinned to the vertices of a fixed
//                        interaction graph (structures/interaction_graph)
//                        by a uniformly random placement drawn at run
//                        start; each step fires a uniformly random
//                        *directed edge*.  An accelerated path intersects
//                        the protocol's productive weight with the edge set
//                        and skips null steps geometrically, exactly like
//                        the accelerated uniform engine;
//   weighted             each step proposes ordered pair (i, j) with
//                        probability proportional to an arbitrary weight
//                        kernel w(i, j) (schedulers/weighted.hpp): uniform
//                        weights recover the paper's model, the spatial
//                        ring/line-decay kernels open distance-decaying
//                        interaction models.  Built on the Fenwick-backed
//                        pair-sampler layer (schedulers/pair_sampler.hpp),
//                        which generalises the accelerated engine's exact
//                        null-skipping to any weight function;
//   dynamic              the interaction graph itself evolves mid-run
//                        (schedulers/dynamic_graph.hpp): edge-Markovian
//                        birth/death chains per potential edge, or
//                        periodic rewiring that re-embeds (and resamples)
//                        the topology every T steps.  Locally stuck is a
//                        passing phase here, not a verdict — the dynamics
//                        revive stranded runs, which is the model's point;
//   adversarial          a hostile-but-productive scheduler: every step
//                        fires some productive pair, chosen greedily by an
//                        AdversaryPolicy (schedulers/adversarial.hpp) —
//                        the worst-case counterpart of the random models;
//   churn                uniform random pairs interleaved with transient
//                        faults: for a bounded storm phase each tick is,
//                        with configurable probability, a fault event that
//                        teleports agents to states drawn from a reset
//                        distribution; after the storm the run continues
//                        clean to silence (self-stabilisation is exactly
//                        "converges once the faults stop");
//   partition            the population is split into non-interacting
//                        blocks on a schedule (meetings across blocks are
//                        dropped as null), alternating split and healed
//                        phases for a configured number of cycles, then
//                        runs healed to silence.
//
// Parallel-time accounting per scheduler (RunResult::parallel_time):
//   uniform / accelerated-uniform / graph-restricted / weighted /
//   dynamic:  interactions / n (for the dynamic models every step is one
//             meeting slot regardless of how many edges flipped that step)
//   random-matching:  the number of rounds (a round is one unit of
//                     parallel time; RunResult::interactions still counts
//                     individual pair meetings, nulls included, and the
//                     interaction budget is spent in that currency).
//   adversarial:      productive firings / n (there are no null steps — a
//                     lower bound on any scheduler's parallel time);
//   churn:            ticks / n, where a tick is one uniform interaction
//                     or one fault event (faults occupy a scheduler slot
//                     but never count as productive steps);
//   partition:        interactions / n, blocked cross-partition meetings
//                     included as null interactions.
//
// Termination.  Every scheduler stops at silence (productive_weight() == 0)
// or on budget/observer abort.  The graph-restricted scheduler additionally
// stops when no *edge* of its graph is productive while distant pairs still
// would be ("locally stuck") — the run then reports silent = false, which
// is exactly how non-stabilisation under a restricted topology shows up in
// the aggregates.  The dynamic-graph schedulers ride out locally stuck
// phases (the topology will change) and only stop early when the dynamics
// themselves are frozen.  The adversarial scheduler stops when no productive pair
// exists (true silence) or when the budget runs out (the adversary found an
// infinite productive schedule — reported as silent = false).
//
// Scheduler objects hold only immutable configuration (e.g. a shared
// topology); all per-run state lives inside run(), so one instance can be
// shared by every thread of the parallel runner.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/protocol.hpp"
#include "rng/random.hpp"
#include "structures/interaction_graph.hpp"

namespace pp {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable model name, e.g. "random-matching" or
  /// "graph-restricted[cycle]".
  virtual std::string_view name() const = 0;

  /// Runs `p` to silence, budget exhaustion, observer abort, or (for
  /// restricted topologies) a locally stuck configuration.
  /// opt.scheduler is ignored — dispatch already happened.
  virtual RunResult run(Protocol& p, Rng& rng,
                        const RunOptions& opt = {}) const = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

enum class SchedulerKind {
  kUniform,
  kAcceleratedUniform,
  kRandomMatching,
  kGraphRestricted,
  kWeighted,
  kDynamicGraph,
  kAdversarial,
  kChurn,
  kPartition,
};

const char* scheduler_kind_name(SchedulerKind k);

/// All kinds, default (accelerated uniform) first.
std::vector<SchedulerKind> scheduler_kinds();

/// The greedy adversary variants behind SchedulerKind::kAdversarial; the
/// implementations live in schedulers/adversarial.{hpp,cpp}.
enum class AdversaryPolicy {
  kRandomProductive,  ///< uniform among productive pairs (honest jump chain)
  kMaxLoad,           ///< fire inside the most-loaded state
  kMinRankCoverage,   ///< minimise the number of occupied rank states
  kStubborn,          ///< keep firing the same state pair while possible
};

const char* adversary_policy_name(AdversaryPolicy p);

/// All policies, honest baseline first.
std::vector<AdversaryPolicy> adversary_policies();

/// The pair-weight kernels behind SchedulerKind::kWeighted; the
/// implementation lives in schedulers/weighted.{hpp,cpp}.
enum class WeightKernel {
  kUniform,    ///< w = 1 for every ordered pair (the paper's model)
  kRingDecay,  ///< positions on a ring; w = floor(n / d)^power
  kLineDecay,  ///< positions on a line; w = floor(n / d)^power
  kTrapDecay,  ///< *state*-distance kernel: w = floor(T / d)^power over the
               ///< ring distance d between the traps of the two agents'
               ///< states in the structures/ring_layout geometry (T ≈
               ///< √states traps) — locality lives in the state space, so
               ///< pair weights move with the agents; no positional dense
               ///< reference exists (tests cross-validate by direct
               ///< enumeration over the count vector)
};

const char* weight_kernel_name(WeightKernel k);

/// The topology-evolution policies behind SchedulerKind::kDynamicGraph;
/// the implementation lives in schedulers/dynamic_graph.{hpp,cpp}.
enum class GraphDynamics {
  kEdgeMarkovian,   ///< per-step independent edge birth/death chains
  kPeriodicRewire,  ///< re-embed (and resample d-regular) every T steps
};

const char* graph_dynamics_name(GraphDynamics d);

/// Where a churn fault teleports an agent.
enum class ChurnReset {
  kUniformState,  ///< uniform over all states (generic memory corruption)
  kUniformRank,   ///< uniform over rank states only
  kStateZero,     ///< always state 0 (pile-up faults)
};

const char* churn_reset_name(ChurnReset r);

/// Everything needed to build a scheduler for a population of known size —
/// the runner's TrialSpec carries one of these (plain data, copyable across
/// threads).
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kAcceleratedUniform;

  /// kGraphRestricted and kDynamicGraph: topology family and its
  /// parameters (the initial topology for dynamic graphs).  The topology
  /// is derived from (graph, degree, graph_seed, n) alone — every trial of
  /// a sweep point interacts on (or starts from) the same graph.
  GraphKind graph = GraphKind::kComplete;
  u64 degree = 3;      ///< kRandomRegular only
  u64 graph_seed = 1;  ///< kRandomRegular only
  bool graph_accelerated = true;  ///< null-skipping fast path

  /// kWeighted only: pair-weight kernel and its decay sharpness
  /// (w = floor(n/d)^kernel_power for the spatial kernels; power must be
  /// in {1, 2, 3}).
  WeightKernel kernel = WeightKernel::kUniform;
  u64 kernel_power = 1;

  /// kWeighted, kDynamicGraph (edge-Markovian) and kChurn: route the
  /// model through its transparent reference implementation instead of
  /// the default scalable path — the dense Θ(n²) pair universe for
  /// weighted/dynamic (capped at n = 4096), the copy-configuration-and-
  /// rebuild fault path for churn (O(n) per fault instead of the
  /// move_agent fast path's O(k log n)).  These exist so the
  /// cross-validation tests (and any sceptical caller) can pin the
  /// scalable paths against the transparent ones.  Encoded as
  /// "/dense-ref" in the display name.  Not meaningful for
  /// kTrapDecay-kernel weighted runs (no positional reference exists).
  bool dense_reference = false;

  /// kDynamicGraph only: evolution policy and its knobs.  Edge-Markovian:
  /// per-step absent->present probability `edge_birth` (0 = auto-derived
  /// from edge_death to hold a stationary edge count of ~n, the sparsity
  /// of a cycle) and present->absent probability `edge_death`.  Periodic
  /// rewiring: epoch length in steps (0 = n, one epoch per unit of
  /// parallel time).
  GraphDynamics dynamics = GraphDynamics::kEdgeMarkovian;
  double edge_birth = 0;
  double edge_death = 0.01;
  u64 rewire_period = 0;

  /// kAdversarial only: which greedy policy picks the productive pair.
  AdversaryPolicy adversary = AdversaryPolicy::kRandomProductive;

  /// kChurn only: per-tick fault probability during the storm phase, how
  /// many agents each fault event teleports, the storm length in ticks
  /// (0 = 50 n, resolved per run), and the reset distribution.
  double churn_rate = 0.02;
  u64 churn_faults = 1;
  u64 churn_active = 0;
  ChurnReset churn_reset = ChurnReset::kUniformState;

  /// kPartition only: number of non-interacting blocks, phase lengths in
  /// interactions (0 = 20 n, resolved per run), and how many split/heal
  /// cycles run before the population is left healed.
  u64 partition_blocks = 2;
  u64 partition_split = 0;
  u64 partition_heal = 0;
  u64 partition_cycles = 3;

  /// Display name, e.g. "graph-restricted[random-3-regular]",
  /// "weighted[ring-decay]", "dynamic[cycle/markov]",
  /// "adversarial[max-load]", "churn[0.02/uniform-state]".
  std::string to_string() const;
};

/// Builds the scheduler described by `spec` for populations of size n.
SchedulerPtr make_scheduler(const SchedulerSpec& spec, u64 n);

/// The standard comparison menu (bench_scheduler_comparison and
/// examples/scheduler_tour share it): accelerated-uniform, uniform,
/// random-matching, weighted on the uniform, ring-decay and trap-decay
/// kernels, the hostile-environment models (churn, partition),
/// graph-restricted on complete, random-4-regular and cycle — complete
/// mixing first, sparsest last — and finally the headline contrast: the
/// same cycle under edge-Markovian and periodic-rewiring dynamics.  The
/// adversarial schedulers are excluded (O(states^2) per step makes them a
/// small-n tool; bench_adversarial covers them).
std::vector<SchedulerSpec> standard_scheduler_menu();

/// One spec per registered scheduler variant — the standard menu plus all
/// four adversaries, the remaining churn reset distributions and a second
/// partition block count.  This is the conformance suite's roster
/// (tests/test_scheduler_conformance.cpp): every entry must honour the
/// shared Scheduler contract on every protocol.
std::vector<SchedulerSpec> all_scheduler_specs();

namespace detail {

/// Shared exit path of the scheduler implementations: stamps silent/valid
/// from the protocol, installs the scheduler-specific parallel time and
/// enforces the engine result contract.
RunResult finish_run(const Protocol& p, RunResult r, double parallel_time);

/// Shared tail of the fault-model schedulers (churn, partition): once the
/// hostile phase is over, runs `p` clean to silence under the accelerated
/// uniform engine on the budget remaining in `opt`, with the observer
/// offset by the interactions already elapsed, and merges the counters
/// into `r`.  No-op if `r` is aborted or the budget is spent.
void run_clean_tail(Protocol& p, Rng& rng, const RunOptions& opt,
                    RunResult& r);

}  // namespace detail
}  // namespace pp
