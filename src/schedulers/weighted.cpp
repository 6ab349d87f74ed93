#include "schedulers/weighted.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace pp {
namespace {

// The dense reference path's mutable per-run state: agent states per
// position plus the sampler over the dense universe of ordered pairs
// (id = i * n + j; the n diagonal slots keep weight 0 forever).
struct DenseState {
  const Protocol& p;
  u64 n;
  std::vector<StateId> state;
  PairSampler pairs;

  DenseState(std::vector<u64> kernel_table, const Protocol& proto,
             std::vector<StateId> placement)
      : p(proto), n(placement.size()), state(std::move(placement)) {
    std::vector<u8> flags(n * n, 0);
    for (u64 i = 0; i < n; ++i) {
      for (u64 j = 0; j < n; ++j) {
        if (i == j) continue;
        flags[i * n + j] =
            pair_is_productive(p, state[i], state[j]) ? 1 : 0;
      }
    }
    pairs.reset(std::move(kernel_table), std::move(flags));
  }

  void refresh(u64 id) {
    pairs.set_productive(id,
                         pair_is_productive(p, state[id / n], state[id % n]));
  }

  /// Re-tests every ordered pair involving position v.
  void refresh_position(u64 v) {
    for (u64 x = 0; x < n; ++x) {
      if (x == v) continue;
      refresh(v * n + x);
      refresh(x * n + v);
    }
  }
};

}  // namespace

WeightedScheduler::WeightedScheduler(WeightKernel kernel, u64 power, u64 n,
                                     Path path)
    : kernel_(kernel), power_(power), n_(n), path_(path) {
  PP_ASSERT_MSG(power >= 1 && power <= 3,
                "weighted scheduler needs kernel power in {1, 2, 3}");
  if (kernel_ == WeightKernel::kTrapDecay) {
    // The state-distance kernel is agent-anonymous: there is no positional
    // DistanceKernel to pin (the sampler is built per run from the
    // protocol's state space) and no dense pair universe to fall back to.
    PP_ASSERT_MSG(path_ != Path::kDense,
                  "the trap-decay kernel has no positional dense reference "
                  "(weights live on states, not positions); tests "
                  "cross-validate it by direct enumeration instead");
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kWeighted;
    spec.kernel = kernel_;
    spec.kernel_power = power_;
    name_ = spec.to_string();
    return;
  }
  if (n_ != 0) {
    PP_ASSERT_MSG(n_ >= 2, "weighted scheduler needs n >= 2");
    // Pin the closed-form kernel for every trial of a sweep (O(n) memory;
    // also runs the 63-bit total check up front, where the caller is).
    // The Θ(n²) dense table is only materialised when the dense path can
    // actually be taken.
    pinned_kernel_ =
        std::make_unique<const DistanceKernel>(distance_kernel(n_));
    // Only an explicitly dense scheduler pre-materialises the Θ(n²) table
    // (and can reject an oversized population here, where the caller is);
    // an auto scheduler that ends up on the dense path for an extra-state
    // protocol builds it per run, and run_dense re-checks the cap.
    if (path_ == Path::kDense) {
      PP_ASSERT_MSG(n_ <= kDenseMaxPopulation,
                    "the dense reference path caps n at 4096 (dense pair "
                    "universe); use the hierarchical path for larger "
                    "populations");
      dense_weights_ = kernel_table(n_);
    }
  }
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kWeighted;
  spec.kernel = kernel;
  spec.kernel_power = power;
  spec.dense_reference = path == Path::kDense;
  name_ = spec.to_string();
}

std::vector<u64> WeightedScheduler::kernel_table(u64 n) const {
  PP_ASSERT_MSG(kernel_ != WeightKernel::kTrapDecay,
                "trap-decay weights are state-distance, not positional");
  std::vector<u64> weights(n * n, 0);
  for (u64 i = 0; i < n; ++i) {
    for (u64 j = 0; j < n; ++j) {
      if (i != j) weights[i * n + j] = pair_weight(n, i, j);
    }
  }
  return weights;
}

u64 WeightedScheduler::pair_weight(u64 n, u64 i, u64 j) const {
  PP_DCHECK(i != j && i < n && j < n);
  u64 base = 1;
  switch (kernel_) {
    case WeightKernel::kUniform:
      base = 1;
      break;
    case WeightKernel::kRingDecay: {
      const u64 gap = i > j ? i - j : j - i;
      base = n / std::min(gap, n - gap);
      break;
    }
    case WeightKernel::kLineDecay:
      base = n / (i > j ? i - j : j - i);
      break;
    case WeightKernel::kTrapDecay:
      PP_ASSERT_MSG(false,
                    "trap-decay weights are state-distance, not positional");
      break;
  }
  u64 w = 1;
  for (u64 k = 0; k < power_; ++k) w *= base;
  return w;
}

DistanceKernel WeightedScheduler::distance_kernel(u64 n) const {
  PP_ASSERT_MSG(kernel_ != WeightKernel::kTrapDecay,
                "trap-decay weights are state-distance, not positional");
  const auto geometry = kernel_ == WeightKernel::kRingDecay
                            ? DistanceKernel::Geometry::kRing
                            : DistanceKernel::Geometry::kLine;
  const u64 distances =
      geometry == DistanceKernel::Geometry::kRing ? n / 2 : n - 1;
  std::vector<u64> decay(distances);
  for (u64 d = 1; d <= distances; ++d) {
    u64 base = kernel_ == WeightKernel::kUniform ? 1 : n / d;
    u64 w = 1;
    for (u64 k = 0; k < power_; ++k) w *= base;
    decay[d - 1] = w;
  }
  return DistanceKernel(geometry, n, std::move(decay));
}

RunResult WeightedScheduler::run(Protocol& p, Rng& rng,
                                 const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "weighted scheduler needs n >= 2");
  PP_ASSERT_MSG(n_ == 0 || n_ == n,
                "weighted scheduler built for a different population size");
  if (kernel_ == WeightKernel::kTrapDecay) return run_trap(p, rng, opt);
  // kAuto prefers the hierarchical path whenever the grouped sampler can
  // represent the protocol's productive-pair structure — which it can for
  // every library protocol, extra states included; the dense Θ(n²)
  // reference survives for explicit /dense-ref specs and undeclared
  // extra-pair patterns.
  const bool dense =
      path_ == Path::kDense ||
      (path_ == Path::kAuto && !GroupedKernelSampler::supports(p));
  return dense ? run_dense(p, rng, opt) : run_hierarchical(p, rng, opt);
}

RunResult WeightedScheduler::run_dense(Protocol& p, Rng& rng,
                                       const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n <= kDenseMaxPopulation,
                "the dense reference path caps n at 4096 (dense pair "
                "universe); use the hierarchical path for larger "
                "populations — see schedulers/weighted.hpp");
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  // The placement-independent kernel table is shared by every trial when
  // the population size was pinned at construction (one copy per run, as
  // the sampler consumes it); the unpinned path builds and moves its own.
  std::vector<u64> table =
      !dense_weights_.empty() ? dense_weights_ : kernel_table(n);
  DenseState ds(std::move(table), p, std::move(placement));

  RunResult r;
  // Every kernel weight is >= 1, so zero productive weight on the pair
  // universe is exactly global silence — weighted runs cannot get locally
  // stuck the way a zero/one graph kernel can.
  while (ds.pairs.productive_total() != 0) {
    if (!advance_past_nulls(rng, ds.pairs.productive_probability(),
                            opt.max_interactions, r.interactions)) {
      break;
    }
    const u64 fired = ds.pairs.sample_productive(rng);
    const u64 i = fired / n;
    const u64 j = fired % n;
    const auto [si, sj] = p.apply_pair(ds.state[i], ds.state[j]);
    PP_DCHECK(si != ds.state[i] || sj != ds.state[j]);
    ds.state[i] = si;
    ds.state[j] = sj;
    ds.refresh_position(i);
    ds.refresh_position(j);
    ++r.productive_steps;
    note_productive_step(r.interactions);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return detail::finish_run(
      p, r, static_cast<double>(r.interactions) / static_cast<double>(n));
}

RunResult WeightedScheduler::run_hierarchical(Protocol& p, Rng& rng,
                                              const RunOptions& opt) const {
  const u64 n = p.num_agents();
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  // Pinned constructions share one closed-form kernel across every trial
  // (it is immutable, so concurrent runner threads read it freely); the
  // unpinned path builds its own O(n) copy.
  std::optional<DistanceKernel> local;
  const DistanceKernel* kernel = pinned_kernel_.get();
  if (kernel == nullptr) {
    local.emplace(distance_kernel(n));
    kernel = &*local;
  }
  GroupedKernelSampler gs(*kernel, p, std::move(placement));

  RunResult r;
  while (gs.productive_total() != 0) {
    if (!advance_past_nulls(rng, gs.productive_probability(),
                            opt.max_interactions, r.interactions)) {
      break;
    }
    const auto [i, j] = gs.sample_productive(rng);
    gs.fire(p, i, j);
    ++r.productive_steps;
    note_productive_step(r.interactions);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return detail::finish_run(
      p, r, static_cast<double>(r.interactions) / static_cast<double>(n));
}

RunResult WeightedScheduler::run_trap(Protocol& p, Rng& rng,
                                      const RunOptions& opt) const {
  const u64 n = p.num_agents();
  // Agents are anonymous under a state-distance kernel, so there is no
  // placement to shuffle: the sampler runs straight off the protocol's
  // count vector.
  TrapKernelSampler ts(p, power_);

  RunResult r;
  while (ts.productive_total() != 0) {
    if (!advance_past_nulls(rng, ts.productive_probability(),
                            opt.max_interactions, r.interactions)) {
      break;
    }
    ts.fire(p, rng);
    ++r.productive_steps;
    note_productive_step(r.interactions);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return detail::finish_run(
      p, r, static_cast<double>(r.interactions) / static_cast<double>(n));
}

}  // namespace pp
