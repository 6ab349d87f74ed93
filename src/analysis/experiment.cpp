#include "analysis/experiment.hpp"

#include "common/assert.hpp"
#include "core/initial.hpp"

namespace pp {

Measurement measure(const ProtocolFactory& make_protocol,
                    const ConfigGenerator& make_config,
                    const MeasureOptions& opt) {
  PP_ASSERT(opt.trials >= 1);
  Measurement out;
  out.parallel_times.reserve(opt.trials);
  const ProtocolPtr tables = make_protocol();
  for (u64 t = 0; t < opt.trials; ++t) {
    Rng rng(derive_seed(opt.root_seed, opt.label, t));
    ProtocolPtr p = tables->fresh();
    p->reset(make_config(*p, rng));
    RunOptions ro;
    ro.max_interactions = opt.max_interactions;
    const RunResult r = run_accelerated(*p, rng, ro);
    out.parallel_times.push_back(r.parallel_time);
    if (!r.silent) {
      ++out.timeouts;
    } else if (!r.valid) {
      ++out.invalid;
    }
  }
  return out;
}

Configuration UniformRandomGen::operator()(const Protocol& p,
                                           Rng& rng) const {
  return initial::uniform_random(p, rng);
}

ConfigGenerator gen_uniform_random() { return UniformRandomGen{}; }

ConfigGenerator gen_uniform_random_ranks() {
  return [](const Protocol& p, Rng& rng) {
    return initial::uniform_random_ranks(p, rng);
  };
}

ConfigGenerator gen_k_distant(u64 k) {
  return [k](const Protocol& p, Rng& rng) {
    return initial::k_distant(p, k, rng);
  };
}

ConfigGenerator gen_all_in_state(StateId s) {
  return [s](const Protocol& p, Rng&) { return initial::all_in_state(p, s); };
}

ConfigGenerator gen_all_in_last_state() {
  return [](const Protocol& p, Rng&) {
    return initial::all_in_state(p, static_cast<StateId>(p.num_states() - 1));
  };
}

}  // namespace pp
