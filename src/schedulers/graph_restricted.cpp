#include "schedulers/graph_restricted.hpp"

#include "common/assert.hpp"
#include "schedulers/pair_sampler.hpp"

namespace pp {

GraphRestrictedScheduler::GraphRestrictedScheduler(
    std::shared_ptr<const InteractionGraph> graph, bool accelerated)
    : graph_(std::move(graph)), accelerated_(accelerated) {
  PP_ASSERT_MSG(graph_ != nullptr, "graph-restricted scheduler needs a graph");
  name_ = "graph-restricted[" + graph_->description() + "]";
}

RunResult GraphRestrictedScheduler::run(Protocol& p, Rng& rng,
                                        const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(graph_->num_vertices() == n,
                "interaction graph size != population size");
  // The protocols are self-stabilising, so *which* states start where is
  // already arbitrary — the random placement just removes any artefact of
  // the count-vector expansion order.
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  DirectedEdgeSampler es(*graph_, p, std::move(placement));

  RunResult r;
  // Stops at edge-silence (no productive directed edge left — either true
  // silence or a locally stuck configuration), budget exhaustion or
  // observer abort.
  while (es.pairs().productive_total() != 0) {
    u64 fired;
    if (accelerated_) {
      if (!advance_past_nulls(rng, es.pairs().productive_probability(),
                              opt.max_interactions, r.interactions)) {
        break;
      }
      fired = es.pairs().sample_productive(rng);
    } else {
      if (r.interactions >= opt.max_interactions) break;
      ++r.interactions;
      const u64 drawn = es.pairs().sample(rng);
      if (!es.pairs().productive(drawn)) continue;  // null step
      fired = drawn;
    }
    es.fire(p, fired);
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
