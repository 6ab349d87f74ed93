#include "core/count_engine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pp {
namespace {

// Duplicate of the engines' common exit path (core/engine.cpp keeps its
// copy in an anonymous namespace): stamp silent/valid/parallel_time from
// the protocol object and enforce the RunResult contract.  The count
// engine writes its final configuration back into the protocol before
// calling this, so the contract asserts check the *synchronised* state.
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

u64 diagonal_mass(u64 c) { return c > 1 ? c * (c - 1) : 0; }

}  // namespace

CountEngine::CountEngine(Protocol& p) : p_(p) {
  PP_ASSERT_MSG(p.is_count_determined(),
                "CountEngine requires Protocol::is_count_determined()");
  PP_ASSERT_MSG(p.num_extra_states() == 0,
                "count-determined protocols must have no extra states");
  const u64 states = p.num_states();

  // The diagonal rule table, read off the formal transition function so the
  // engine is independent of the protocols' internal rule_/Fenwick
  // machinery (the same separation agent_simulator relies on).
  delta_.resize(states);
  for (u64 s = 0; s < states; ++s) {
    const StateId sid = static_cast<StateId>(s);
    const auto [o1, o2] = p.transition(sid, sid);
    PP_ASSERT_MSG(o1 != sid || o2 != sid,
                  "count-determined protocol has a null diagonal rule; its "
                  "c_s(c_s-1) mass would sample unproductive events");
    delta_[s] = DiagonalRule{o1, o2};
  }

  // Cross-check promise (b): δ(s,t) null off the diagonal.  Exhaustive for
  // small state spaces; a deterministic pseudo-random probe of ~4096
  // ordered pairs above that (states can reach 10^8, where the full
  // O(states^2) sweep is off the table).
  if (states <= 1024) {
    for (u64 s = 0; s < states; ++s) {
      for (u64 t = 0; t < states; ++t) {
        if (s == t) continue;
        const auto [o1, o2] = p.transition(static_cast<StateId>(s),
                                           static_cast<StateId>(t));
        PP_ASSERT_MSG(o1 == s && o2 == t,
                      "protocol claims is_count_determined() but has a "
                      "productive off-diagonal rule");
      }
    }
  } else {
    const u64 probes = 4096;
    for (u64 k = 0; k < probes; ++k) {
      // Knuth-hash stride for s, a coprime-ish offset in [1, states-1]
      // for t — covers the pair table far from the diagonal.
      const u64 s = (k * 2654435761ull) % states;
      const u64 t = (s + 1 + (k * 40503ull) % (states - 1)) % states;
      const auto [o1, o2] = p.transition(static_cast<StateId>(s),
                                         static_cast<StateId>(t));
      PP_ASSERT_MSG(o1 == s && o2 == t,
                    "protocol claims is_count_determined() but has a "
                    "productive off-diagonal rule");
    }
  }
}

RunResult CountEngine::run(Rng& rng, const RunOptions& opt, u64 handoff_gap,
                           CountRunStatus* status) {
  const u64 n = p_.num_agents();
  PP_ASSERT_MSG(n >= 2, "count engine needs n >= 2 (no pairs otherwise)");
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);

  // Snapshot the protocol's current configuration; from here to write-back
  // the count vector and its mass tree are the entire simulation state.
  counts_ = p_.counts();
  {
    std::vector<u64> masses(counts_.size());
    for (u64 s = 0; s < counts_.size(); ++s) {
      masses[s] = diagonal_mass(counts_[s]);
    }
    mass_.assign(std::move(masses));
  }

  // With an observer installed the protocol must stay live (on_change takes
  // const Protocol&), so events are mirrored into it as they happen; the
  // bulk path skips the mirror and writes back once at exit.
  const bool sync = static_cast<bool>(opt.on_change);

  RunResult r;
  bool handed_off = false;
  while (true) {
    const u64 w = mass_.total();
    if (w == 0) break;
    const double prob = static_cast<double>(w) / pairs;
    // Same generator consumption as run_accelerated: one geometric gap...
    const u64 before = r.interactions;
    if (!advance_past_nulls(rng, prob, opt.max_interactions, r.interactions)) {
      break;
    }
    const u64 gap = r.interactions - before - 1;
    if (status != nullptr) {
      const u32 bucket = obs::sketch_bucket(gap);
      ++status->gap_sketch[bucket];
      status->max_gap_bucket = std::max(status->max_gap_bucket, bucket);
    }
    // ...then one uniform draw below W, resolved through a Fenwick whose
    // leaves equal the protocol's rank-tree weights c(c - 1) entry for
    // entry, over the same layout — so find() lands on the same state
    // step_productive would pick.
    const StateId s = static_cast<StateId>(mass_.find(rng.below(w)));
    const DiagonalRule rule = delta_[s];
    counts_[s] -= 2;
    ++counts_[rule.out1];
    ++counts_[rule.out2];
    mass_.set(s, diagonal_mass(counts_[s]));
    mass_.set(rule.out1, diagonal_mass(counts_[rule.out1]));
    mass_.set(rule.out2, diagonal_mass(counts_[rule.out2]));
    ++r.productive_steps;
    note_productive_step(r.interactions);
    if (sync) {
      p_.apply_pair(s, s);
      if (!opt.on_change(p_, r.interactions)) {
        r.aborted = true;
        break;
      }
    }
    // Handoff is checked *after* the event that closed the gap, so a
    // handed-off prefix is bit-identical to the same seed's
    // run_accelerated prefix and the tail engine starts from a
    // post-productive-step configuration.
    if (handoff_gap > 0 && gap >= handoff_gap) {
      handed_off = true;
      break;
    }
  }

  if (status != nullptr) status->handed_off = handed_off;
  if (!sync) {
    p_.reset(Configuration(counts_));
  }
  return finish(p_, r);
}

RunResult run_count(Protocol& p, Rng& rng, const RunOptions& opt) {
  CountEngine engine(p);
  return engine.run(rng, opt);
}

}  // namespace pp
