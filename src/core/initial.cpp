#include "core/initial.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"
#include "common/huge_pages.hpp"

namespace pp::initial {

namespace {

// num_states zero counts: the one allocation of a configuration's count
// vector, which reset() later adopts as the count tree's leaves, so it is
// huge-page backed from the start.
Configuration zeroed(u64 num_states) {
  Configuration c;
  zeroed_resize(c.counts, num_states);
  return c;
}

}  // namespace

Configuration valid_ranking(u64 num_ranks, u64 num_states) {
  PP_ASSERT(num_ranks <= num_states);
  Configuration c = zeroed(num_states);
  for (u64 s = 0; s < num_ranks; ++s) c.counts[s] = 1;
  return c;
}

namespace {

// num_agents agents over num_states states, agent i in state
// rng.below(bound).  At 10^7 states every increment is a cache and TLB
// miss, so the states are drawn a block at a time (the same below() calls
// in the same order), prefetched, and only then incremented: the misses
// of a block overlap instead of queueing.  Increments commute, so the
// counts and the Rng's next state equal those of a per-agent loop.
Configuration scatter(u64 num_agents, u64 num_states, u64 bound, Rng& rng) {
  constexpr u64 kBlock = 64;
  Configuration c = zeroed(num_states);
  u64* counts = c.counts.data();
  std::array<u64, kBlock> block{};
  for (u64 done = 0; done < num_agents;) {
    const u64 len = std::min(kBlock, num_agents - done);
    for (u64 j = 0; j < len; ++j) {
      block[j] = rng.below(bound);
      __builtin_prefetch(counts + block[j], 1);
    }
    for (u64 j = 0; j < len; ++j) ++counts[block[j]];
    done += len;
  }
  return c;
}

}  // namespace

Configuration uniform_random(u64 num_agents, u64 num_states, Rng& rng) {
  return scatter(num_agents, num_states, num_states, rng);
}

Configuration uniform_random_ranks(u64 num_agents, u64 num_ranks,
                                   u64 num_states, Rng& rng) {
  PP_ASSERT(num_ranks <= num_states);
  return scatter(num_agents, num_states, num_ranks, rng);
}

Configuration k_distant(u64 num_ranks, u64 num_states, u64 k, Rng& rng) {
  PP_ASSERT_MSG(k < num_ranks, "cannot vacate every rank state");
  Configuration c = valid_ranking(num_ranks, num_states);
  if (k == 0) return c;
  const std::vector<u64> vacated = rng.sample_distinct(num_ranks, k);
  for (const u64 v : vacated) c.counts[v] = 0;
  // Re-home the k displaced agents on occupied ranks, sampled uniformly by
  // index among the num_ranks - k survivors.
  std::vector<u64> occupied;
  occupied.reserve(num_ranks - k);
  for (u64 s = 0; s < num_ranks; ++s) {
    if (c.counts[s] != 0) occupied.push_back(s);
  }
  for (u64 i = 0; i < k; ++i) {
    ++c.counts[occupied[rng.below(occupied.size())]];
  }
  PP_ASSERT(k_distance(c, num_ranks) == k);
  return c;
}

Configuration all_in_state(u64 num_agents, u64 num_states, StateId s) {
  PP_ASSERT(s < num_states);
  Configuration c = zeroed(num_states);
  c.counts[s] = num_agents;
  return c;
}

Configuration perturbed(Configuration base, u64 faults, Rng& rng) {
  const u64 num_agents = base.agents();
  const u64 num_states = base.num_states();
  PP_ASSERT(num_agents > 0);
  for (u64 f = 0; f < faults; ++f) {
    // Pick a uniform agent by walking the counts (generators are not hot
    // paths; O(states) per fault is fine).
    u64 target = rng.below(num_agents);
    u64 s = 0;
    while (target >= base.counts[s]) {
      target -= base.counts[s];
      ++s;
    }
    --base.counts[s];
    ++base.counts[rng.below(num_states)];
  }
  return base;
}

Configuration valid_ranking(const Protocol& p) {
  return valid_ranking(p.num_ranks(), p.num_states());
}
Configuration uniform_random(const Protocol& p, Rng& rng) {
  return uniform_random(p.num_agents(), p.num_states(), rng);
}
Configuration uniform_random_ranks(const Protocol& p, Rng& rng) {
  return uniform_random_ranks(p.num_agents(), p.num_ranks(), p.num_states(),
                              rng);
}
Configuration k_distant(const Protocol& p, u64 k, Rng& rng) {
  return k_distant(p.num_ranks(), p.num_states(), k, rng);
}
Configuration all_in_state(const Protocol& p, StateId s) {
  return all_in_state(p.num_agents(), p.num_states(), s);
}

}  // namespace pp::initial
