// Protocol::move_agent against a rebuild.  After random moves — rank to
// rank, rank to extra, extra to rank, extra to extra, runs out of the
// fullest state — a protocol must be indistinguishable from a fresh
// instance reset() on the moved counts: the same counts, the same
// productive weight, the same count-tree find at every target up to 4096,
// and the same future under step_uniform() and step_productive() with
// equal generators.  step_uniform() reads count_bound_ (stale after moves,
// exact after reset) and extra_agents_, and step_productive() descends the
// rank tree, so a tree entry or either field left wrong by a move shows up
// as a different return, different counts or a different next rng.bits().
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "protocols/line_of_traps.hpp"
#include "protocols/tree_ranking.hpp"
#include "rng/random.hpp"

namespace pp {
namespace {

struct Case {
  std::string name;
  std::function<ProtocolPtr()> make;
};

// The four registry protocols at n ~ 4500 (so finds reach target 4095),
// the modified tree protocol and the single-line sub-protocol, whose X is
// inert (rank <-> extra moves with no extra weight).
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 4500);
    out.push_back({std::string(name),
                   [name, n] { return make_protocol(name, n); }});
  }
  out.push_back({"tree-ranking-modified", [] {
                   return std::make_unique<TreeRankingProtocol>(
                       4500, 0, TreeRankingProtocol::ResetMode::kModified);
                 }});
  out.push_back({"single-line", [] {
                   return std::make_unique<SingleLineProtocol>(40, 4, 3);
                 }});
  return out;
}

// A state drawn by kind: a uniform agent's state, a uniform rank state,
// or a uniform extra state (a rank state when there are none).
StateId draw_state(const Protocol& p, u64 kind, Rng& rng) {
  if (kind == 0) {
    return p.uniform_agent_state(rng.below(p.num_agents()));
  }
  if (kind == 1 || p.num_extra_states() == 0) {
    return static_cast<StateId>(rng.below(p.num_ranks()));
  }
  return static_cast<StateId>(p.num_ranks() +
                              rng.below(p.num_extra_states()));
}

// An occupied state of the kind asked for: rank (0) or extra (1), falling
// back to any uniform agent's state when that kind holds no agent.
StateId occupied_state(const Protocol& p, u64 kind, Rng& rng) {
  const std::vector<u64>& c = p.counts();
  u64 rank_agents = 0;
  for (u64 s = 0; s < p.num_ranks(); ++s) rank_agents += c[s];
  const u64 lo = kind == 0 ? 0 : rank_agents;
  const u64 hi = kind == 0 ? rank_agents : p.num_agents();
  if (lo == hi) return p.uniform_agent_state(rng.below(p.num_agents()));
  return p.uniform_agent_state(lo + rng.below(hi - lo));
}

// p against a fresh instance reset() on p's counts.  Both then take the
// same uniform and productive steps, so p leaves in a state the rebuild
// agrees with too.
void expect_as_rebuilt(Protocol& p, Rng& rng, const std::string& name) {
  const ProtocolPtr q = p.fresh();
  q->reset(p.configuration());
  ASSERT_EQ(p.counts(), q->counts()) << name;
  ASSERT_EQ(p.productive_weight(), q->productive_weight()) << name;
  const u64 targets = std::min<u64>(p.num_agents(), 4096);
  for (u64 t = 0; t < targets; ++t) {
    ASSERT_EQ(p.uniform_agent_state(t), q->uniform_agent_state(t))
        << name << " find " << t;
  }
  Rng a(rng.bits());
  Rng b = a;
  for (u64 k = 0; k < 64; ++k) {
    ASSERT_EQ(p.step_uniform(a), q->step_uniform(b)) << name << " " << k;
    ASSERT_EQ(p.counts(), q->counts()) << name << " uniform step " << k;
  }
  ASSERT_EQ(a.bits(), b.bits()) << name;
  for (u64 k = 0; k < 16 && !p.is_silent(); ++k) {
    p.step_productive(a);
    q->step_productive(b);
    ASSERT_EQ(p.counts(), q->counts()) << name << " productive step " << k;
    ASSERT_EQ(p.productive_weight(), q->productive_weight()) << name;
  }
  ASSERT_EQ(a.bits(), b.bits()) << name;
}

TEST(MoveAgent, MovesMatchAResetOnTheMovedCounts) {
  Rng rng(2020);
  for (const Case& c : cases()) {
    const ProtocolPtr p = c.make();
    p->reset(initial::uniform_random(*p, rng));
    for (u64 round = 0; round < 24; ++round) {
      const u64 moves = 1 + rng.below(40);
      for (u64 m = 0; m < moves; ++m) {
        StateId from = 0;
        StateId to = 0;
        switch (rng.below(6)) {
          case 0:  // rank -> rank
            from = occupied_state(*p, 0, rng);
            to = draw_state(*p, 1, rng);
            break;
          case 1:  // rank -> extra
            from = occupied_state(*p, 0, rng);
            to = draw_state(*p, 2, rng);
            break;
          case 2:  // extra -> rank
            from = occupied_state(*p, 1, rng);
            to = draw_state(*p, 1, rng);
            break;
          case 3:  // extra -> extra
            from = occupied_state(*p, 1, rng);
            to = draw_state(*p, 2, rng);
            break;
          case 4: {  // out of the fullest state, leaving count_bound_ stale
            const std::vector<u64>& counts = p->counts();
            from = static_cast<StateId>(
                std::max_element(counts.begin(), counts.end()) -
                counts.begin());
            to = draw_state(*p, 0, rng);
            break;
          }
          default:  // to a neighbour, as ag's rule and the ring's inner
                    // rule move agents
            from = occupied_state(*p, 0, rng);
            to = from == 0 ? 1 : from - 1;
            break;
        }
        p->move_agent(from, to);
      }
      p->commit_moves();
      ASSERT_NO_FATAL_FAILURE(expect_as_rebuilt(*p, rng, c.name));
    }
  }
}

TEST(MoveAgent, MoveOutOfAnEmptyStateDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ProtocolPtr p = make_protocol("ag", 8);
  p->reset(initial::valid_ranking(*p));
  EXPECT_DEATH(
      {
        p->move_agent(0, 1);
        p->move_agent(0, 2);
      },
      "Fenwick weight underflow");
  EXPECT_DEATH(
      {
        p->move_agent(0, 1);
        p->move_agent(0, 0);
      },
      "move_agent from an empty state");
}

}  // namespace
}  // namespace pp
