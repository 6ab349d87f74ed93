// The same-state rank rules that every productive rank event fires, as
// transition(s, s), checked exhaustively: for every rank state s of every
// protocol shape the rule must change the configuration (the rank tree
// counts all c_s (c_s - 1) same-state pairs as productive) and land on a
// valid state; ag and ring-of-traps are also checked against the paper's
// rule schemas on a layout built the obvious way, one state at a time, and
// RingLayout's O(1) geometry against that layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "protocols/factory.hpp"
#include "protocols/line_of_traps.hpp"
#include "protocols/ring_of_traps.hpp"
#include "protocols/tree_ranking.hpp"
#include "structures/ring_layout.hpp"

namespace pp {
namespace {

// Number of rank states s whose rule transition(s, s) is null or leaves
// the state space.
u64 bad_rank_rules(const Protocol& p) {
  u64 bad = 0;
  for (u64 s = 0; s < p.num_ranks(); ++s) {
    const StateId id = static_cast<StateId>(s);
    const auto [t1, t2] = p.transition(id, id);
    const bool productive = t1 != id || t2 != id;
    const bool in_range = t1 < p.num_states() && t2 < p.num_states();
    if (!productive || !in_range) {
      if (bad++ < 5) {
        ADD_FAILURE() << p.name() << " n=" << p.num_agents() << " state "
                      << p.describe_state(id) << " -> (" << t1 << "," << t2
                      << ")";
      }
    }
  }
  return bad;
}

TEST(RankRules, RegistryProtocolsFireEverySameStatePair) {
  for (const auto name : protocol_names()) {
    // The smallest legal n, canonical sizes, and sizes whose traps (or
    // lines, or subtrees) come out uneven.
    std::vector<u64> sizes = {min_population(name), 3, 7, 12, 13, 90,
                              101, 997, 1024, 4096, 5000};
    if (name == "line-of-traps") sizes = {72, 73, 100, 1000, 1440, 2000};
    for (const u64 n : sizes) {
      const ProtocolPtr p = make_protocol(name, n);
      EXPECT_EQ(bad_rank_rules(*p), 0u) << name << " n=" << n;
    }
  }
}

TEST(RankRules, ModifiedTreeAndSingleLineFireEverySameStatePair) {
  for (const u64 n : {2u, 3u, 15u, 100u, 1000u}) {
    const TreeRankingProtocol p(n, 0,
                                TreeRankingProtocol::ResetMode::kModified);
    EXPECT_EQ(bad_rank_rules(p), 0u) << "n=" << n;
  }
  EXPECT_EQ(bad_rank_rules(SingleLineProtocol(40, 4, 3)), 0u);
  EXPECT_EQ(bad_rank_rules(SingleLineProtocol(5, 1, 1)), 0u);
}

TEST(RankRules, AgMatchesItsSchema) {
  for (const u64 n : {2u, 3u, 1000u}) {
    const ProtocolPtr p = make_protocol("ag", n);
    for (u64 s = 0; s < n; ++s) {
      const StateId id = static_cast<StateId>(s);
      const std::pair<StateId, StateId> expected{
          id, static_cast<StateId>((s + 1) % n)};
      ASSERT_EQ(p->transition(id, id), expected) << "n=" << n << " s=" << s;
    }
  }
}

// The obvious layout: traps of size base+1 (the first rem) or base, laid
// out one after another, with every state's trap written down.
struct TableLayout {
  std::vector<u64> offset;  // per trap
  std::vector<u64> size;    // per trap
  std::vector<u64> trap;    // per state

  TableLayout(u64 n, u64 traps) {
    u64 off = 0;
    for (u64 a = 0; a < traps; ++a) {
      const u64 sz = n / traps + (a < n % traps ? 1 : 0);
      offset.push_back(off);
      size.push_back(sz);
      for (u64 b = 0; b < sz; ++b) trap.push_back(a);
      off += sz;
    }
  }
};

TEST(RankRules, RingOfTrapsMatchesTheSchemasOnATableLayout) {
  // Inner (a,b) + (a,b) -> (a,b) + (a,b-1); gate (a,0) + (a,0) ->
  // (a,top) + (next trap's gate), over traps in {1, 2, canonical, n}.
  for (const u64 n : {2u, 3u, 12u, 13u, 30u, 97u, 120u, 1000u}) {
    const u64 canonical = RingLayout(n).num_traps();
    for (const u64 traps : {u64{1}, u64{2}, canonical, n}) {
      const RingOfTrapsProtocol p(n, traps);
      const TableLayout ref(n, traps);
      EXPECT_EQ(bad_rank_rules(p), 0u) << "n=" << n << " traps=" << traps;
      for (u64 s = 0; s < n; ++s) {
        const StateId id = static_cast<StateId>(s);
        const u64 a = ref.trap[s];
        const bool gate = s == ref.offset[a];
        const std::pair<StateId, StateId> expected =
            gate ? std::pair<StateId, StateId>{
                       static_cast<StateId>(ref.offset[a] + ref.size[a] - 1),
                       static_cast<StateId>(ref.offset[(a + 1) % traps])}
                 : std::pair<StateId, StateId>{
                       id, static_cast<StateId>(s - 1)};
        ASSERT_EQ(p.transition(id, id), expected)
            << "n=" << n << " traps=" << traps << " s=" << s;
      }
    }
  }
}

TEST(RankRules, RingLayoutArithmeticMatchesTable) {
  // Every trap count 1..n, so each n meets remainder 0 (traps = 1, or any
  // divisor of n) and, for n >= 3, remainder traps - 1 (e.g. 30 over 7).
  for (const u64 n : {2u, 3u, 4u, 6u, 12u, 29u, 30u, 31u, 100u, 239u, 240u}) {
    for (u64 traps = 1; traps <= n; ++traps) {
      const RingLayout ring(n, traps);
      const TableLayout ref(n, traps);
      ASSERT_EQ(ref.trap.size(), n);
      ASSERT_EQ(ring.num_traps(), traps);
      EXPECT_EQ(ring.max_trap_size(),
                *std::max_element(ref.size.begin(), ref.size.end()));
      for (u64 a = 0; a < traps; ++a) {
        ASSERT_EQ(ring.trap_offset(a), ref.offset[a]) << n << "/" << traps;
        ASSERT_EQ(ring.trap_size(a), ref.size[a]) << n << "/" << traps;
        ASSERT_EQ(ring.gate(a), ref.offset[a]);
        ASSERT_EQ(ring.top(a), ref.offset[a] + ref.size[a] - 1);
        ASSERT_EQ(ring.next_gate(a), ref.offset[(a + 1) % traps]);
      }
      for (u64 s = 0; s < n; ++s) {
        const StateId id = static_cast<StateId>(s);
        ASSERT_EQ(ring.trap_of(id), ref.trap[s])
            << "n=" << n << " traps=" << traps << " s=" << s;
        ASSERT_EQ(ring.local_of(id), s - ref.offset[ref.trap[s]])
            << "n=" << n << " traps=" << traps << " s=" << s;
      }
    }
  }
}

TEST(RankRules, RingLayoutHoldsNoPerStateTable) {
  // The layout is four words and n, at any n.
  EXPECT_LE(sizeof(RingLayout), 5 * sizeof(u64));
  const RingLayout big(4'000'000'000ULL);
  EXPECT_EQ(big.trap_of(static_cast<StateId>(big.num_states() - 1)),
            big.num_traps() - 1);
  EXPECT_EQ(big.local_of(big.top(big.num_traps() - 1)),
            big.trap_size(big.num_traps() - 1) - 1);
}

}  // namespace
}  // namespace pp
