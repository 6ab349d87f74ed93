#include "core/protocol.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pp {

Protocol::Protocol(u64 num_agents, u64 num_ranks, u64 num_extra)
    : n_agents_(num_agents),
      n_ranks_(num_ranks),
      n_states_(num_ranks + num_extra) {
  // StateId is 32-bit and kNoState (2^32 - 1) is reserved, so state ids run
  // 0 .. 2^32 - 2.  Checked term by term: the sum above may have wrapped.
  constexpr u64 kStateLimit = static_cast<u64>(kNoState);
  PP_ASSERT_MSG(num_ranks <= kStateLimit &&
                    num_extra <= kStateLimit - num_ranks,
                "protocol needs 2^32 or more states; StateId is 32-bit");
  PP_ASSERT_MSG(n_agents_ >= 2, "need at least two agents to interact");
  PP_ASSERT_MSG(n_ranks_ >= 1, "need at least one rank state");
}

void Protocol::reset(Configuration c) {
  PP_ASSERT_MSG(c.num_states() == n_states_,
                "configuration has wrong number of states");
  // The configuration's vector becomes the count tree's leaves; the build
  // sums them once, overflow-checked, so the agent count needs no pass of
  // its own (and a vector whose sum wraps u64 to n never gets this far).
  // The rank tree reads its leaves from the adopted counts.
  count_all_.assign(std::move(c.counts));
  PP_ASSERT_MSG(count_all_.total() == n_agents_,
                "configuration has wrong number of agents");
  count_bound_ = rank_weight_.reset(counts().data(), n_ranks_);
  extra_agents_ = n_agents_ - rank_agents();
  on_reset();
}

void Protocol::move_agent(StateId from, StateId to) {
  PP_DCHECK(from < n_states_ && to < n_states_);
  if (from == to) {
    PP_ASSERT_MSG(count(from) > 0, "move_agent from an empty state");
    return;
  }
  // The count tree checks that `from` is occupied.
  count_all_.add(from, -1, to, +1);
  const bool rank_from = from < n_ranks_;
  const bool rank_to = to < n_ranks_;
  const u64 c_to = count(to);
  if (rank_from && rank_to) {
    rank_weight_.count_changed(from, count(from) + 1, to, c_to - 1);
  } else if (rank_from) {
    rank_weight_.count_changed(from, count(from) + 1);
    ++extra_agents_;
  } else if (rank_to) {
    rank_weight_.count_changed(to, c_to - 1);
    --extra_agents_;
  }
  if (rank_to) count_bound_ = std::max(count_bound_, c_to);
}

void Protocol::apply_rank_rule(StateId s) {
  PP_DCHECK(s < n_ranks_);
  PP_DCHECK(count(s) >= 2);
  const auto [out1, out2] = transition(s, s);
  if (out1 != s) move_agent(s, out1);
  if (out2 != s) move_agent(s, out2);
}

void Protocol::step_productive(Rng& rng) {
  const u64 w_rank = rank_weight_.total();
  const u64 w_extra = extra_weight();
  PP_ASSERT_MSG(w_rank + w_extra > 0, "step_productive on a silent protocol");
  const u64 target = rng.below(w_rank + w_extra);
  if (target < w_rank) {
    apply_rank_rule(static_cast<StateId>(rank_weight_.find(target)));
  } else {
    step_extra(target - w_rank, rng);
  }
}

bool Protocol::step_uniform(Rng& rng) {
  // Initiator at position a, uniform among the n agents; responder uniform
  // among the other n - 1, i.e. at b skipped past a.  Resolving b against
  // the tree with si's count decremented gives the same state as resolving
  // r against the untouched tree: the two differ only for
  // a <= b < prefix(si + 1) - 1, where both land in si.
  const u64 a = rng.below(n_agents_);
  const u64 b = rng.below(n_agents_ - 1);
  const u64 r = b + (b >= a);

  // Rank states come first, so positions below rank_end hold rank agents;
  // two of them further apart than any rank state's count are in distinct
  // rank states, and state-optimal rules are (s,s) only.
  const u64 rank_end = n_agents_ - extra_agents_;
  const u64 lo = std::min(a, r);
  const u64 hi = std::max(a, r);
  if (hi < rank_end && hi - lo >= count_bound_) return false;

  // si's agents occupy [a - offset, a - offset + count(si)); the unsigned
  // difference wraps when r lies below that range.
  u64 offset = 0;
  const StateId si = static_cast<StateId>(count_all_.find(a, offset));
  PP_DCHECK(si >= n_ranks_ || count(si) <= count_bound_);
  const bool same = r - (a - offset) < count(si);
  if (si < n_ranks_) {
    if (same) {
      apply_rank_rule(si);
      return true;
    }
    if (r < rank_end) return false;  // distinct rank states
  }
  const StateId sr =
      same ? si : static_cast<StateId>(count_all_.find(r));
  return apply_cross(si, sr);
}

std::pair<StateId, StateId> Protocol::apply_pair(StateId initiator,
                                                 StateId responder) {
  PP_DCHECK(initiator < n_states_ && responder < n_states_);
  PP_DCHECK(count(initiator) >= 1);
  PP_DCHECK(count(responder) >=
            (initiator == responder ? static_cast<u64>(2) : 1));
  const auto [i2, r2] = transition(initiator, responder);
  if (i2 != initiator) move_agent(initiator, i2);
  if (r2 != responder) move_agent(responder, r2);
  return {i2, r2};
}

void Protocol::step_extra(u64 /*target*/, Rng& /*rng*/) {
  PP_ASSERT_MSG(false, "protocol reported extra_weight() but does not "
                       "implement step_extra()");
}

bool Protocol::apply_cross(StateId /*initiator*/, StateId /*responder*/) {
  PP_ASSERT_MSG(false, "protocol has extra states but does not implement "
                       "apply_cross()");
  return false;
}

bool Protocol::is_valid_ranking() const {
  return n_agents_ == n_ranks_ && rank_weight_.total() == 0 &&
         rank_agents() == n_agents_;
}

std::string Protocol::describe_state(StateId s) const {
  if (s < n_ranks_) return "rank " + std::to_string(s);
  return "extra " + std::to_string(s - n_ranks_);
}

}  // namespace pp
