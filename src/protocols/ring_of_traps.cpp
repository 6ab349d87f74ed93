#include "protocols/ring_of_traps.hpp"

#include <utility>
#include <vector>

namespace pp {

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n)
    : RingOfTrapsProtocol(std::make_shared<const RingLayout>(n)) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n, u64 traps)
    : RingOfTrapsProtocol(std::make_shared<const RingLayout>(n, traps)) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(
    std::shared_ptr<const RingLayout> tables)
    : Protocol(tables->num_states(), tables->num_states(), /*num_extra=*/0),
      layout_(std::move(tables)) {
  const RingLayout& layout = *layout_;
  std::vector<Rule> rules(layout.num_states());
  for (u64 a = 0; a < layout.num_traps(); ++a) {
    const StateId gate = layout.gate(a);
    // Gate: one agent re-enters at the top inner state, the other moves on
    // to the next trap's gate.  (For a degenerate single-state trap the top
    // state *is* the gate, so the rule reduces to forwarding one agent.)
    rules[gate] = Rule{layout.top(a), layout.next_gate(a)};
    // Inner states: the responder descends one step.
    for (u64 b = 1; b < layout.trap_size(a); ++b) {
      const StateId s = static_cast<StateId>(gate + b);
      rules[s] = Rule{s, static_cast<StateId>(s - 1)};
    }
  }
  install_rules(std::move(rules));
}

ProtocolPtr RingOfTrapsProtocol::fresh() const {
  return ProtocolPtr(new RingOfTrapsProtocol(*this, ShareTables{}));
}

std::pair<StateId, StateId> RingOfTrapsProtocol::transition(
    StateId initiator, StateId responder) const {
  if (initiator != responder) return {initiator, responder};
  const StateId s = initiator;
  if (layout_->local_of(s) > 0) {
    // Inner rule R_i: (a,b) + (a,b) -> (a,b) + (a,b-1).
    return {s, static_cast<StateId>(s - 1)};
  }
  // Gate rule R_g: (a,0) + (a,0) -> (a,m) + ((a+1) mod m, 0).
  const u64 a = layout_->trap_of(s);
  return {layout_->top(a), layout_->next_gate(a)};
}

std::string RingOfTrapsProtocol::describe_state(StateId s) const {
  const u64 a = layout_->trap_of(s);
  const u64 b = layout_->local_of(s);
  return "(a=" + std::to_string(a) + ",b=" + std::to_string(b) +
         (b == 0 ? "|gate)" : ")");
}

}  // namespace pp
