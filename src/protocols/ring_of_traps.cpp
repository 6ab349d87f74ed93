#include "protocols/ring_of_traps.hpp"

#include <utility>

namespace pp {

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n)
    : RingOfTrapsProtocol(std::make_shared<const RingLayout>(n)) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n, u64 traps)
    : RingOfTrapsProtocol(std::make_shared<const RingLayout>(n, traps)) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(
    std::shared_ptr<const RingLayout> layout)
    : Protocol(layout->num_states(), layout->num_states(), /*num_extra=*/0),
      layout_(std::move(layout)) {}

ProtocolPtr RingOfTrapsProtocol::fresh() const {
  return ProtocolPtr(new RingOfTrapsProtocol(layout_));
}

std::pair<StateId, StateId> RingOfTrapsProtocol::transition(
    StateId initiator, StateId responder) const {
  if (initiator != responder) return {initiator, responder};
  const StateId s = initiator;
  const RingLayout& layout = *layout_;
  const u64 a = layout.trap_of(s);
  if (s != layout.gate(a)) {
    // Inner rule R_i: (a,b) + (a,b) -> (a,b) + (a,b-1).
    return {s, static_cast<StateId>(s - 1)};
  }
  // Gate rule R_g: (a,0) + (a,0) -> (a,m) + ((a+1) mod m, 0).  (For a
  // degenerate single-state trap the top state *is* the gate, so the rule
  // reduces to forwarding one agent.)
  return {layout.top(a), layout.next_gate(a)};
}

std::string RingOfTrapsProtocol::describe_state(StateId s) const {
  const u64 a = layout_->trap_of(s);
  const u64 b = layout_->local_of(s);
  return "(a=" + std::to_string(a) + ",b=" + std::to_string(b) +
         (b == 0 ? "|gate)" : ")");
}

}  // namespace pp
