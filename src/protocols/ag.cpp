#include "protocols/ag.hpp"

#include <memory>
#include <utility>

namespace pp {

AgProtocol::AgProtocol(u64 n) : Protocol(n, n, /*num_extra=*/0) {}

ProtocolPtr AgProtocol::fresh() const {
  return std::make_unique<AgProtocol>(num_agents());
}

std::pair<StateId, StateId> AgProtocol::transition(StateId initiator,
                                                   StateId responder) const {
  // The single rule family: i + i -> i + (i + 1 mod n), without a division.
  if (initiator != responder) return {initiator, responder};
  const StateId next = initiator + 1;
  return {initiator, next == num_ranks() ? 0 : next};
}

}  // namespace pp
