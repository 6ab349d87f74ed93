#include "protocols/ag.hpp"

#include <utility>
#include <vector>

namespace pp {

AgProtocol::AgProtocol(u64 n) : Protocol(n, n, /*num_extra=*/0) {
  std::vector<Rule> rules(n);
  for (StateId i = 0; i < n; ++i) {
    rules[i] = Rule{i, static_cast<StateId>((i + 1) % n)};
  }
  install_rules(std::move(rules));
}

ProtocolPtr AgProtocol::fresh() const {
  return ProtocolPtr(new AgProtocol(*this, ShareTables{}));
}

std::pair<StateId, StateId> AgProtocol::transition(StateId initiator,
                                                   StateId responder) const {
  // The single rule family: i + i -> i + (i + 1 mod n).
  if (initiator == responder) {
    return {initiator,
            static_cast<StateId>((initiator + 1) % num_ranks())};
  }
  return {initiator, responder};
}

}  // namespace pp
