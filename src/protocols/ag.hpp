// The generic state-optimal ranking protocol AG (paper §1, §2).
//
// State space {0, ..., n-1}; the single rule family
//     i + i  ->  i + (i + 1 mod n)
// moves the responder of a colliding pair one step around the cycle of
// ranks.  AG is the only previously known state-optimal self-stabilising
// ranking protocol; it stabilises silently in Θ(n^2) parallel time whp and
// serves as the baseline of every comparison in the paper (and in
// bench_ag_scaling / bench_tradeoff_table here).
#pragma once

#include <string_view>
#include <utility>

#include "core/protocol.hpp"

namespace pp {

class AgProtocol final : public Protocol {
 public:
  explicit AgProtocol(u64 n);

  std::string_view name() const override { return "ag"; }
  ProtocolPtr fresh() const override;
  std::pair<StateId, StateId> transition(StateId initiator,
                                         StateId responder) const override;
};

}  // namespace pp
