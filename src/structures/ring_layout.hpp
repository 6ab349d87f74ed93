// State-space geometry of the ring-of-traps protocol (paper §3.1).
//
// For n = m(m+1) the paper deploys m traps of size m+1 whose gate states
// form a directed cycle.  For other n the paper notes that "one can reduce
// some traps to less than m+1 states"; we implement that concretely: we use
// m = the largest integer with m(m+1) <= n traps and distribute the n rank
// states over them as evenly as possible (sizes differ by at most one, each
// size in {floor(n/m), ceil(n/m)}), preserving the Θ(√n)-traps ×
// Θ(√n)-states-per-trap shape that the analysis needs.
//
// Rank states are laid out contiguously, trap by trap; within trap a the
// local index b = 0 is the gate and b = size_a - 1 the top inner state.
//
// With m traps over n states, base = floor(n/m) and rem = n mod m, the
// first rem traps have size base+1 and the rest size base.  So the layout
// is a few numbers, not a table: trap a starts at a*base + min(a, rem), and
// the trap of state s is one division on either side of
// split = rem*(base+1), the first state of the first size-`base` trap:
//   trap_of(s) = s < split ? s / (base+1) : rem + (s - split) / base.
// Every query below is O(1) arithmetic, and the layout holds O(1) memory
// at any n.
#pragma once

#include <algorithm>
#include <span>

#include "common/types.hpp"

namespace pp {

class RingLayout {
 public:
  /// Lays out `n` rank states (n >= 2) over the canonical ~√n traps.
  explicit RingLayout(u64 n);

  /// Lays out `n` rank states over exactly `traps` traps (1 <= traps <= n).
  /// Used by the trap-size ablation bench; the paper's analysis assumes the
  /// canonical √n shape.
  RingLayout(u64 n, u64 traps);

  u64 num_states() const { return n_; }
  u64 num_traps() const { return traps_; }

  /// Largest trap size (the "m+1" of the canonical layout).
  u64 max_trap_size() const { return base_ + (rem_ > 0 ? 1 : 0); }

  u64 trap_offset(u64 a) const { return a * base_ + std::min(a, rem_); }
  u64 trap_size(u64 a) const { return base_ + (a < rem_ ? 1 : 0); }

  /// Trap index containing state s.
  u64 trap_of(StateId s) const {
    return s < split_ ? s / (base_ + 1) : rem_ + (s - split_) / base_;
  }

  /// Local index of s within its trap (0 = gate).
  u64 local_of(StateId s) const { return s - trap_offset(trap_of(s)); }

  StateId gate(u64 a) const { return static_cast<StateId>(trap_offset(a)); }
  StateId top(u64 a) const {
    return static_cast<StateId>(trap_offset(a) + trap_size(a) - 1);
  }
  StateId next_gate(u64 a) const {
    return a + 1 == traps_ ? 0 : gate(a + 1);
  }

  /// Per-trap slice of a full per-state count vector.
  std::span<const u64> trap_counts(std::span<const u64> counts, u64 a) const {
    return counts.subspan(trap_offset(a), trap_size(a));
  }

  /// Lemma 3's weight K = k1 + 2*k2 of a configuration, where k1 counts
  /// flat traps with unoccupied gates and k2 counts gaps across all traps.
  /// The paper proves K is non-increasing along every trajectory; the
  /// property tests check exactly that.
  u64 lemma3_weight(std::span<const u64> counts) const;

 private:
  u64 n_;
  u64 traps_;
  u64 base_;   // floor(n / traps): the size of the smaller traps
  u64 rem_;    // n mod traps: how many traps have size base_ + 1
  u64 split_;  // rem_ * (base_ + 1): first state of a size-base_ trap
};

}  // namespace pp
