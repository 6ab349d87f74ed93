// Cache-line B-ary sum tree over u64 weights with O(log n) point updates,
// prefix sums, and weighted sampling (named for the Fenwick-tree API it
// offers).  find()'s contract (below) does not depend on the layout, so
// the layout can change without changing any sampled trajectory.
//
// This is the simulator's hot data structure.  Each protocol keeps
//   * a tree of per-state "productive weights" c_s(c_s - 1) used to sample
//     the next productive interaction, and
//   * a tree of raw per-state agent counts used to sample uniform
//     interaction partners.
// Both see one increment/decrement per state whose count changes, i.e. at
// most four point updates per simulated interaction.
//
// Layout (B = 8, one 64-byte cache line of u64):
//   * level 0 — the leaves — is the weight vector itself, unpadded; it
//     doubles as the get() mirror and as Protocol::counts().  Being a plain
//     std::vector, it is only malloc-aligned (16 bytes), so an 8-leaf group
//     may straddle two lines;
//   * level k >= 1 holds ceil(n / 8^k) entries, entry e being the sum of
//     level-(k-1) group e (entries 8e .. 8e+7).  Each level is zero-padded
//     to whole groups and every group starts on a 64-byte boundary;
//   * the top level has at most 8 entries, i.e. one line (with n <= 8 the
//     leaves themselves are the top).
// find() walks one line per level: ~7 dependent line loads at 10^6 slots
// against ~20 for a binary-indexed tree; add() writes one word per level.
// Memory is n + ~n/7 words (~9.1 B per slot), versus 2n + 1 for a
// binary-indexed tree with a leaf mirror.
//
// Range: the total weight is capped at 2^63 - 1 (checked on every
// positive update and on assign()), so every weight, every partial sum and
// every set() delta fits the signed 64-bit deltas add() takes.
#pragma once

#include <array>
#include <cstddef>
#include <new>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pp {

class Fenwick {
 public:
  Fenwick() = default;
  explicit Fenwick(u64 size) { reset(size); }

  /// Largest total weight the tree holds.
  static constexpr u64 kMaxTotal = (static_cast<u64>(1) << 63) - 1;

  /// Re-initialises to `size` zero weights.
  void reset(u64 size);

  /// Re-initialises to hold `weights` verbatim (taken by value: callers
  /// move, the vector becomes the leaf level).  O(n) — each internal entry
  /// is summed once — versus the O(n log n) of reset() + n add()s; the
  /// schedulers' pair-sampler layer builds Θ(n^2)-slot trees per run and
  /// leans on the difference.
  void assign(std::vector<u64> weights);

  /// Re-initialises to weight(i) for i < size, in one O(n) pass that
  /// reuses the existing storage (no allocation when the size is
  /// unchanged, and never a second live copy of the tree).
  template <typename WeightFn>
  void assign(u64 size, WeightFn weight) {
    leaf_.resize(size);
    for (u64 i = 0; i < size; ++i) leaf_[i] = weight(i);
    build();
  }

  u64 size() const { return leaf_.size(); }

  /// Sum of all weights.
  u64 total() const { return total_; }

  /// Current weight at index i.
  u64 get(u64 i) const {
    PP_DCHECK(i < leaf_.size());
    return leaf_[i];
  }

  /// All weights, unpadded (the leaf level).
  const std::vector<u64>& weights() const { return leaf_; }

  /// Adds (possibly negative) `delta` to index i.  The caller guarantees the
  /// resulting weight is non-negative and the total stays <= kMaxTotal;
  /// both are checked.
  void add(u64 i, i64 delta);

  /// Sets index i to `w`.
  void set(u64 i, u64 w);

  /// Prefix sum of weights with index < i (i may equal size()).
  u64 prefix(u64 i) const;

  /// Given `target` in [0, total()), returns the unique index i such that
  /// prefix(i) <= target < prefix(i+1); i.e. samples i with probability
  /// weight(i)/total() when `target` is uniform.  One group scan per level.
  u64 find(u64 target) const {
    u64 offset = 0;
    return find(target, offset);
  }

  /// find() that also reports where `target` falls inside slot i:
  /// offset = target - prefix(i), so 0 <= offset < get(i).  Free — it is
  /// what the descent has left of `target` at the leaf — and it locates
  /// slot i's whole range [target - offset, target - offset + get(i))
  /// without a prefix() walk.
  u64 find(u64 target, u64& offset) const;

 private:
  static constexpr u64 kB = 8;  // entries per group = u64 per cache line
  static constexpr std::size_t kLine = 64;
  // ceil(log_8(2^64)) internal levels suffice for any u64 size.
  static constexpr u64 kMaxLevels = 22;

  // Minimal allocator handing out cache-line-aligned storage.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    LineAllocator() = default;
    template <typename U>
    explicit LineAllocator(const LineAllocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kLine}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{kLine});
    }
    bool operator==(const LineAllocator&) const { return true; }
  };

  /// Sizes the internal levels for leaf_.size() and fills them (and
  /// total_) from the leaves.
  void build();

  std::vector<u64> leaf_;                       // level 0: the weights
  std::vector<u64, LineAllocator<u64>> node_;   // levels 1..levels_
  std::array<u64, kMaxLevels + 1> level_at_{};  // word offset of level k
  u64 levels_ = 0;                              // internal levels
  u64 total_ = 0;
};

}  // namespace pp
