// Cache-line B-ary sum trees over u64 weights with O(log n) point updates,
// prefix sums, and weighted sampling (named for the Fenwick-tree API they
// offer).  find()'s contract (below) does not depend on the layout, so
// the layout can change without changing any sampled trajectory.
//
// This is the simulator's hot data structure.  Each protocol keeps
//   * a Fenwick of raw per-state agent counts, used to sample uniform
//     interaction partners; its leaves are the counts themselves, and
//   * a PairWeightTree of per-rank-state "productive weights" c_s(c_s - 1),
//     used to sample the next productive interaction.  It stores no leaves:
//     it reads c_s from the count tree's leaves and keeps only its
//     internal levels.
// An interaction moves at most two agents, and each move is one two-leaf
// update per tree (SumTree::propagate): below the lowest common ancestor
// of the two leaves each side has its own walk, above it one walk carries
// the summed delta and stops once that sum is zero.  A move nets to zero
// on the count tree, so a move between neighbouring states (ag, the
// ring's inner rule) writes no internal entry there 7 times in 8.
//
// One implementation, SumTree<Leaves>, holds the layout, the build, the
// descent and the update; the two trees differ only in where leaf i's
// weight comes from (the Leaves policy) and in their mutation API.
//
// Layout (B = 8, one 64-byte cache line of u64):
//   * level 0 — the leaves — is the weight vector (Fenwick: stored,
//     unpadded, only malloc-aligned, doubling as the get() mirror and as
//     Protocol::counts(); PairWeightTree: computed from the count array);
//   * level k >= 1 holds ceil(n / 8^k) entries, entry e being the sum of
//     level-(k-1) group e (entries 8e .. 8e+7).  Each level is zero-padded
//     to whole groups and every group starts on a 64-byte boundary;
//   * the top level has at most 8 entries, i.e. one line (with n <= 8 the
//     leaves themselves are the top).
// find() walks one line per level: ~7 dependent line loads at 10^6 slots
// against ~20 for a binary-indexed tree; an update writes at most one word
// per internal level and side.  Memory: the internal levels take ~n/7
// words (~1.1 B per slot), so a Fenwick is ~9.1 B per slot and a
// PairWeightTree ~1.1 B; from 2 MiB up they sit on transparent huge pages
// (common/huge_pages.hpp).
//
// Range: the total weight is capped at 2^63 - 1 (checked on every
// positive update and on every build), so every weight, every partial sum
// and every update delta fits the signed 64-bit deltas add() takes.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/huge_pages.hpp"
#include "common/types.hpp"
#include "obs/counters.hpp"

namespace pp {

/// Leaf policy of Fenwick: the weights themselves, stored.
struct StoredWeights {
  std::vector<u64> w;
  u64 size() const { return w.size(); }
  u64 operator()(u64 i) const { return w[i]; }
};

/// Leaf policy of PairWeightTree: leaf i weighs c(c - 1), c = counts[i],
/// read from an array the tree does not own.
struct PairWeights {
  const u64* counts = nullptr;
  u64 n = 0;
  u64 size() const { return n; }
  // c = 0 gives 0 * (2^64 - 1) = 0: no branch needed.
  u64 operator()(u64 i) const { return counts[i] * (counts[i] - 1); }
};

template <typename Leaves>
class SumTree {
 public:
  /// Largest total weight the tree holds.
  static constexpr u64 kMaxTotal = (static_cast<u64>(1) << 63) - 1;

  u64 size() const { return leaves_.size(); }

  /// Sum of all weights.
  u64 total() const { return total_; }

  /// Current weight at index i.
  u64 get(u64 i) const {
    PP_DCHECK(i < size());
    return leaves_(i);
  }

  /// Prefix sum of weights with index < i (i may equal size()).
  u64 prefix(u64 i) const {
    PP_DCHECK(i <= size());
    // Left siblings of i within its group, then of its ancestor on each
    // level up; the top level (at most one group) is summed from its
    // start.  With no internal level the leaves are the top.
    u64 sum = 0;
    for (u64 j = levels_ == 0 ? 0 : i - i % kB; j < i; ++j) sum += leaves_(j);
    if (levels_ == 0) return sum;
    i /= kB;
    for (u64 k = 1; k <= levels_; ++k) {
      const u64* level = node_.data() + level_at_[k];
      for (u64 j = k == levels_ ? 0 : i - i % kB; j < i; ++j) {
        sum += level[j];
      }
      i /= kB;
    }
    return sum;
  }

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
  u64 find(u64 target, u64& offset) const {
    PP_DCHECK(target < total_);
    // Invariant: `rem` is below the sum of the group being scanned, so each
    // scan stops inside the group (and never on a zero-weight entry).
    u64 rem = target;
    u64 g = 0;
    for (u64 k = levels_; k > 0; --k) {
      const u64* group = node_.data() + level_at_[k] + g * kB;
      g = g * kB + scan([group](u64 c) { return group[c]; }, kB, rem);
    }
    const u64 first = g * kB;
    const u64 i =
        first + scan([this, first](u64 c) { return leaves_(first + c); },
                     std::min(kB, size() - first), rem);
    PP_DCHECK(i < size() && leaves_(i) > rem);
    offset = rem;
    return i;
  }

  /// The internal levels as stored, padding included.  A tree updated in
  /// place holds the same words as one built from its current weights.
  std::span<const u64> internal_levels() const { return node_; }

 protected:
  SumTree() = default;
  ~SumTree() = default;

  /// Sizes the internal levels for size() leaves and fills them (and
  /// total_) in one pass over the leaves.  `load(i, wrapped)` returns leaf
  /// i's weight and sets `wrapped` when computing it overflowed; the build
  /// aborts on that or on a total past kMaxTotal.
  template <typename Load>
  void build(Load load) {
    const u64 n = size();
    levels_ = 0;
    u64 words = 0;
    for (u64 m = n; m > kB;) {
      m = ceil_div(m, kB);
      level_at_[++levels_] = words;
      words += ceil_div(m, kB) * kB;
    }
    zeroed_resize(node_, words);

    // Leaves -> level 1, plus the overflow-checked total.  Each group sum
    // is a difference of running totals, so one checked add per leaf
    // covers every entry of the tree: none exceeds the total.
    bool wrapped = false;
    u64 t = 0;
    for (u64 g = 0; g * kB < n; ++g) {
      const u64 before = t;
      const u64 end = std::min(n, g * kB + kB);
      for (u64 i = g * kB; i < end; ++i) {
        const u64 w = load(i, wrapped);
        wrapped |= __builtin_add_overflow(t, w, &t);
      }
      if (levels_ > 0) node_[level_at_[1] + g] = t - before;
    }
    PP_ASSERT_MSG(!wrapped && t <= kMaxTotal,
                  "Fenwick total weight exceeds 2^63 - 1");
    total_ = t;

    // Level k >= 2 sums whole (zero-padded) groups of level k - 1; every
    // level's padding is written as zero.
    u64 m = n;
    for (u64 k = 1; k <= levels_; ++k) {
      const u64 entries = ceil_div(m, kB);
      u64* level = node_.data() + level_at_[k];
      if (k > 1) {
        const u64* below = node_.data() + level_at_[k - 1];
        for (u64 e = 0; e < entries; ++e) {
          u64 sum = 0;
          for (u64 j = 0; j < kB; ++j) sum += below[e * kB + j];
          level[e] = sum;
        }
      }
      std::fill(level + entries, level + ceil_div(entries, kB) * kB, 0);
      m = entries;
    }
  }

  /// Adds `di` to the total and to every internal entry above leaf i, and
  /// `dj` likewise for leaf j, after the leaves themselves have changed by
  /// those deltas (two's complement, range already checked by the caller).
  /// A zero delta leaves its side out, so (i, d, i, 0) updates one leaf.
  /// Below the lowest common ancestor of i and j each side has its own
  /// walk; from it up one walk carries di + dj, and stops at once when that
  /// sum is zero.
  void propagate(u64 i, u64 di, u64 j, u64 dj) {
    if (di == 0) {
      i = j;
      di = dj;
      dj = 0;
    }
    if (di == 0) return;
    if (dj == 0) j = i;  // one side: the walks meet at the first level
    total_ += di + dj;
#if PP_OBS
    if (obs::active()) {
      for (const u64 d : {di, dj}) {
        if (d == 0) continue;
        obs::bump(obs::Counter::kFenwickUpdates);
        obs::record(obs::Sketch::kFenwickDepth, levels_ + 1);
      }
    }
#endif
    u64 k = 1;
    for (; k <= levels_; ++k) {
      i /= kB;
      j /= kB;
      if (i == j) break;
      node_[level_at_[k] + i] += di;
      node_[level_at_[k] + j] += dj;
    }
    const u64 d = di + dj;
    if (d == 0) return;
    for (; k <= levels_; ++k) {
      node_[level_at_[k] + i] += d;
      i /= kB;
    }
  }

  Leaves leaves_;

 private:
  static constexpr u64 kB = 8;  // entries per group = u64 per cache line
  static constexpr std::size_t kLine = 64;
  // ceil(log_8(2^64)) internal levels suffice for any u64 size.
  static constexpr u64 kMaxLevels = 22;

  static constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

  // Within one group of `len` entries (entry c weighs w(c)) whose sum
  // exceeds `rem`: returns the first j with w(0) + .. + w(j) > rem and
  // subtracts w(0) + .. + w(j-1) from rem.  Branch-free: the last entry
  // never needs testing.
  template <typename Weight>
  static u64 scan(Weight w, u64 len, u64& rem) {
    u64 j = 0;
    u64 acc = 0;
    u64 skipped = 0;
    for (u64 c = 0; c + 1 < len; ++c) {
      acc += w(c);
      const bool before = acc <= rem;
      j += before;
      skipped = before ? acc : skipped;
    }
    rem -= skipped;
    return j;
  }

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

  std::vector<u64, LineAllocator<u64>> node_;   // levels 1..levels_
  std::array<u64, kMaxLevels + 1> level_at_{};  // word offset of level k
  u64 levels_ = 0;                              // internal levels
  u64 total_ = 0;
};

/// A sum tree that stores its weights.
class Fenwick : public SumTree<StoredWeights> {
 public:
  Fenwick() = default;
  explicit Fenwick(u64 size) { reset(size); }

  /// Re-initialises to `size` zero weights, reusing the existing storage.
  void reset(u64 size);

  /// Re-initialises to hold `weights` verbatim (taken by value: callers
  /// move, the vector becomes the leaf level).  O(n) — each internal entry
  /// is summed once — versus the O(n log n) of reset() + n add()s; the
  /// schedulers' pair-sampler layer builds Θ(n^2)-slot trees per run and
  /// leans on the difference.
  void assign(std::vector<u64> weights);

  /// All weights, unpadded (the leaf level).
  const std::vector<u64>& weights() const { return leaves_.w; }

  /// Adds (possibly negative) `delta` to index i.  The caller guarantees the
  /// resulting weight is non-negative and the total stays <= kMaxTotal;
  /// both are checked.
  void add(u64 i, i64 delta);

  /// Adds `di` to index i and `dj` to index j != i in one two-leaf update
  /// (SumTree::propagate); a move of one unit is add(from, -1, to, +1).
  /// Checked like add(): neither weight may go negative, and the new total
  /// must stay <= kMaxTotal.
  void add(u64 i, i64 di, u64 j, i64 dj);

  /// Sets index i to `w`.
  void set(u64 i, u64 w);

 private:
  /// Index i's weight after adding `delta`; aborts if it would go negative.
  u64 shifted(u64 i, i64 delta) const;
};

/// A sum tree over n slots whose weight i is c_i (c_i - 1) — the ordered
/// pairs of distinct agents in state i — for counts c read from an array
/// the caller owns (Protocol: the count tree's leaves).  It stores only
/// the internal levels.
class PairWeightTree : public SumTree<PairWeights> {
 public:
  /// Binds the tree to counts[0, n) and rebuilds it; returns the largest
  /// of those counts.  The array must stay put while the tree is used,
  /// and every change to it must be reported through count_changed().
  /// Aborts if a weight or the total exceeds kMaxTotal.
  u64 reset(const u64* counts, u64 n);

  /// Re-reads slot i after its count changed from `before`.  Bumps the
  /// obs update counters only when the weight changed.
  void count_changed(u64 i, u64 before);

  /// Re-reads slots i != j after their counts changed from `before_i` and
  /// `before_j`, in one two-leaf update.
  void count_changed(u64 i, u64 before_i, u64 j, u64 before_j);
};

}  // namespace pp
