#include "ds/fenwick.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"

namespace pp {
namespace {

constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

// Within one group of `len` entries whose sum exceeds `rem`: returns the
// first j with w[0] + .. + w[j] > rem and subtracts w[0] + .. + w[j-1] from
// rem.  Branch-free: the last entry never needs testing.
u64 scan(const u64* w, u64 len, u64& rem) {
  u64 j = 0;
  u64 acc = 0;
  u64 skipped = 0;
  for (u64 c = 0; c + 1 < len; ++c) {
    acc += w[c];
    const bool before = acc <= rem;
    j += before;
    skipped = before ? acc : skipped;
  }
  rem -= skipped;
  return j;
}

}  // namespace

void Fenwick::reset(u64 size) {
  assign(size, [](u64) { return static_cast<u64>(0); });
}

void Fenwick::assign(std::vector<u64> weights) {
  leaf_ = std::move(weights);
  build();
}

void Fenwick::build() {
  const u64 n = leaf_.size();
  levels_ = 0;
  u64 words = 0;
  for (u64 m = n; m > kB;) {
    m = ceil_div(m, kB);
    level_at_[++levels_] = words;
    words += ceil_div(m, kB) * kB;
  }
  node_.resize(words);

  // Leaves -> level 1, plus the overflow-checked total.  Each group sum is
  // a difference of running totals, so one checked add per leaf covers
  // every entry of the tree: none exceeds the total.
  bool wrapped = false;
  u64 t = 0;
  for (u64 g = 0; g * kB < n; ++g) {
    const u64 before = t;
    const u64 end = std::min(n, g * kB + kB);
    for (u64 i = g * kB; i < end; ++i) {
      wrapped |= __builtin_add_overflow(t, leaf_[i], &t);
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

void Fenwick::add(u64 i, i64 delta) {
  PP_DCHECK(i < leaf_.size());
  if (delta == 0) return;
  // Two's complement: adding d modulo 2^64 adds delta.
  const u64 d = static_cast<u64>(delta);
  if (delta < 0) {
    PP_ASSERT_MSG(leaf_[i] >= 0 - d, "Fenwick weight underflow");
  } else {
    PP_ASSERT_MSG(d <= kMaxTotal - total_,
                  "Fenwick total weight exceeds 2^63 - 1");
  }
  leaf_[i] += d;
  total_ += d;
#if PP_OBS
  if (obs::active()) {
    obs::bump(obs::Counter::kFenwickUpdates);
    obs::record(obs::Sketch::kFenwickDepth, levels_ + 1);
  }
#endif
  for (u64 k = 1; k <= levels_; ++k) {
    i /= kB;
    node_[level_at_[k] + i] += d;
  }
}

void Fenwick::set(u64 i, u64 w) {
  PP_ASSERT_MSG(w <= kMaxTotal, "Fenwick total weight exceeds 2^63 - 1");
  add(i, static_cast<i64>(w) - static_cast<i64>(leaf_[i]));
}

u64 Fenwick::prefix(u64 i) const {
  PP_DCHECK(i <= leaf_.size());
  // Left siblings of i within its group, then of its ancestor on each
  // level up; the top level (at most one group) is summed from its start.
  u64 sum = 0;
  const u64* level = leaf_.data();
  for (u64 k = 1; k <= levels_; ++k) {
    for (u64 j = i - i % kB; j < i; ++j) sum += level[j];
    i /= kB;
    level = node_.data() + level_at_[k];
  }
  for (u64 j = 0; j < i; ++j) sum += level[j];
  return sum;
}

u64 Fenwick::find(u64 target, u64& offset) const {
  PP_DCHECK(target < total_);
  // Invariant: `rem` is below the sum of the group being scanned, so each
  // scan stops inside the group (and never on a zero-weight entry).
  u64 rem = target;
  u64 g = 0;
  for (u64 k = levels_; k > 0; --k) {
    g = g * kB + scan(node_.data() + level_at_[k] + g * kB, kB, rem);
  }
  const u64 first = g * kB;
  const u64 i = first + scan(leaf_.data() + first,
                             std::min(kB, leaf_.size() - first), rem);
  PP_DCHECK(i < leaf_.size() && leaf_[i] > rem);
  offset = rem;
  return i;
}

}  // namespace pp
