#include "ds/fenwick.hpp"

#include <algorithm>
#include <utility>

namespace pp {

void Fenwick::reset(u64 size) {
  leaves_.w.assign(size, 0);
  build([this](u64 i, bool&) { return leaves_(i); });
}

void Fenwick::assign(std::vector<u64> weights) {
  leaves_.w = std::move(weights);
  build([this](u64 i, bool&) { return leaves_(i); });
}

void Fenwick::add(u64 i, i64 delta) {
  PP_DCHECK(i < size());
  if (delta == 0) return;
  // Two's complement: adding d modulo 2^64 adds delta.
  const u64 d = static_cast<u64>(delta);
  if (delta < 0) {
    PP_ASSERT_MSG(leaves_.w[i] >= 0 - d, "Fenwick weight underflow");
  } else {
    PP_ASSERT_MSG(d <= kMaxTotal - total(),
                  "Fenwick total weight exceeds 2^63 - 1");
  }
  leaves_.w[i] += d;
  propagate(i, d);
}

void Fenwick::set(u64 i, u64 w) {
  PP_ASSERT_MSG(w <= kMaxTotal, "Fenwick total weight exceeds 2^63 - 1");
  add(i, static_cast<i64>(w) - static_cast<i64>(leaves_.w[i]));
}

u64 PairWeightTree::reset(const u64* counts, u64 n) {
  leaves_ = PairWeights{counts, n};
  u64 largest = 0;
  build([&](u64 i, bool& wrapped) {
    const u64 c = counts[i];
    largest = std::max(largest, c);
    u64 w = 0;
    wrapped |= __builtin_mul_overflow(c, c - 1, &w);  // c = 0: 0
    return w;
  });
  return largest;
}

void PairWeightTree::count_changed(u64 i, u64 before) {
  PP_DCHECK(i < size());
  const u64 c = leaves_.counts[i];
  u64 w = 0;
  const bool wrapped = __builtin_mul_overflow(c, c - 1, &w);
  const u64 old = before * (before - 1);
  if (w == old && !wrapped) return;
  // A growing weight must keep the total within kMaxTotal; a shrinking
  // one cannot underflow, `old` being the exact weight the tree holds.
  PP_ASSERT_MSG(!wrapped && (w < old || w - old <= kMaxTotal - total()),
                "Fenwick total weight exceeds 2^63 - 1");
  propagate(i, w - old);
}

}  // namespace pp
