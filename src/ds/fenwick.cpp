#include "ds/fenwick.hpp"

#include <algorithm>
#include <utility>

namespace pp {

void Fenwick::reset(u64 size) {
  zeroed_resize(leaves_.w, size);
  build([this](u64 i, bool&) { return leaves_(i); });
}

void Fenwick::assign(std::vector<u64> weights) {
  leaves_.w = std::move(weights);
  build([this](u64 i, bool&) { return leaves_(i); });
}

u64 Fenwick::shifted(u64 i, i64 delta) const {
  // Two's complement: adding d modulo 2^64 adds delta.
  const u64 d = static_cast<u64>(delta);
  PP_ASSERT_MSG(delta >= 0 || leaves_.w[i] >= 0 - d,
                "Fenwick weight underflow");
  return leaves_.w[i] + d;
}

void Fenwick::add(u64 i, i64 delta) {
  PP_DCHECK(i < size());
  if (delta == 0) return;
  const u64 d = static_cast<u64>(delta);
  const u64 w = shifted(i, delta);
  PP_ASSERT_MSG(delta < 0 || d <= kMaxTotal - total(),
                "Fenwick total weight exceeds 2^63 - 1");
  leaves_.w[i] = w;
  propagate(i, d, i, 0);
}

void Fenwick::add(u64 i, i64 di, u64 j, i64 dj) {
  PP_DCHECK(i < size() && j < size() && i != j);
  const u64 wi = shifted(i, di);
  const u64 wj = shifted(j, dj);
  // Every weight is part of the total, so `rest` cannot underflow, and
  // each new weight is below 2^64 (old weight and delta are both <= the
  // cap); only their sum can wrap.
  const u64 rest = total() - leaves_.w[i] - leaves_.w[j];
  u64 sum = 0;
  const bool wrapped = __builtin_add_overflow(wi, wj, &sum);
  PP_ASSERT_MSG(!wrapped && sum <= kMaxTotal - rest,
                "Fenwick total weight exceeds 2^63 - 1");
  propagate(i, wi - leaves_.w[i], j, wj - leaves_.w[j]);
  leaves_.w[i] = wi;
  leaves_.w[j] = wj;
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
  // A growing weight must keep the total within kMaxTotal; a shrinking
  // one cannot underflow, `old` being the exact weight the tree holds.
  PP_ASSERT_MSG(!wrapped && (w <= old || w - old <= kMaxTotal - total()),
                "Fenwick total weight exceeds 2^63 - 1");
  propagate(i, w - old, i, 0);
}

void PairWeightTree::count_changed(u64 i, u64 before_i, u64 j,
                                   u64 before_j) {
  PP_DCHECK(i < size() && j < size() && i != j);
  const u64 ci = leaves_.counts[i];
  const u64 cj = leaves_.counts[j];
  u64 wi = 0;
  u64 wj = 0;
  u64 sum = 0;
  bool wrapped = __builtin_mul_overflow(ci, ci - 1, &wi);
  wrapped |= __builtin_mul_overflow(cj, cj - 1, &wj);
  wrapped |= __builtin_add_overflow(wi, wj, &sum);
  // The old weights are exactly what the tree holds, so `rest` cannot
  // underflow.
  const u64 old_i = before_i * (before_i - 1);
  const u64 old_j = before_j * (before_j - 1);
  const u64 rest = total() - old_i - old_j;
  PP_ASSERT_MSG(!wrapped && sum <= kMaxTotal - rest,
                "Fenwick total weight exceeds 2^63 - 1");
  propagate(i, wi - old_i, j, wj - old_j);
}

}  // namespace pp
