// Statistics helpers of the poprank benchmark, header-only so the driver
// and its self-test (selftest.cpp) share one definition.
//
//   * median / quartiles: Python's statistics.median and
//     statistics.quantiles(data, n=4) (the default "exclusive" method), so
//     the spreads the driver prints match the ones a reader recomputes;
//   * tail rule: a timing is reported as its median and the highest
//     integer percentile that still has at least 10 samples beyond it;
//   * same_record: the bit-for-bit comparator behind the replay check;
//   * RecordDigest: the per-workload trajectory digest.
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/types.hpp"
#include "runner/runner.hpp"

namespace pp::perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// The three cut points of statistics.quantiles(v, n=4), exclusive method.
/// Needs at least two samples; with fewer, every cut point is the sample.
inline std::vector<double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return std::vector<double>(3, v.empty() ? 0 : v[0]);
  std::sort(v.begin(), v.end());
  const i64 ld = static_cast<i64>(v.size());
  const i64 m = ld + 1;
  const i64 n = 4;
  std::vector<double> out;
  for (i64 i = 1; i < n; ++i) {
    i64 j = i * m / n;
    j = std::clamp<i64>(j, 1, ld - 1);
    const i64 delta = i * m - j * n;
    out.push_back((v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                   v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

/// Median, tail and sample count of one timing.  `tail` is the value at
/// the highest integer percentile p with at least 10 samples above it
/// (nearest-rank); with 10 samples or fewer no percentile qualifies, so
/// `tail` is the maximum and `tail_pct` reads 100.
struct TimingSummary {
  double p50 = 0;
  double tail = 0;
  u64 tail_pct = 100;
  u64 samples = 0;
};

inline TimingSummary summarize_timing(std::vector<double> v) {
  TimingSummary s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  const u64 n = v.size();
  if (n <= 10) {
    s.tail = v.back();
    s.tail_pct = 100;
    return s;
  }
  s.tail_pct = 100 * (n - 10) / n;
  const u64 rank = (s.tail_pct * n + 99) / 100;  // nearest rank, 1-based
  s.tail = v[rank - 1];
  return s;
}

/// True iff two trial records agree bit for bit (parallel time compared
/// as its bit pattern, so -0.0 and NaN payloads are not glossed over).
inline bool same_record(const TrialRecord& a, const TrialRecord& b) {
  u64 ta = 0;
  u64 tb = 0;
  std::memcpy(&ta, &a.parallel_time, sizeof ta);
  std::memcpy(&tb, &b.parallel_time, sizeof tb);
  return a.trial == b.trial && a.seed == b.seed &&
         a.interactions == b.interactions &&
         a.productive_steps == b.productive_steps &&
         a.fault_events == b.fault_events && ta == tb &&
         a.silent == b.silent && a.valid == b.valid;
}

/// FNV-1a 64 over the deterministic fields of a record sequence.
class RecordDigest {
 public:
  void add(const TrialRecord& r) {
    u64 t = 0;
    std::memcpy(&t, &r.parallel_time, sizeof t);
    for (const u64 w : {r.trial, r.seed, r.interactions, r.productive_steps,
                        r.fault_events, t, static_cast<u64>(r.silent),
                        static_cast<u64>(r.valid)}) {
      for (int b = 0; b < 8; ++b) {
        h_ ^= (w >> (8 * b)) & 0xffu;
        h_ *= 0x100000001b3ULL;
      }
    }
  }
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

}  // namespace pp::perfbench
