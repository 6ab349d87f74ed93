// Self-test of the benchmark's statistics helpers (stats.hpp) on synthetic
// inputs.  perfbench/run.py runs it before every measurement; it is also
// registered with CTest in the perfbench build.  Exit code 0 = all pass.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool near3(const std::vector<double>& q, double a, double b, double c) {
  return q.size() == 3 && near(q[0], a) && near(q[1], b) && near(q[2], c);
}

std::vector<double> iota(pp::u64 n) {
  std::vector<double> v;
  // Descending, so the helpers must sort.
  for (pp::u64 i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_median_quartiles() {
  using pp::perfbench::median;
  using pp::perfbench::quartiles;
  // Expected values are Python's statistics.median / quantiles(n=4).
  expect(near(median({1, 2, 3, 4}), 2.5), "median even");
  expect(near(median({5, 1, 4, 2, 3}), 3), "median odd");
  expect(near(median({}), 0), "median empty");
  expect(near3(quartiles({1, 2, 3, 4}), 1.25, 2.5, 3.75), "quartiles 4");
  expect(near3(quartiles({5, 1, 4, 2, 3}), 1.5, 3.0, 4.5), "quartiles 5");
  expect(near3(quartiles({2.5, 10}), 0.625, 6.25, 11.875), "quartiles 2");
  expect(near3(quartiles({7, 3, 9, 1, 5, 8, 2, 6, 4, 10, 11, 12}), 3.25, 6.5,
               9.75),
         "quartiles 12");
  expect(near3(quartiles({4}), 4, 4, 4), "quartiles 1");
}

void test_tail_rule() {
  using pp::perfbench::summarize_timing;
  const auto s0 = summarize_timing({});
  expect(s0.samples == 0 && s0.p50 == 0 && s0.tail == 0, "tail empty");
  const auto s5 = summarize_timing(iota(5));
  expect(s5.tail == 5 && s5.tail_pct == 100 && s5.samples == 5,
         "tail <=10 samples falls back to the max");
  const auto s10 = summarize_timing(iota(10));
  expect(s10.tail == 10 && s10.tail_pct == 100, "tail 10 samples");
  const auto s11 = summarize_timing(iota(11));
  expect(s11.tail == 1 && s11.tail_pct == 9, "tail 11 samples");
  const auto s32 = summarize_timing(iota(32));
  expect(s32.tail == 22 && s32.tail_pct == 68 && near(s32.p50, 16.5),
         "tail 32 samples");
  const auto s100 = summarize_timing(iota(100));
  expect(s100.tail == 90 && s100.tail_pct == 90, "tail 100 samples");
  const auto s150 = summarize_timing(iota(150));
  expect(s150.tail == 140 && s150.tail_pct == 93, "tail 150 samples");
  const auto s1000 = summarize_timing(iota(1000));
  expect(s1000.tail == 990 && s1000.tail_pct == 99, "tail 1000 samples");
  // For every size: at least 10 samples lie beyond the tail value, and one
  // percentile higher would leave fewer than 10.
  bool ok = true;
  for (pp::u64 n = 11; n <= 3000; ++n) {
    const auto s = summarize_timing(iota(n));
    const pp::u64 beyond = n - static_cast<pp::u64>(s.tail);
    const pp::u64 next_rank = ((s.tail_pct + 1) * n + 99) / 100;
    ok = ok && beyond >= 10 && n - next_rank < 10;
  }
  expect(ok, "tail rule holds for 11..3000 samples");
}

void test_same_record() {
  using pp::TrialRecord;
  using pp::perfbench::same_record;
  TrialRecord a;
  a.trial = 3;
  a.seed = 0x1234;
  a.interactions = 1000;
  a.productive_steps = 77;
  a.fault_events = 2;
  a.parallel_time = 1.5;
  a.silent = true;
  a.valid = true;
  expect(same_record(a, a), "record equals itself");
  auto differs = [&](auto mutate) {
    TrialRecord b = a;
    mutate(b);
    return !same_record(a, b);
  };
  expect(differs([](TrialRecord& r) { r.trial = 4; }), "trial differs");
  expect(differs([](TrialRecord& r) { r.seed ^= 1; }), "seed differs");
  expect(differs([](TrialRecord& r) { ++r.interactions; }), "interactions");
  expect(differs([](TrialRecord& r) { ++r.productive_steps; }), "steps");
  expect(differs([](TrialRecord& r) { ++r.fault_events; }), "faults");
  expect(differs([](TrialRecord& r) { r.silent = false; }), "silent");
  expect(differs([](TrialRecord& r) { r.valid = false; }), "valid");
  expect(differs([](TrialRecord& r) {
           r.parallel_time = std::nextafter(r.parallel_time, 2.0);
         }),
         "parallel time one ulp apart");
  TrialRecord z = a;
  TrialRecord nz = a;
  z.parallel_time = 0.0;
  nz.parallel_time = -0.0;
  expect(!same_record(z, nz), "0.0 and -0.0 differ bitwise");
  TrialRecord n1 = a;
  n1.parallel_time = std::numeric_limits<double>::quiet_NaN();
  expect(same_record(n1, n1), "identical NaN bits compare equal");

  pp::perfbench::RecordDigest d1;
  pp::perfbench::RecordDigest d2;
  d1.add(a);
  d2.add(a);
  expect(d1.value() == d2.value(), "digest is deterministic");
  TrialRecord b = a;
  ++b.productive_steps;
  d2 = pp::perfbench::RecordDigest();
  d2.add(b);
  expect(d1.value() != d2.value(), "digest sees a changed field");
}

}  // namespace

int main() {
  test_median_quartiles();
  test_tail_rule();
  test_same_record();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
