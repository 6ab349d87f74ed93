// The paper's central trade-off, live: how many extra states do you pay
// for how much stabilisation time?
//
// Runs all four protocols at (nearly) the same population size from the
// same uniformly random chaos and prints extra-state usage next to
// measured stabilisation time.
//
//   $ ./state_time_tradeoff [n] [trials]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "protocols/factory.hpp"
#include "runner/runner.hpp"

int main(int argc, char** argv) {
  const pp::u64 n_hint =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 960;
  const pp::u64 trials = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  std::printf("state/time trade-off from uniform-random starts, n ~ %llu\n\n",
              static_cast<unsigned long long>(n_hint));
  std::printf("%-16s %8s %12s %14s %14s   %s\n", "protocol", "n", "extra",
              "mean time", "median", "paper bound");

  struct Entry {
    const char* name;
    const char* bound;
  };
  const Entry entries[] = {
      {"ag", "Theta(n^2)"},
      {"ring-of-traps", "O(min(k n^1.5, n^2 log^2 n))"},
      {"line-of-traps", "O(n^1.75 log^2 n)"},
      {"tree-ranking", "O(n log n)"},
  };

  for (const auto& e : entries) {
    const pp::u64 n = pp::preferred_population(e.name, n_hint);
    pp::TrialSpec spec;
    spec.protocol = e.name;
    spec.n = n;
    spec.label = std::string("tradeoff-example-") + e.name;
    pp::RunnerOptions opt;
    opt.trials = trials;
    const pp::Summary s = pp::run_trials(spec, opt).summary();
    const pp::ProtocolPtr probe = pp::make_protocol(e.name, n);
    std::printf("%-16s %8llu %12llu %14.1f %14.1f   %s\n", e.name,
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(probe->num_extra_states()),
                s.mean, s.median, e.bound);
  }
  std::printf(
      "\nreading guide: O(log n) extra states buy near-linear time "
      "(tree-ranking); zero/one extra states keep times near-quadratic on "
      "arbitrary starts but enable the k-distant/o(n^2) wins of E2/E4.\n");
  return 0;
}
