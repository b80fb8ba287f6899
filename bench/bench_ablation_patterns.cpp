// Ablation: the §5.1 proof-hint design.
//
// Compares the work of full pattern MATCHING (what the untrusted
// application does, exponential in the worst case for a backtracking
// matcher) with hint VERIFICATION (what the kernel does, one linear scan).
// This is the quantitative argument for moving the matching out of the
// kernel -- the verification side runs inside the Asc enforcement mode's
// checker at trap time, so its cost is part of the per-trap enforcement
// budget.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "policy/pattern.h"

namespace {

using namespace asc;

std::string pathological_pattern(int stars) {
  std::string p;
  for (int i = 0; i < stars; ++i) p += "a*";
  p += "b";
  return p;
}

void run_table() {
  std::printf("\n=== Ablation: pattern match vs hint verification ===\n");
  std::printf("%-28s %14s %14s %9s\n", "pattern / argument", "match (ns)", "verify (ns)",
              "verified");
  struct Case {
    std::string name;
    std::string pattern;
    std::string arg;
  };
  std::vector<Case> cases = {
      {"/tmp/* (short)", "/tmp/*", "/tmp/f123"},
      {"{foo,bar}*baz", "/tmp/{foo,bar}*baz", "/tmp/foofoobaz"},
  };
  // The pathological family: matching a*a*...b backtracks, verifying its
  // hint is one scan whatever the star count.
  for (const int stars : {2, 7, 12}) {
    cases.push_back({"a*a*...b (" + std::to_string(stars) + " stars, match)",
                     pathological_pattern(stars), std::string(2 * stars, 'a') + "b"});
  }
  cases.push_back({"a*a*...b (12 stars, MISS)", pathological_pattern(12), std::string(24, 'a')});
  for (const auto& c : cases) {
    const int reps = 200;
    auto t0 = std::chrono::steady_clock::now();
    std::optional<std::vector<std::uint32_t>> hint;
    for (int i = 0; i < reps; ++i) hint = policy::match_and_prove(c.pattern, c.arg);
    auto t1 = std::chrono::steady_clock::now();
    const double match_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
    if (!hint.has_value()) {
      std::printf("%-28s %14.0f %14s %9s\n", c.name.c_str(), match_ns, "-", "-");
      continue;
    }
    // Counting the verdicts keeps every timed call's result in use.
    int verified = 0;
    auto v0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) verified += policy::verify_match(c.pattern, c.arg, *hint);
    auto v1 = std::chrono::steady_clock::now();
    const double verify_ns = std::chrono::duration<double, std::nano>(v1 - v0).count() / reps;
    std::printf("%-28s %14.0f %14.0f %5d/%d\n", c.name.c_str(), match_ns, verify_ns, verified,
                reps);
  }
  std::printf("(the kernel only ever pays the verify column; a mismatch with a\n"
              " pathological pattern would otherwise burn kernel time -- the §3.2\n"
              " denial-of-service concern)\n");
}

}  // namespace

int main() {
  run_table();
  return 0;
}
