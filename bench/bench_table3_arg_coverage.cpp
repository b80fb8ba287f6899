// Table 3: argument coverage of the basic approach.
//
// For bison/calc/screen/tar: number of call sites, distinct calls, total
// arguments, output-only arguments (o/p), arguments protectable by the
// basic static analysis (auth), multi-value arguments (mv), and fd
// arguments traceable to fd-returning calls (fds). Pure installer-side
// analysis: measures policy CONTENT, independent of which enforcement
// mode later enforces it.
#include <cstdio>

#include "analysis/argclass.h"
#include "core/asc.h"
#include "installer/policygen.h"

namespace {

using namespace asc;

struct Row {
  const char* program;
  // Paper values for side-by-side comparison.
  int p_sites, p_calls, p_args, p_op, p_auth, p_mv, p_fds;
};

constexpr Row kRows[] = {
    {"bison", 158, 31, 321, 31, 90, 2, 69},
    {"calc", 275, 54, 544, 78, 183, 2, 109},
    {"screen", 639, 67, 1164, 133, 363, 7, 297},
    {"tar", 381, 58, 750, 105, 238, 3, 152},
};

binary::Image build(const std::string& name, os::Personality p) {
  if (name == "bison") return apps::build_bison(p);
  if (name == "calc") return apps::build_calc(p);
  if (name == "screen") return apps::build_screen(p);
  return apps::build_tar(p);
}

void run_table() {
  std::printf("\n=== Table 3: Argument coverage (measured | paper) ===\n");
  std::printf("%-8s %6s %6s %6s %5s %6s %4s %5s | %6s %6s %6s %5s %6s %4s %5s\n", "prog",
              "sites", "calls", "args", "o/p", "auth", "mv", "fds", "sites", "calls", "args",
              "o/p", "auth", "mv", "fds");
  double measured_ratio_sum = 0;
  for (const Row& row : kRows) {
    auto gp = installer::generate_policies(build(row.program, os::Personality::LinuxSim),
                                           os::Personality::LinuxSim);
    const auto c = analysis::compute_arg_coverage(gp.scan);
    std::printf("%-8s %6zu %6zu %6zu %5zu %6zu %4zu %5zu | %6d %6d %6d %5d %6d %4d %5d\n",
                row.program, c.sites, c.calls, c.args, c.output_only, c.auth, c.multi_value,
                c.fds, row.p_sites, row.p_calls, row.p_args, row.p_op, row.p_auth, row.p_mv,
                row.p_fds);
    if (c.args > 0) measured_ratio_sum += static_cast<double>(c.auth) / static_cast<double>(c.args);
  }
  std::printf("\nmean auth/args ratio (paper reports 30-40%% protectable): %.1f%%\n",
              measured_ratio_sum / 4 * 100.0);
}

}  // namespace

int main() {
  run_table();
  return 0;
}
