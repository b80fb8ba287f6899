// Policy explorer: run the installer's static analysis on a program and
// dump what it found -- the per-site policies (in the paper's §3.1 "Permit
// open from location ..." form), the inlining report, argument-coverage
// statistics (Table 3), and a comparison against a training-derived policy
// (Tables 1/2 in miniature).
//
//   ./example_policy_explorer [bison|calc|screen|tar|gzip] [linux|bsd]
#include <cstdio>
#include <cstring>
#include <set>

#include "analysis/argclass.h"
#include "core/asc.h"
#include "installer/policygen.h"
#include "monitor/systrace.h"
#include "monitor/training.h"

using namespace asc;

int main(int argc, char** argv) {
  const std::string prog = argc > 1 ? argv[1] : "bison";
  const os::Personality pers = (argc > 2 && std::strcmp(argv[2], "bsd") == 0)
                                   ? os::Personality::BsdSim
                                   : os::Personality::LinuxSim;
  binary::Image img = [&] {
    for (auto& [n, i] : apps::build_all(pers)) {
      if (n == prog) return i;
    }
    std::fprintf(stderr, "unknown program %s\n", prog.c_str());
    std::exit(1);
  }();

  std::printf("=== %s on %s ===\n", prog.c_str(), os::personality_name(pers).c_str());
  auto gp = installer::generate_policies(img, pers);

  std::printf("\n-- installer pipeline --\n");
  std::printf("stubs/wrappers inlined: %zu definitions at %zu call sites (%zu removed)\n",
              gp.inline_report.stubs_found, gp.inline_report.call_sites_inlined,
              gp.inline_report.stubs_removed);
  for (const auto& w : gp.warnings) std::printf("REPORT: %s\n", w.c_str());

  const auto cov = analysis::compute_arg_coverage(gp.scan);
  std::printf("\n-- argument coverage (Table 3 row) --\n");
  std::printf("sites=%zu calls=%zu args=%zu output-only=%zu auth=%zu mv=%zu fds=%zu\n",
              cov.sites, cov.calls, cov.args, cov.output_only, cov.auth, cov.multi_value,
              cov.fds);

  std::printf("\n-- system calls permitted by the ASC policy --\n");
  for (const auto& name : analysis::distinct_syscalls(gp.scan)) std::printf("%s ", name.c_str());
  std::printf("\n\n-- first five per-site policies --\n");
  for (std::size_t i = 0; i < gp.policies.size() && i < 5; ++i) {
    std::printf("%s\n", gp.policies[i].to_string().c_str());
  }

  if (pers == os::Personality::LinuxSim && (prog == "bison" || prog == "calc")) {
    std::printf("-- vs a training-derived policy --\n");
    System sys(pers, test_key(), os::Enforcement::Off);
    auto& fs = sys.kernel().fs();
    std::string gram;
    for (int i = 0; i < 20; ++i) gram += "rule: tok\n";
    auto ino = fs.open("/", "/gram.y", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(gram.begin(), gram.end()), false);
    monitor::TrainingRun run{{"/gram.y"}, ""};
    if (prog == "calc") run = {{}, "add 1 2\nmul 3 4\n"};
    auto trained = monitor::train_policy(sys.machine(), img, {run});
    std::set<std::string> trained_names;
    for (auto n : trained.allowed) {
      if (auto id = os::syscall_from_number(pers, n)) {
        trained_names.insert(os::signature(*id).name);
      }
    }
    std::printf("training observed %zu distinct calls; static analysis found %zu\n",
                trained_names.size(), analysis::distinct_syscalls(gp.scan).size());
    std::printf("calls ONLY static analysis finds:");
    for (const auto& n : analysis::distinct_syscalls(gp.scan)) {
      if (trained_names.count(n) == 0) std::printf(" %s", n.c_str());
    }
    std::printf("\n(these are the untrained error/feature paths -- each one a\n"
                " potential false alarm for a training-based monitor)\n");
  }
  return 0;
}
