// Table 1: number of distinct system calls in policies.
//
// Columns: ASC policy generated on LinuxSim, ASC policy generated on BsdSim
// (static analysis, both), and the published-Systrace-style policy
// (training + fsread/fswrite generalization) -- for bison, calc and screen.
//
// The training column depends on the trace/audit split of the pipeline:
// train_policy clears the kernel trace between sample runs while the audit
// log (AuditLog::reset is separate) survives. See os/auditlog.h.
#include <cstdio>
#include <set>

#include "core/asc.h"
#include "monitor/systrace.h"
#include "monitor/training.h"

namespace {

using namespace asc;

void prepare_fs(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  std::string gram;
  for (int i = 0; i < 25; ++i) gram += "rule: tok\n";
  put("/gram.y", gram);
}

std::size_t asc_policy_size(os::Personality pers, const binary::Image& img) {
  installer::Installer inst(test_key(), pers);
  auto gp = inst.analyze(img);
  std::set<std::string> names;
  for (const auto& p : gp.policies) names.insert(os::signature(p.sys).name);
  return names.size();
}

/// Training runs model what a user would exercise while building a profile:
/// the main feature path only.
std::vector<monitor::TrainingRun> training_runs(const std::string& program) {
  if (program == "bison") return {{{"/gram.y"}, ""}, {{"/gram.y", "other.c"}, ""}};
  if (program == "calc") return {{{}, "add 1 2\nmul 3 4\nsub 9 1\n"}, {{}, "div 8 2\n"}};
  return {{{"main"}, ""}};  // screen: one ordinary session
}

struct Row {
  const char* program;
  int paper_linux;
  int paper_bsd;
  int paper_systrace;
};

constexpr Row kRows[] = {
    {"bison", 31, 31, 24},
    {"calc", 54, 51, 24},
    {"screen", 67, 63, 55},
};

binary::Image build(const std::string& name, os::Personality p) {
  if (name == "bison") return apps::build_bison(p);
  if (name == "calc") return apps::build_calc(p);
  return apps::build_screen(p);
}

void run_table() {
  std::printf("\n=== Table 1: Number of system calls in policies ===\n");
  std::printf("%-8s %11s %11s %14s | %8s %8s %10s\n", "Program", "ASC(Linux)", "ASC(Bsd)",
              "Systrace(pub)", "paperLin", "paperBsd", "paperSystr");
  for (const Row& row : kRows) {
    const std::size_t lin = asc_policy_size(os::Personality::LinuxSim,
                                            build(row.program, os::Personality::LinuxSim));
    const std::size_t bsd = asc_policy_size(os::Personality::BsdSim,
                                            build(row.program, os::Personality::BsdSim));
    // Published Systrace policy: trained on BsdSim (as in the paper), then
    // generalized with the fsread/fswrite aliases; the policy "size" counts
    // the names the policy file lists (aliases count as one each).
    System sys(os::Personality::BsdSim, test_key(), os::Enforcement::Off);
    prepare_fs(sys.kernel().fs());
    auto img = build(row.program, os::Personality::BsdSim);
    auto trained = monitor::train_policy(sys.machine(), img, training_runs(row.program));
    auto pub = monitor::make_published_policy(trained, os::Personality::BsdSim);
    std::printf("%-8s %11zu %11zu %14zu | %8d %8d %10d\n", row.program, lin, bsd,
                pub.named.size(), row.paper_linux, row.paper_bsd, row.paper_systrace);
  }
  std::printf("(shape checks: static analysis finds more calls than training;\n"
              " Linux and Bsd policy sets differ for the same program)\n");
}

}  // namespace

int main() {
  run_table();
  return 0;
}
