// Table 2: per-syscall comparison of the bison policies on BsdSim --
// conservative static analysis (ASC) vs the published-Systrace-style policy
// (training + fsread/fswrite aliases). Like Table 1, the training side
// relies on clearing the kernel trace without touching the audit log
// (os/auditlog.h documents that partial-clearing contract).
//
// Reproduced effects:
//   * many calls only ASC finds (error paths, allocator internals, rare
//     features) -> potential Systrace false alarms,
//   * `__syscall` present in the ASC policy with its first argument
//     constrained (the BSD mmap indirection),
//   * `close` MISSING from the ASC policy because the hand-written stub
//     defeats the disassembler (and is reported),
//   * fs calls the program never makes that Systrace nevertheless permits
//     through fsread/fswrite.
#include <cstdio>
#include <map>
#include <set>

#include "core/asc.h"
#include "monitor/systrace.h"
#include "monitor/training.h"

namespace {

using namespace asc;

void run_table() {
  const auto pers = os::Personality::BsdSim;
  auto img = apps::build_bison(pers);

  // ASC policy by static analysis.
  installer::Installer inst(test_key(), pers);
  auto gp = inst.analyze(img);
  std::set<std::string> asc_names;
  for (const auto& p : gp.policies) asc_names.insert(os::signature(p.sys).name);

  // Published Systrace-style policy by training.
  System sys(pers, test_key(), os::Enforcement::Off);
  auto& fs = sys.kernel().fs();
  {
    std::string gram;
    for (int i = 0; i < 25; ++i) gram += "rule: tok\n";
    auto ino = fs.open("/", "/gram.y", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(gram.begin(), gram.end()), false);
  }
  auto trained = monitor::train_policy(sys.machine(), img, {{{"/gram.y"}, ""}});
  auto pub = monitor::make_published_policy(trained, pers);

  // Annotate permitted-by-alias calls like the paper's "(fswrite)" notes.
  auto systrace_cell = [&](const std::string& name) -> std::string {
    if (pub.named.count(name) != 0) return "yes";
    if (pub.permitted.count(name) != 0) {
      const auto id = [&] {
        for (os::SysId s : os::available_syscalls(pers)) {
          if (os::signature(s).name == name) return s;
        }
        return os::SysId::Exit;
      }();
      return os::signature(id).category == os::Category::FsWrite ? "yes (fswrite)"
                                                                 : "yes (fsread)";
    }
    return "NO";
  };

  std::set<std::string> all = asc_names;
  for (const auto& n : pub.permitted) all.insert(n);
  // Also show calls neither permits but the paper discusses (close).
  all.insert("close");

  std::printf("\n=== Table 2: Comparison of policies for bison (BsdSim) ===\n");
  std::printf("%-16s %-6s %s\n", "System call", "ASC", "Systrace");
  std::size_t asc_only = 0;
  std::size_t systrace_only = 0;
  for (const auto& name : all) {
    const bool in_asc = asc_names.count(name) != 0;
    const std::string st = systrace_cell(name);
    if (in_asc && st == "NO") ++asc_only;
    if (!in_asc && st != "NO") ++systrace_only;
    std::printf("%-16s %-6s %s\n", name.c_str(), in_asc ? "yes" : "NO", st.c_str());
  }
  std::printf("\nASC-only calls (possible Systrace false alarms): %zu\n", asc_only);
  std::printf("Systrace-only calls (unneeded but permitted):     %zu\n", systrace_only);
  std::printf("\nInstaller reports for incompletely analyzable code:\n");
  for (const auto& w : gp.warnings) std::printf("  %s\n", w.c_str());
}

}  // namespace

int main() {
  run_table();
  return 0;
}
