// Ablation: monitoring architectures compared on identical policy content.
//
// The paper argues ASC beats user-space policy daemons (Systrace/Ostia
// style) on cost and avoids the complexity of fully in-kernel monitors
// (§2.3). This bench runs the same syscall-dense workload (pyramid) under:
//   off          -- no monitoring
//   asc          -- authenticated system calls (full checking)
//   daemon       -- user-space daemon: 2 context switches + lookup per call
//   kernel-table -- in-kernel per-program table lookup per call
//   asc+ktable   -- the enforcement list {Asc, KernelTable}: ASC checking
//                   followed by the in-kernel allowlist, showing what
//                   stacking checks costs
//
// Each row is one enforcement list set on the same kernel
// (os/sysmonitor.h); labels come from os::enforcement_name() of the
// kernel's list, so the table reflects what is actually enforced.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/asc.h"
#include "monitor/ktable.h"

namespace {

using namespace asc;
using Modes = std::vector<os::Enforcement>;

const Modes kConfigs[] = {
    {os::Enforcement::Off},
    {os::Enforcement::Asc},
    {os::Enforcement::Daemon},
    {os::Enforcement::KernelTable},
    {os::Enforcement::Asc, os::Enforcement::KernelTable},
};

bool enforces(const Modes& modes, os::Enforcement e) {
  return std::find(modes.begin(), modes.end(), e) != modes.end();
}

struct Run {
  std::string label;  // os::enforcement_name() of the kernel's list
  double cycles = 0;
  std::uint64_t syscalls = 0;
};

Run run_once(const Modes& modes) {
  System sys(os::Personality::LinuxSim);
  sys.kernel().set_enforcement(modes);
  const std::string label = os::enforcement_name(modes);
  const binary::Image img = apps::build_pyramid(os::Personality::LinuxSim);
  // All monitored modes enforce policies derived from the same static
  // analysis, so the comparison isolates the enforcement MECHANISM.
  const auto inst = sys.install(img);
  if (enforces(modes, os::Enforcement::Daemon) || enforces(modes, os::Enforcement::KernelTable)) {
    sys.kernel().set_monitor_policy("pyramid", monitor::table_from_asc_policies(inst.policies));
  }
  const auto r =
      sys.machine().run(enforces(modes, os::Enforcement::Asc) ? inst.image : img, {"500"});
  if (!r.completed) throw Error(label + " run failed: " + r.violation_detail);
  return {label, static_cast<double>(r.cycles), r.syscalls};
}

void run_table() {
  std::printf("\n=== Ablation: enforcement mechanism cost (pyramid, syscall-dense) ===\n");
  std::printf("%-22s %14s %12s %16s\n", "monitor", "Mcycles", "overhead", "extra cyc/call");
  std::vector<Run> runs;
  for (const Modes& modes : kConfigs) runs.push_back(run_once(modes));
  const Run& base = runs.front();  // kConfigs[0]: unmonitored
  for (const Run& run : runs) {
    const double extra = run.cycles - base.cycles;
    std::printf("%-22s %14.2f %11.2f%% %16.0f\n", run.label.c_str(), run.cycles / 1e6,
                extra / base.cycles * 100.0, extra / static_cast<double>(base.syscalls));
  }
  std::printf("(per-call: asc ~ one trap-time verification; daemon ~ two context\n"
              " switches + lookup; chain = sum of its links; paper's argument:\n"
              " daemon >> asc > table >> off)\n");
}

}  // namespace

int main() {
  try {
    run_table();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ablation_monitors: %s\n", e.what());
    return 1;
  }
  return 0;
}
