// Ablation: monitoring architectures compared on identical policy content.
//
// The paper argues ASC beats user-space policy daemons (Systrace/Ostia
// style) on cost and avoids the complexity of fully in-kernel monitors
// (§2.3). This bench runs the same syscall-dense workload (pyramid) under:
//   off          -- no monitoring
//   asc          -- authenticated system calls (full checking)
//   daemon       -- user-space daemon: 2 context switches + lookup per call
//   kernel-table -- in-kernel per-program table lookup per call
//   asc+ktable   -- ChainMonitor stacking ASC checking and the in-kernel
//                   allowlist, showing what composing monitors costs
//
// Each row is one SyscallMonitor implementation installed behind the same
// kernel (os/sysmonitor.h); labels come from SyscallMonitor::name() so the
// table reflects what is actually installed.
#include <cstdio>
#include <string>
#include <vector>

#include "core/asc.h"
#include "monitor/ktable.h"

namespace {

using namespace asc;

struct Config {
  const char* name;
  os::Enforcement mode;
  bool chain_ktable;  // additionally chain the in-kernel allowlist after it
};

constexpr Config kConfigs[] = {
    {"off", os::Enforcement::Off, false},
    {"asc", os::Enforcement::Asc, false},
    {"daemon", os::Enforcement::Daemon, false},
    {"kernel-table", os::Enforcement::KernelTable, false},
    {"asc+ktable", os::Enforcement::Asc, true},
};

struct Run {
  std::string label;  // SyscallMonitor::name() of the installed monitor
  double cycles = 0;
  std::uint64_t syscalls = 0;
};

Run run_once(const Config& cfg) {
  System sys(os::Personality::LinuxSim, test_key(), cfg.mode);
  binary::Image img = apps::build_pyramid(os::Personality::LinuxSim);
  binary::Image run_img = img;
  // All monitored modes enforce policies derived from the same static
  // analysis, so the comparison isolates the enforcement MECHANISM.
  auto inst = sys.install(img);
  if (cfg.mode == os::Enforcement::Asc) {
    run_img = inst.image;
  }
  if (cfg.mode != os::Enforcement::Off && (cfg.mode != os::Enforcement::Asc || cfg.chain_ktable)) {
    sys.kernel().set_monitor_policy("pyramid", monitor::table_from_asc_policies(inst.policies));
  }
  if (cfg.chain_ktable) {
    auto chain = std::make_unique<os::ChainMonitor>();
    chain->add(os::make_monitor(cfg.mode, sys.kernel()));
    chain->add(os::make_monitor(os::Enforcement::KernelTable, sys.kernel()));
    sys.kernel().install_monitor(std::move(chain));
  }
  auto r = sys.machine().run(run_img, {"500"});
  if (!r.completed) throw Error(std::string(cfg.name) + " run failed: " + r.violation_detail);
  return {sys.kernel().monitor().name(), static_cast<double>(r.cycles), r.syscalls};
}

void run_table() {
  std::printf("\n=== Ablation: enforcement mechanism cost (pyramid, syscall-dense) ===\n");
  std::printf("%-22s %14s %12s %16s\n", "monitor", "Mcycles", "overhead", "extra cyc/call");
  std::vector<Run> runs;
  for (const Config& cfg : kConfigs) runs.push_back(run_once(cfg));
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
