// Ablation: where the per-call checking cost goes.
//
// Decomposes the authenticated-call overhead of Table 4 by switching policy
// features off: control-flow policies (predecessor set + policy-state MACs)
// vs the bare call MAC, and string arguments (AS content MACs) vs numeric
// ones. Run on getpid (no args) and on an open with a constant path (one
// authenticated string). All of the cost decomposed here is enforcement-
// layer work: what Asc enforcement charges per trap (Kernel::inspect,
// os/sysmonitor.cpp).
#include <cstdio>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "tasm/assembler.h"

namespace {

using namespace asc;
using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;

binary::Image build_guest(bool with_open, std::uint32_t iters) {
  tasm::Assembler a("ablate");
  a.func("main");
  a.movi(R11, iters);
  a.label(".loop");
  a.cmpi(R11, 0);
  a.jz(".done");
  a.push(R11);
  if (with_open) {
    a.lea(R1, "ab_path");
    a.movi(R2, apps::O_RDONLY);
    a.movi(R3, 0);
    a.call("sys_open");
    a.cmpi(R0, 0);
    a.jlt(".closed");
    a.mov(R1, R0);
    a.call("sys_close");
    a.label(".closed");
  } else {
    a.call("sys_getpid");
  }
  a.pop(R11);
  a.subi(R11, 1);
  a.jmp(".loop");
  a.label(".done");
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("ab_path", "/etc/termcap");
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

constexpr std::uint32_t kIters = 5000;

double per_call(bool with_open, bool enforce, bool control_flow) {
  System sys(os::Personality::LinuxSim, test_key(),
             enforce ? os::Enforcement::Asc : os::Enforcement::Off);
  binary::Image img = build_guest(with_open, kIters);
  binary::Image run_img = img;
  if (enforce) {
    installer::InstallOptions opts;
    opts.control_flow = control_flow;
    run_img = sys.install(img, opts).image;
  }
  auto r = sys.machine().run(run_img);
  if (!r.completed) throw Error("ablation run failed: " + r.violation_detail);
  return static_cast<double>(r.cycles) / static_cast<double>(r.syscalls);
}

void run_table() {
  std::printf("\n=== Ablation: per-call checking cost breakdown (cycles/call) ===\n");
  std::printf("%-26s %12s %12s\n", "configuration", "getpid-loop", "open+close");
  const double g0 = per_call(false, false, false);
  const double o0 = per_call(true, false, false);
  std::printf("%-26s %12.0f %12.0f\n", "unmonitored", g0, o0);
  const double g1 = per_call(false, true, false);
  const double o1 = per_call(true, true, false);
  std::printf("%-26s %12.0f %12.0f   (+%0.0f / +%0.0f)\n", "call MAC only (no cflow)", g1, o1,
              g1 - g0, o1 - o0);
  const double g2 = per_call(false, true, true);
  const double o2 = per_call(true, true, true);
  std::printf("%-26s %12.0f %12.0f   (+%0.0f / +%0.0f)\n", "full (cflow + AS strings)", g2, o2,
              g2 - g0, o2 - o0);
  std::printf("(control-flow checking adds pred-set verify + two state MACs;\n"
              " the open row additionally pays one AS content MAC)\n");
}

}  // namespace

int main() {
  try {
    run_table();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ablation_checks: %s\n", e.what());
    return 1;
  }
  return 0;
}
