// Tables 5 & 6: macro benchmark suite -- total execution cost of original
// vs authenticated binaries on fixed inputs.
//
// Programs (Table 5): CPU-bound SPECint-2000 stand-ins (gzip-spec, crafty,
// mcf, vpr, twolf), syscall+CPU (gcc, vortex), syscall-intensive (pyramid,
// gzip). Protocol (Table 6): one run per cell, in MODELED cycles (the
// deterministic analog of the paper's `time` measurements, which it repeats
// 4 times; a modeled run reads the same every time). The authenticated
// column runs with the kernel enforcing Asc; the baseline column with
// enforcement Off. A guest run that does not complete, or an unmonitored
// run whose threaded and switch engines disagree on modeled cycles, fails
// the bench (exit status 1).
#include <cstdio>
#include <string>

#include "core/asc.h"

namespace {

using namespace asc;

struct Bench {
  const char* program;
  const char* type;
  std::vector<std::string> argv;
  double paper_overhead_pct;
};

// Workload sizes: tens of millions of modeled cycles per run, a
// realistic-scale stand-in for the paper's full SPEC inputs.
const Bench kSuite[] = {
    {"gzip-spec", "CPU", {"150"}, 1.41},
    {"crafty", "CPU", {"2000000"}, 1.40},
    {"mcf", "CPU", {"3000"}, 0.73},
    {"vpr", "CPU", {"1500000"}, 1.16},
    {"twolf", "CPU", {"1500000"}, 1.70},
    {"gcc", "syscall&CPU", {"/in.c", "/out.o"}, 1.39},
    {"vortex", "syscall&CPU", {"150000"}, 0.84},
    {"pyramid", "syscall", {"2500"}, 7.92},
    {"gzip", "syscall", {"/big.txt"}, 1.06},
};

binary::Image build(const std::string& name, os::Personality p) {
  for (auto& [n, img] : apps::build_all(p)) {
    if (n == name) return img;
  }
  throw Error("unknown program " + name);
}

void prepare(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  std::string src = "int main() { return 0; }\n";
  for (int i = 0; i < 800; ++i) src += "void f" + std::to_string(i) + "() { /* body */ }\n";
  put("/in.c", src);
  std::string big;
  for (int i = 0; i < 4000; ++i) {
    big += "the quick brown fox jumps over the lazy dog " + std::to_string(i % 7) + "\n";
  }
  put("/big.txt", big);
}

/// Unmonitored baseline, full per-trap verification, verification with the
/// kernel's verified-call cache, cache plus the policy-state shadow, and the
/// full tier lattice with the trap-less Inline tier on top (all three tiers
/// of os/tiertable.h).
enum class Mode { Off, Auth, AuthCached, AuthShadow, AuthInline };

/// Modeled cycles of one run. `dispatch` selects the execution engine --
/// byte-identical modeled results either way. Throws if the guest run does
/// not complete.
double measure(const Bench& b, Mode mode,
               vm::DispatchMode dispatch = vm::default_dispatch_mode()) {
  const bool authenticated = mode != Mode::Off;
  System sys(os::Personality::LinuxSim, test_key(),
             authenticated ? os::Enforcement::Asc : os::Enforcement::Off);
  sys.machine().set_dispatch(dispatch);
  sys.kernel().set_verified_call_cache(mode == Mode::AuthCached || mode == Mode::AuthShadow ||
                                       mode == Mode::AuthInline);
  sys.kernel().set_policy_shadow(mode == Mode::AuthShadow || mode == Mode::AuthInline);
  sys.kernel().set_inline_tier(mode == Mode::AuthInline);
  prepare(sys.kernel().fs());
  binary::Image img = build(b.program, os::Personality::LinuxSim);
  if (authenticated) img = sys.install(img).image;
  auto r = sys.machine().run(img, b.argv);
  if (!r.completed) throw Error(std::string(b.program) + " failed: " + r.violation_detail);
  return static_cast<double>(r.cycles);
}

void run_table() {
  std::printf("\n=== Tables 5+6: Benchmark suite & performance overhead ===\n");
  std::printf("%-10s %-12s %12s %12s %12s %12s %12s %8s %8s %8s %8s | %8s\n", "Program",
              "Type", "Orig(Mcyc)", "Auth(Mcyc)", "Cache(Mcyc)", "Shdw(Mcyc)", "Inl(Mcyc)",
              "Ovh(%)", "OvhC(%)", "OvhS(%)", "OvhI(%)", "paper(%)");
  FILE* json = std::fopen("BENCH_table6.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"table\": \"table6\",\n"
                       "  \"unit\": \"modeled_megacycles\",\n  \"rows\": [\n");
  }
  double sum = 0;
  double sum_cached = 0;
  double sum_shadow = 0;
  double sum_inline = 0;
  bool first = true;
  for (const Bench& b : kSuite) {
    // The unmonitored runs go through both the threaded engine and the
    // reference interpreter, which must agree on modeled cycles.
    const double orig = measure(b, Mode::Off, vm::DispatchMode::Threaded);
    if (measure(b, Mode::Off, vm::DispatchMode::Switch) != orig) {
      throw Error(std::string(b.program) + ": dispatch modes disagree on modeled cycles");
    }
    const double auth = measure(b, Mode::Auth);
    const double cached = measure(b, Mode::AuthCached);
    const double shadowed = measure(b, Mode::AuthShadow);
    const double inl = measure(b, Mode::AuthInline);
    const double ovh = orig > 0 ? (auth - orig) / orig * 100.0 : 0;
    const double ovh_c = orig > 0 ? (cached - orig) / orig * 100.0 : 0;
    const double ovh_s = orig > 0 ? (shadowed - orig) / orig * 100.0 : 0;
    const double ovh_i = orig > 0 ? (inl - orig) / orig * 100.0 : 0;
    sum += ovh;
    sum_cached += ovh_c;
    sum_shadow += ovh_s;
    sum_inline += ovh_i;
    std::printf("%-10s %-12s %12.2f %12.2f %12.2f %12.2f %12.2f %7.2f%% %7.2f%% %7.2f%% "
                "%7.2f%% | %7.2f%%\n",
                b.program, b.type, orig / 1e6, auth / 1e6, cached / 1e6, shadowed / 1e6,
                inl / 1e6, ovh, ovh_c, ovh_s, ovh_i, b.paper_overhead_pct);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"name\": \"%s\", \"type\": \"%s\", \"orig\": %.3f, "
                   "\"auth\": %.3f, \"auth_cached\": %.3f, \"auth_shadow\": %.3f, "
                   "\"auth_inline\": %.3f, "
                   "\"overhead_pct\": %.3f, \"overhead_cached_pct\": %.3f, "
                   "\"overhead_shadow_pct\": %.3f, \"overhead_inline_pct\": %.3f}",
                   first ? "" : ",\n", b.program, b.type, orig / 1e6, auth / 1e6,
                   cached / 1e6, shadowed / 1e6, inl / 1e6, ovh, ovh_c, ovh_s, ovh_i);
      first = false;
    }
  }
  const double n = static_cast<double>(sizeof(kSuite) / sizeof(kSuite[0]));
  if (json != nullptr) {
    std::fprintf(json,
                 "\n  ],\n  \"mean_overhead_pct\": %.3f,\n"
                 "  \"mean_overhead_cached_pct\": %.3f,\n"
                 "  \"mean_overhead_shadow_pct\": %.3f,\n"
                 "  \"mean_overhead_inline_pct\": %.3f\n}\n",
                 sum / n, sum_cached / n, sum_shadow / n, sum_inline / n);
    std::fclose(json);
  }
  std::printf("mean overhead: %.2f%% uncached, %.2f%% with the verified-call cache, "
              "%.2f%% with cache+shadow, %.2f%% with the full tier lattice\n"
              "(paper range 0.73%%-7.92%%; machine-readable copy in BENCH_table6.json)\n",
              sum / n, sum_cached / n, sum_shadow / n, sum_inline / n);
}

}  // namespace

int main() {
  try {
    run_table();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table6_macro: %s\n", e.what());
    return 1;
  }
  return 0;
}
