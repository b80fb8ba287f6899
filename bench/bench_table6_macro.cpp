// Tables 5 & 6: macro benchmark suite -- total execution cost of original
// vs authenticated binaries on fixed inputs.
//
// Programs (Table 5): CPU-bound SPECint-2000 stand-ins (gzip-spec, crafty,
// mcf, vpr, twolf), syscall+CPU (gcc, vortex), syscall-intensive (pyramid,
// gzip). Protocol (Table 6): each measurement repeated 4 times; mean and
// standard deviation of MODELED cycles reported (the deterministic analog
// of the paper's `time` measurements -- identical across repetitions here,
// so stddev reflects only workload-state differences). The authenticated
// column runs with the AscMonitor installed in the kernel's enforcement
// layer; the baseline column with the NullMonitor.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/asc.h"
#include "util/stats.h"

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
  for (int i = 0; i < 4000; ++i) big += "the quick brown fox jumps over the lazy dog " + std::to_string(i % 7) + "\n";
  put("/big.txt", big);
}

constexpr int kReps = 4;

/// Unmonitored baseline, full per-trap verification, verification with the
/// kernel's verified-call cache, cache plus the policy-state shadow, and the
/// full tier lattice with the trap-less Inline tier on top (all three tiers
/// of os/tiertable.h).
enum class Mode { Off, Auth, AuthCached, AuthShadow, AuthInline };

/// `dispatch` selects the execution engine -- byte-identical modeled
/// results either way.
util::Summary measure(const Bench& b, Mode mode,
                      vm::DispatchMode dispatch = vm::default_dispatch_mode()) {
  const bool authenticated = mode != Mode::Off;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
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
    if (!r.completed) {
      std::fprintf(stderr, "%s failed: %s\n", b.program, r.violation_detail.c_str());
      return {};
    }
    samples.push_back(static_cast<double>(r.cycles));
  }
  return util::summarize(samples);
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
    const auto orig = measure(b, Mode::Off, vm::DispatchMode::Threaded);
    const auto orig_switch = measure(b, Mode::Off, vm::DispatchMode::Switch);
    if (orig_switch.mean != orig.mean) {
      std::fprintf(stderr, "%s: dispatch modes disagree on modeled cycles!\n", b.program);
    }
    const auto auth = measure(b, Mode::Auth);
    const auto cached = measure(b, Mode::AuthCached);
    const auto shadowed = measure(b, Mode::AuthShadow);
    const auto inl = measure(b, Mode::AuthInline);
    const double ovh = orig.mean > 0 ? (auth.mean - orig.mean) / orig.mean * 100.0 : 0;
    const double ovh_c = orig.mean > 0 ? (cached.mean - orig.mean) / orig.mean * 100.0 : 0;
    const double ovh_s = orig.mean > 0 ? (shadowed.mean - orig.mean) / orig.mean * 100.0 : 0;
    const double ovh_i = orig.mean > 0 ? (inl.mean - orig.mean) / orig.mean * 100.0 : 0;
    sum += ovh;
    sum_cached += ovh_c;
    sum_shadow += ovh_s;
    sum_inline += ovh_i;
    std::printf("%-10s %-12s %12.2f %12.2f %12.2f %12.2f %12.2f %7.2f%% %7.2f%% %7.2f%% "
                "%7.2f%% | %7.2f%%\n",
                b.program, b.type, orig.mean / 1e6, auth.mean / 1e6, cached.mean / 1e6,
                shadowed.mean / 1e6, inl.mean / 1e6, ovh, ovh_c, ovh_s, ovh_i,
                b.paper_overhead_pct);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"name\": \"%s\", \"type\": \"%s\", \"orig\": %.3f, "
                   "\"auth\": %.3f, \"auth_cached\": %.3f, \"auth_shadow\": %.3f, "
                   "\"auth_inline\": %.3f, "
                   "\"overhead_pct\": %.3f, \"overhead_cached_pct\": %.3f, "
                   "\"overhead_shadow_pct\": %.3f, \"overhead_inline_pct\": %.3f}",
                   first ? "" : ",\n", b.program, b.type, orig.mean / 1e6, auth.mean / 1e6,
                   cached.mean / 1e6, shadowed.mean / 1e6, inl.mean / 1e6, ovh, ovh_c, ovh_s,
                   ovh_i);
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

void BM_Macro(benchmark::State& state) {
  const Bench& b = kSuite[static_cast<std::size_t>(state.range(0))];
  const auto mode = static_cast<Mode>(state.range(1));
  for (auto _ : state) {
    const auto s = measure(b, mode);
    benchmark::DoNotOptimize(s.mean);
    state.counters["Mcycles"] = s.mean / 1e6;
  }
  const char* suffix = mode == Mode::Off      ? "/orig"
                       : mode == Mode::Auth   ? "/auth"
                       : mode == Mode::AuthCached ? "/cached"
                       : mode == Mode::AuthShadow ? "/shadow"
                                                  : "/inline";
  state.SetLabel(std::string(b.program) + suffix);
}
BENCHMARK(BM_Macro)
    ->ArgsProduct({{0, 7}, {0, 1, 2, 3, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
