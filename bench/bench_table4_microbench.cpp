// Table 4: per-system-call cost of authentication.
//
// Reproduces the paper's microbenchmark: each system call is executed
// 10,000 times in a guest loop; the cost is measured in MODELED CPU cycles
// (the deterministic analog of the paper's rdtsc readings); the experiment
// is repeated 12 times, the highest and lowest readings are dropped, and
// the remaining 10 averaged. Compared: original binaries on an unmonitored
// kernel (NullMonitor) vs authenticated binaries with the AscMonitor
// installed; the per-call delta is exactly the enforcement layer's charge.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "tasm/assembler.h"
#include "util/stats.h"

namespace {

using namespace asc;

// Guest that performs `iters` repetitions of one syscall in a tight loop.
enum class Call { Getpid, Gettimeofday, Read4k, Write4k, Brk };

binary::Image build_loop_guest(os::Personality p, Call call, std::uint32_t iters) {
  using namespace asc::apps;
  tasm::Assembler a("microloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, iters);
  a.store(SP, 0, R11);
  // Open the data file once for read/write variants.
  if (call == Call::Read4k || call == Call::Write4k) {
    a.lea(R1, "mb_file");
    a.movi(R2, O_RDWR | O_CREAT);
    a.movi(R3, 0644);
    a.call("open_or_die");
    a.lea(R11, "mb_fd");
    a.store(R11, 0, R0);
  }
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  switch (call) {
    case Call::Getpid:
      a.call("sys_getpid");
      break;
    case Call::Gettimeofday:
      a.lea(R1, "mb_tv");
      a.movi(R2, 0);
      a.call("sys_gettimeofday");
      break;
    case Call::Read4k:
      // The data file is large enough that every read returns a full 4096
      // bytes; no rewind needed, so the loop measures read() alone.
      a.lea(R11, "mb_fd");
      a.load(R1, R11, 0);
      a.lea(R2, "mb_buf");
      a.movi(R3, 4096);
      a.call("sys_read");
      break;
    case Call::Write4k:
      a.lea(R11, "mb_fd");
      a.load(R1, R11, 0);
      a.lea(R2, "mb_buf");
      a.movi(R3, 4096);
      a.call("sys_write");
      break;
    case Call::Brk:
      a.movi(R1, 0);
      a.call("sys_brk");
      break;
  }
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("mb_file", "/tmp/mb.dat");
  a.bss("mb_tv", 8);
  a.bss("mb_buf", 4096);
  a.bss("mb_fd", 4);
  emit_libc(a, p);
  return a.link();
}

struct Row {
  const char* name;
  Call call;
  // Paper-reported values (Pentium cycles) for EXPERIMENTS.md comparison.
  double paper_orig;
  double paper_auth;
};

constexpr Row kRows[] = {
    {"getpid()", Call::Getpid, 1141, 5045},
    {"gettimeofday()", Call::Gettimeofday, 1395, 5703},
    {"read(4096)", Call::Read4k, 7324, 10013},
    {"write(4096)", Call::Write4k, 39479, 40396},
    {"brk()", Call::Brk, 1155, 5083},
};

constexpr std::uint32_t kIters = 10000;
constexpr int kReps = 12;

/// Measurement configurations: unmonitored baseline, full §3.4 verification
/// on every trap (the paper's system), verification with the kernel's
/// verified-call cache enabled (the Cached tier of os/tiertable.h; after the
/// first trap per site every iteration takes the fast path), cache plus the
/// policy-state shadow (the Shadowed tier; the per-call state MACs collapse
/// to a shadow transition, lbMAC materialized lazily), and the full tier
/// lattice with the trap-less Inline tier on top (after the promotion streak
/// each call clears a pre-authorized register/watch probe instead of the
/// enforcement pipeline).
enum class Mode { Off, Auth, AuthCached, AuthShadow, AuthInline };

/// Cycles per syscall for one configuration. Subtracts a calibration run
/// (same loop with no syscall other than exit) so only the per-call cost
/// remains, mirroring the paper's subtraction of rdtsc/loop overhead.
double measure(Call call, Mode mode) {
  const auto pers = os::Personality::LinuxSim;
  const bool authenticated = mode != Mode::Off;
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    System sys(pers, test_key(),
               authenticated ? os::Enforcement::Asc : os::Enforcement::Off);
    sys.kernel().set_verified_call_cache(mode == Mode::AuthCached || mode == Mode::AuthShadow ||
                                         mode == Mode::AuthInline);
    sys.kernel().set_policy_shadow(mode == Mode::AuthShadow || mode == Mode::AuthInline);
    sys.kernel().set_inline_tier(mode == Mode::AuthInline);
    // Seed a data file big enough for kIters full-size reads.
    if (call == Call::Read4k) {
      auto& fs = sys.kernel().fs();
      auto ino = fs.open("/", "/tmp/mb.dat", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
      fs.write(static_cast<std::uint32_t>(ino), 0,
               std::vector<std::uint8_t>(4096ull * (kIters + 1), 0x5a), false);
    }

    binary::Image img = build_loop_guest(pers, call, kIters);
    binary::Image run_img = img;
    if (authenticated) run_img = sys.install(img).image;
    auto r = sys.machine().run(run_img);
    if (!r.completed) {
      std::fprintf(stderr, "microbench run failed: %s\n", r.violation_detail.c_str());
      return 0;
    }
    // Loop-body overhead per iteration (load/cmp/sub/store/jmp + arg
    // setup): measured in instructions, negligible vs the trap; we report
    // total cycles / iterations minus nothing, exactly like the paper's
    // table which includes the (tiny) loop cost as separate rows.
    samples.push_back(static_cast<double>(r.cycles) / kIters);
  }
  return util::summarize_trimmed(samples).mean;
}

void run_table() {
  std::printf("\n=== Table 4: Effect of Authentication (modeled cycles/call) ===\n");
  std::printf("%-16s %10s %10s %10s %10s %10s %8s %8s %8s %8s %8s | %9s %9s\n", "System Call",
              "Original", "Auth.", "AuthCache", "AuthShdw", "AuthInl", "Ovh(%)", "OvhC(%)",
              "OvhS(%)", "OvhI(%)", "Redu(%)", "paperAuth", "paperOvh%");
  FILE* json = std::fopen("BENCH_table4.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"table\": \"table4\",\n"
                       "  \"unit\": \"modeled_cycles_per_call\",\n  \"rows\": [\n");
  }
  bool first = true;
  for (const Row& row : kRows) {
    const double orig = measure(row.call, Mode::Off);
    const double auth = measure(row.call, Mode::Auth);
    const double cached = measure(row.call, Mode::AuthCached);
    const double shadowed = measure(row.call, Mode::AuthShadow);
    const double inl = measure(row.call, Mode::AuthInline);
    const double ovh = orig > 0 ? (auth - orig) / orig * 100.0 : 0;
    const double ovh_c = orig > 0 ? (cached - orig) / orig * 100.0 : 0;
    const double ovh_s = orig > 0 ? (shadowed - orig) / orig * 100.0 : 0;
    const double ovh_i = orig > 0 ? (inl - orig) / orig * 100.0 : 0;
    // The headline number the cache is judged on: how much of the
    // authenticated per-call overhead the fast path removes.
    const double redu = auth - orig > 0 ? (auth - cached) / (auth - orig) * 100.0 : 0;
    const double paper_ovh = (row.paper_auth - row.paper_orig) / row.paper_orig * 100.0;
    std::printf("%-16s %10.0f %10.0f %10.0f %10.0f %10.0f %7.1f%% %7.1f%% %7.1f%% %7.1f%% "
                "%7.1f%% | %9.0f %8.1f%%\n",
                row.name, orig, auth, cached, shadowed, inl, ovh, ovh_c, ovh_s, ovh_i, redu,
                row.paper_auth, paper_ovh);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"name\": \"%s\", \"orig\": %.1f, \"auth\": %.1f, "
                   "\"auth_cached\": %.1f, \"auth_shadow\": %.1f, \"auth_inline\": %.1f, "
                   "\"overhead_pct\": %.2f, "
                   "\"overhead_cached_pct\": %.2f, \"overhead_shadow_pct\": %.2f, "
                   "\"overhead_inline_pct\": %.2f, "
                   "\"overhead_reduction_pct\": %.2f}",
                   first ? "" : ",\n", row.name, orig, auth, cached, shadowed, inl, ovh, ovh_c,
                   ovh_s, ovh_i, redu);
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  std::printf("(each row: %u calls/loop, %d reps, hi/lo dropped, mean of the rest;\n"
              " read row streams a pre-seeded file; write row appends;\n"
              " AuthCache = verified-call cache on; AuthShdw = cache + policy-state shadow;\n"
              " AuthInl = full tier lattice incl. the trap-less Inline tier (eligible\n"
              " side-effect-light calls only; others stay on the Shadowed tier);\n"
              " Redu%% = share of auth overhead the cache removes;\n"
              " machine-readable copy written to BENCH_table4.json)\n",
              kIters, kReps);
}

void BM_Table4(benchmark::State& state) {
  for (auto _ : state) {
    const double v = measure(static_cast<Call>(state.range(0)),
                             static_cast<Mode>(state.range(1)));
    benchmark::DoNotOptimize(v);
    state.counters["cycles_per_call"] = v;
  }
}
BENCHMARK(BM_Table4)
    ->ArgsProduct({{0, 1, 4}, {0, 1, 2, 3, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
