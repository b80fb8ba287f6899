// The trap hit path allocates nothing: a steady-state Cached- or
// Shadowed-tier hit of os::check_authenticated_call, and the handler it
// dispatches to, make no heap allocation.
//
// This file replaces the global operator new and operator delete -- every
// form, so sanitizer builds see matched malloc/free pairs -- with versions
// that count, and it builds into its own test binary so the replacement
// touches no other suite. A stage hook arms the counter at TrapStage::Trap
// and disarms it at TrapStage::Audit, so the enforcement and dispatch stages
// are counted: read(4096) copies the file's bytes straight into the guest
// buffer and write(4096) hands the guest buffer on in place. Each loop runs
// at N and at 2N iterations: equal counts mean zero allocations per extra
// hit, and the tier counters prove the extra traps were hits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "tasm/assembler.h"

namespace {

// Only the thread that runs the guest arms the counter.
thread_local bool g_armed = false;
thread_local std::uint64_t g_allocations = 0;

/// malloc semantics: nullptr when out of memory.
void* counted(std::size_t n) {
  if (g_armed) ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted(std::size_t n, std::align_val_t align) {
  if (g_armed) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line: inlined into a caller, free() on memory the compiler takes
// for the standard operator new's raises -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept {
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  return or_throw(counted(n));
}

void* operator new[](std::size_t n) {
  return or_throw(counted(n));
}

void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, a));
}

void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, a));
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}

void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, a);
}

void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, a);
}

void operator delete(void* p) noexcept {
  release(p);
}

void operator delete[](void* p) noexcept {
  release(p);
}

void operator delete(void* p, std::size_t) noexcept {
  release(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  release(p);
}

void operator delete(void* p, std::align_val_t) noexcept {
  release(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  release(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}

void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}

namespace asc {
namespace {

const auto kPers = os::Personality::LinuxSim;

enum class Call { Brk, Getpid, Read4k, Write4k };

/// `iters` repetitions of one call in a guest loop, shaped like Table 4's.
binary::Image build_loop(Call call, std::uint32_t iters) {
  using namespace asc::apps;
  tasm::Assembler a("allocloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, iters);
  a.store(SP, 0, R11);
  if (call == Call::Read4k || call == Call::Write4k) {
    a.lea(R1, "loop_file");
    a.movi(R2, call == Call::Read4k ? O_RDONLY : O_WRONLY);
    a.movi(R3, 0);
    a.call("open_or_die");
    a.lea(R11, "loop_fd");
    a.store(R11, 0, R0);
  }
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  switch (call) {
    case Call::Brk:
      a.movi(R1, 0);
      a.call("sys_brk");
      break;
    case Call::Getpid:
      a.call("sys_getpid");
      break;
    case Call::Read4k:
    case Call::Write4k:
      a.lea(R11, "loop_fd");
      a.load(R1, R11, 0);
      a.lea(R2, "loop_buf");
      a.movi(R3, 4096);
      a.call(call == Call::Read4k ? "sys_read" : "sys_write");
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
  a.rodata_cstr("loop_file", "/loop.dat");
  a.bss("loop_buf", 4096);
  a.bss("loop_fd", 4);
  emit_libc(a, kPers);
  return a.link();
}

struct Sample {
  std::uint64_t allocations = 0;  // inside enforcement and dispatch, whole run
  os::TierStats tiers;
};

struct Loop {
  const char* name;
  Call call;
  bool shadow;
};

/// ctest lists a case under its printed parameter: print the name, not the
/// struct's bytes (which hold a pointer).
void PrintTo(const Loop& loop, std::ostream* os) {
  *os << loop.name;
}

/// One authenticated run of `loop` at `iters` iterations on a fresh system.
Sample run_loop(const Loop& loop, std::uint32_t iters) {
  System sys(kPers);
  sys.kernel().set_inline_tier(false);
  sys.kernel().set_policy_shadow(loop.shadow);
  if (loop.call == Call::Read4k || loop.call == Call::Write4k) {
    // Every read returns a full 4096 bytes; every write lands inside the
    // file, so the file never grows.
    os::SimFs& fs = sys.kernel().fs();
    const std::uint32_t flags = os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc;
    const auto ino = fs.open("/", "/loop.dat", flags, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(4096ull * (iters + 1), 0x5a), false);
  }
  const auto inst = sys.install(build_loop(loop.call, iters));
  sys.kernel().set_stage_hook([](os::Process&, os::TrapContext&, os::TrapStage s) {
    if (s == os::TrapStage::Trap) g_armed = true;
    if (s == os::TrapStage::Audit) g_armed = false;
  });
  g_allocations = 0;
  const vm::RunResult r = sys.machine().run(inst.image);
  g_armed = false;
  EXPECT_TRUE(r.completed) << loop.name << ": " << r.violation_detail;
  return {g_allocations, sys.kernel().tier_stats()};
}

class CheckerAllocations : public ::testing::TestWithParam<Loop> {};

TEST_P(CheckerAllocations, SteadyStateHitsAllocateNothing) {
  const Loop& loop = GetParam();
  constexpr std::uint32_t kN = 64;
  const Sample once = run_loop(loop, kN);
  const Sample twice = run_loop(loop, 2 * kN);
  // The extra N traps were all hits of the tier under test...
  EXPECT_EQ(twice.tiers.cached - once.tiers.cached, kN);
  EXPECT_EQ(twice.tiers.shadowed - once.tiers.shadowed, loop.shadow ? kN : 0u);
  EXPECT_EQ(twice.tiers.cache_misses, once.tiers.cache_misses);
  EXPECT_EQ(twice.tiers.inline_hits, 0u);
  // ...and none of them allocated inside the enforcement or dispatch stage.
  EXPECT_EQ(twice.allocations, once.allocations)
      << (twice.allocations - once.allocations) / static_cast<double>(kN)
      << " allocations per steady-state hit";
  // The counter is live: the cold first traps (full verification) allocate.
  EXPECT_GT(once.allocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Loops, CheckerAllocations,
    ::testing::Values(Loop{"brk", Call::Brk, true}, Loop{"getpid", Call::Getpid, true},
                      Loop{"read4k", Call::Read4k, true}, Loop{"write4k", Call::Write4k, true},
                      Loop{"brk_shadow_off", Call::Brk, false}),
    [](const ::testing::TestParamInfo<Loop>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace asc
