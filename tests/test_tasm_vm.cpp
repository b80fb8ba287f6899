// Assembler/linker and VM semantics tests: small hand-written programs with
// known outcomes.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <memory>
#include <type_traits>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "tasm/assembler.h"

namespace asc {
namespace {

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;
using apps::R12;

/// Assemble a main() body and run it unmonitored; returns the RunResult.
vm::RunResult run_program(const std::function<void(tasm::Assembler&)>& body,
                          const std::vector<std::string>& argv = {},
                          const std::string& stdin_data = "") {
  tasm::Assembler a("t");
  body(a);
  apps::emit_libc(a, os::Personality::LinuxSim);
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  return sys.machine().run(a.link(), argv, stdin_data);
}

TEST(Tasm, ExitCodePropagates) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R0, 42);
    a.ret();
  });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.exit_code, 42);
}

TEST(Tasm, ArithmeticAndFlags) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R11, 10);
    a.movi(R12, 3);
    a.mov(R0, R11);
    a.mul(R0, R12);   // 30
    a.subi(R0, 5);    // 25
    a.movi(R12, 7);
    a.mod(R0, R12);   // 4
    a.cmpi(R0, 4);
    a.jz(".ok");
    a.movi(R0, 99);
    a.ret();
    a.label(".ok");
    a.ret();
  });
  EXPECT_EQ(r.exit_code, 4);
}

TEST(Tasm, SignedComparisons) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R11, 0);
    a.subi(R11, 5);  // -5
    a.cmpi(R11, 3);
    a.jlt(".ok");    // signed: -5 < 3
    a.movi(R0, 1);
    a.ret();
    a.label(".ok");
    a.movi(R0, 0);
    a.ret();
  });
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Tasm, StackDiscipline) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R11, 17);
    a.push(R11);
    a.movi(R11, 0);
    a.pop(R0);
    a.ret();
  });
  EXPECT_EQ(r.exit_code, 17);
}

TEST(Tasm, CallsAndHelpers) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.lea(R1, "msg");
    a.call("strlen");
    a.ret();  // exit code = strlen("hello")
    a.rodata_cstr("msg", "hello");
  });
  EXPECT_EQ(r.exit_code, 5);
}

TEST(Tasm, PrintGoesToStdout) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.lea(R1, "msg");
    a.call("print");
    a.movi(R1, 123);
    a.call("print_num");
    a.movi(R0, 0);
    a.ret();
    a.rodata_cstr("msg", "out:");
  });
  EXPECT_EQ(r.stdout_data, "out:123");
}

TEST(Tasm, DataSectionsAndPointers) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.lea(R11, "ptr");
    a.load(R11, R11, 0);   // follow the data-resident pointer
    a.load(R0, R11, 4);    // second word of the table
    a.ret();
    a.data_words("table", {111, 222, 333});
    a.data_ptr("ptr", "table");
  });
  EXPECT_EQ(r.exit_code, 222);
}

TEST(Tasm, BssIsZeroInitialized) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.lea(R11, "buf");
    a.load(R0, R11, 96);
    a.ret();
    a.bss("buf", 256);
  });
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Tasm, UndefinedSymbolThrows) {
  tasm::Assembler a("bad");
  a.func("main");
  a.lea(R1, "missing");
  a.ret();
  EXPECT_THROW(a.link(), Error);
}

TEST(Tasm, DuplicateFunctionThrows) {
  tasm::Assembler a("bad");
  a.func("main");
  a.ret();
  EXPECT_THROW(a.func("main"), Error);
}

TEST(Tasm, ArgvReachesMain) {
  auto r = run_program(
      [](tasm::Assembler& a) {
        a.func("main");
        // r1=argc, r2=argv; exit code = strlen(argv[1])
        a.cmpi(R1, 2);
        a.jge(".ok");
        a.movi(R0, 77);
        a.ret();
        a.label(".ok");
        a.load(R1, R2, 4);
        a.call("strlen");
        a.ret();
      },
      {"first", "longer-arg"});
  EXPECT_EQ(r.exit_code, 10);
}

TEST(Vm, DivisionByZeroFaults) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R11, 5);
    a.movi(R12, 0);
    a.div(R11, R12);
    a.movi(R0, 0);
    a.ret();
  });
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.violation_detail.find("division"), std::string::npos);
}

TEST(Vm, WildMemoryAccessFaults) {
  auto r = run_program([](tasm::Assembler& a) {
    a.func("main");
    a.movi(R11, 0x1000);  // far below the address space
    a.load(R0, R11, 0);
    a.ret();
  });
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.violation_detail.find("0x00001000"), std::string::npos) << r.violation_detail;
}

static_assert(!std::is_copy_constructible_v<vm::Memory>);

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(Vm, AddressSpaceFaultsInOnlyTouchedPages) {
  tasm::Assembler a("small");
  a.func("main");
  a.movi(R0, 0);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  constexpr int kSpaces = 64;
  std::vector<vm::Memory> spaces;
  spaces.reserve(kSpaces);
  const long before = minor_faults();
  for (int i = 0; i < kSpaces; ++i) spaces.emplace_back().load_image(image);
  const long per_space = (minor_faults() - before) / kSpaces;
  // A dense 8 MiB window takes 2,048 faults; ASan's shadow pages add a few.
  EXPECT_LT(per_space, 100);
}

TEST(Vm, UntouchedMemoryReadsZero) {
  vm::Memory mem;
  EXPECT_EQ(mem.r32(binary::kHeapBase), 0u);
  EXPECT_EQ(mem.r32(binary::kStackTop - 4), 0u);
  EXPECT_EQ(mem.r8(binary::kStackTop - 1), 0u);
}

TEST(Vm, MovedMemoryKeepsItsBytes) {
  auto src = std::make_unique<vm::Memory>();
  src->w32(binary::kHeapBase, 0xdeadbeefu);
  vm::Memory moved(std::move(*src));
  src.reset();
  EXPECT_EQ(moved.r32(binary::kHeapBase), 0xdeadbeefu);
  vm::Memory assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.r32(binary::kHeapBase), 0xdeadbeefu);
}

TEST(Vm, CycleLimitStopsRunawayGuest) {
  tasm::Assembler a("spin");
  a.func("main");
  a.label(".forever");
  a.jmp(".forever");
  apps::emit_libc(a, os::Personality::LinuxSim);
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  sys.machine().set_cycle_limit(10000);
  auto r = sys.machine().run(a.link());
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.cycle_limit_hit);
}

TEST(Vm, CyclesAreDeterministic) {
  auto make = [] {
    tasm::Assembler a("det");
    a.func("main");
    a.movi(R11, 100);
    a.label(".loop");
    a.subi(R11, 1);
    a.cmpi(R11, 0);
    a.jnz(".loop");
    a.movi(R0, 0);
    a.ret();
    apps::emit_libc(a, os::Personality::LinuxSim);
    return a.link();
  };
  System s1(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  System s2(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  auto r1 = s1.machine().run(make());
  auto r2 = s2.machine().run(make());
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

}  // namespace
}  // namespace asc
