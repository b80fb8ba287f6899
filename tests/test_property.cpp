// Property-based tests.
//
// 1. NO FALSE ALARMS: for randomly generated guest programs, the installed
//    binary behaves identically under enforcement (the conservative-
//    analysis guarantee, fuzzed over program shapes).
// 2. NO MISSED TAMPERING: random corruption of the extra-argument registers
//    or of the policy blobs at a random system call is always detected.
#include <gtest/gtest.h>

#include "apps/libtoy.h"
#include "tasm/assembler.h"
#include "util/rng.h"
#include "workloads.h"

namespace asc {
namespace {

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;
using apps::R12;

/// Generate a random guest: a chain of "segments", each doing some register
/// arithmetic, an optional loop, and a randomly chosen safe system call.
binary::Image random_program(std::uint64_t seed) {
  util::Rng rng(seed);
  tasm::Assembler a("fuzz" + std::to_string(seed));
  a.func("main");
  const int segments = static_cast<int>(rng.next_in(2, 8));
  for (int s = 0; s < segments; ++s) {
    const std::string lbl = ".seg" + std::to_string(s);
    // Arithmetic noise.
    a.movi(R11, static_cast<std::uint32_t>(rng.next_u64() & 0xffff));
    a.movi(R12, static_cast<std::uint32_t>(rng.next_in(1, 9)));
    switch (rng.next_below(4)) {
      case 0: a.add(R11, R12); break;
      case 1: a.mul(R11, R12); break;
      case 2: a.xor_(R11, R12); break;
      default: a.mod(R11, R12); break;
    }
    // Optional small loop.
    if (rng.chance(1, 2)) {
      a.movi(R12, static_cast<std::uint32_t>(rng.next_in(1, 5)));
      a.label(lbl);
      a.subi(R12, 1);
      a.cmpi(R12, 0);
      a.jnz(lbl);
    }
    // Optional branch over the syscall (exercises multi-predecessor sets).
    const bool branch = rng.chance(1, 3);
    const std::string skip = ".skip" + std::to_string(s);
    if (branch) {
      a.cmpi(R11, static_cast<std::uint32_t>(rng.next_below(2) * 0xffffffffull));
      a.jz(skip);
    }
    switch (rng.next_below(7)) {
      case 0:
        a.call("sys_getpid");
        break;
      case 1:
        a.call("sys_getuid");
        break;
      case 2:
        a.movi(R1, static_cast<std::uint32_t>(rng.next_below(0777)));
        a.call("sys_umask");
        break;
      case 3:
        a.movi(R1, 0);
        a.call("sys_time");
        break;
      case 4:
        a.lea(R1, "fz_msg");
        a.call("print");
        break;
      case 5: {
        a.lea(R1, "fz_path");
        a.movi(R2, apps::O_RDONLY);
        a.movi(R3, 0);
        a.call("sys_open");
        a.cmpi(R0, 0);
        a.jlt(skip + "o");
        a.mov(R1, R0);
        a.call("sys_close");
        a.label(skip + "o");
        break;
      }
      default:
        a.lea(R1, "fz_path");
        a.lea(R2, "fz_stat");
        a.call("sys_stat");
        break;
    }
    if (branch) a.label(skip);
  }
  a.movi(R0, static_cast<std::uint32_t>(rng.next_below(64)));
  a.ret();
  a.rodata_cstr("fz_msg", "segment\n");
  a.rodata_cstr("fz_path", "/fuzz.txt");
  a.bss("fz_stat", 16);
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, NoFalseAlarms) {
  const auto img = random_program(GetParam());

  System base(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  base.kernel().fs().open("/", "/fuzz.txt", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  auto r0 = base.machine().run(img);
  ASSERT_TRUE(r0.completed) << r0.violation_detail;

  System sys(os::Personality::LinuxSim);
  sys.kernel().fs().open("/", "/fuzz.txt", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  auto inst = sys.install(img);
  auto r1 = sys.machine().run(inst.image);
  EXPECT_TRUE(r1.completed) << os::violation_name(r1.violation) << ": " << r1.violation_detail;
  EXPECT_EQ(r1.violation, os::Violation::None);
  EXPECT_EQ(r1.exit_code, r0.exit_code);
  EXPECT_EQ(r1.stdout_data, r0.stdout_data);
  EXPECT_EQ(r1.syscalls, r0.syscalls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 33));

class RandomTampering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTampering, AlwaysDetected) {
  util::Rng rng(GetParam() * 7919);
  const auto img = apps::build_tool_cat(os::Personality::LinuxSim);

  System sys(os::Personality::LinuxSim);
  testing::prepare_fs(sys.kernel().fs());
  auto inst = sys.install(img);

  // Pick a random syscall occurrence and a random tampering action.
  const int target = static_cast<int>(rng.next_in(1, 6));
  const int action = static_cast<int>(rng.next_below(6));
  int count = 0;
  bool tampered = false;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++count != target) return;
    tampered = true;
    auto& regs = p.cpu.regs;
    switch (action) {
      case 0:  // flip a bit in the policy descriptor
        regs[isa::kRegPolicyDescriptor] ^= 1u << rng.next_below(18);
        break;
      case 1:  // change the claimed block id
        regs[isa::kRegBlockId] += static_cast<std::uint32_t>(rng.next_in(1, 1000));
        break;
      case 2:  // repoint the predecessor set
        regs[isa::kRegPredSet] += 4 * static_cast<std::uint32_t>(rng.next_in(1, 8));
        break;
      case 3:  // repoint the policy state
        regs[isa::kRegStatePtr] += 4;
        break;
      case 4:  // flip a bit of the call MAC in memory
      {
        const std::uint32_t mac_ptr = regs[isa::kRegCallMac];
        const std::uint32_t off = static_cast<std::uint32_t>(rng.next_below(16));
        p.mem.w8(mac_ptr + off,
                 static_cast<std::uint8_t>(p.mem.r8(mac_ptr + off) ^
                                           (1u << rng.next_below(8))));
        break;
      }
      default:  // corrupt a byte of the predecessor-set content
      {
        const std::uint32_t body = regs[isa::kRegPredSet];
        const std::uint32_t len = p.mem.r32(body - 20);
        const std::uint32_t off = static_cast<std::uint32_t>(rng.next_below(len));
        p.mem.w8(body + off, static_cast<std::uint8_t>(p.mem.r8(body + off) ^ 0x40));
        break;
      }
    }
  });
  auto r = sys.machine().run(inst.image, {"/lines.txt"});
  ASSERT_TRUE(tampered) << "cat must make at least " << target << " syscalls";
  EXPECT_FALSE(r.completed) << "tampering action " << action << " went undetected";
  EXPECT_NE(r.violation, os::Violation::None);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTampering,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(Determinism, InstallationIsReproducible) {
  // Same input + same key => byte-identical authenticated binary. Security
  // audits depend on this.
  System s1(os::Personality::LinuxSim);
  System s2(os::Personality::LinuxSim);
  auto a = s1.install(apps::build_gzip(os::Personality::LinuxSim));
  auto b = s2.install(apps::build_gzip(os::Personality::LinuxSim));
  EXPECT_EQ(a.image.serialize(), b.image.serialize());
}

TEST(Determinism, DifferentKeysDifferentMacs) {
  crypto::Key128 other = test_key();
  other[0] ^= 0xff;
  System s1(os::Personality::LinuxSim, test_key());
  System s2(os::Personality::LinuxSim, other);
  auto a = s1.install(apps::build_tool_rm(os::Personality::LinuxSim));
  auto b = s2.install(apps::build_tool_rm(os::Personality::LinuxSim));
  EXPECT_NE(a.image.serialize(), b.image.serialize());
  // A binary installed under one key must not run under another kernel key.
  auto r = s2.machine().run(a.image, {"/x"});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

}  // namespace
}  // namespace asc
