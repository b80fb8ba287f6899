// Edge cases of the kernel-side checker (§3.4): hostile pointers, oversized
// lengths, malformed blobs -- the places where a naive checker would crash
// or stall the kernel (the §3.2 denial-of-service concern).
#include <gtest/gtest.h>

#include "apps/libtoy.h"
#include "policy/authstring.h"
#include "policy/policy.h"
#include "util/hex.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace asc {
namespace {

struct Harness {
  System sys{os::Personality::LinuxSim};
  installer::InstallResult inst;

  Harness() {
    testing::prepare_fs(sys.kernel().fs());
    inst = sys.install(apps::build_tool_cat(os::Personality::LinuxSim));
  }

  /// Run with a one-shot register/memory mutation at syscall `n`.
  vm::RunResult run_with(int n, std::function<void(os::Process&)> mutate) {
    int count = 0;
    testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
      if (++count == n) mutate(p);
    });
    return sys.machine().run(inst.image, {"/lines.txt"});
  }
};

TEST(CheckerEdge, NullExtraArgumentsDoNotCrashTheKernel) {
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    for (isa::Reg reg = 6; reg <= 10; ++reg) p.cpu.regs[reg] = 0;
  });
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.violation, os::Violation::None);
}

TEST(CheckerEdge, PointersJustBelowAddressSpaceAreRejected) {
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    p.cpu.regs[isa::kRegPredSet] = binary::kAddressSpaceBase + 2;  // header underflows
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, PointersAtAddressSpaceEndAreRejected) {
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    p.cpu.regs[isa::kRegCallMac] = binary::kAddressSpaceEnd - 4;  // 16B read overflows
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, OversizedAsLengthIsRejectedNotScanned) {
  // An attacker rewrites an AS length field to a huge value: the kernel
  // must refuse rather than MAC megabytes of memory (denial of service).
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    const std::uint32_t body = p.cpu.regs[isa::kRegPredSet];
    p.mem.w32(body - 20, 0x7fffffff);
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, TruncatedPredSetBlobIsRejected) {
  // Shrink the claimed length: the header no longer matches the call MAC.
  Harness h;
  auto r = h.run_with(3, [](os::Process& p) {
    const std::uint32_t body = p.cpu.regs[isa::kRegPredSet];
    p.mem.w32(body - 20, 4);
  });
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.violation, os::Violation::None);
}

TEST(CheckerEdge, SwappingTwoAuthenticStringsIsCaught) {
  // Both strings have valid MACs; using one where the policy names the
  // other must fail, because the encoded call binds the ADDRESS.
  System sys(os::Personality::LinuxSim);
  testing::prepare_fs(sys.kernel().fs());
  auto inst = sys.install(apps::build_vuln_echo(os::Personality::LinuxSim));
  // Find the two AS bodies: "/etc/vuln.conf" (config open) and "/bin/ls".
  const auto* sec = inst.image.find_section(binary::SectionKind::AsData);
  auto body_of = [&](const std::string& s) -> std::uint32_t {
    for (std::size_t i = 20; i + s.size() <= sec->bytes.size(); ++i) {
      if (std::equal(s.begin(), s.end(), sec->bytes.begin() + static_cast<std::ptrdiff_t>(i)) &&
          util::get_u32(sec->bytes, i - 20) == s.size()) {
        return sec->vaddr() + static_cast<std::uint32_t>(i);
      }
    }
    return 0;
  };
  const std::uint32_t conf = body_of("/etc/vuln.conf");
  ASSERT_NE(conf, 0u);
  const std::uint16_t spawn_no =
      *os::syscall_number(os::Personality::LinuxSim, os::SysId::Spawn);
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (p.cpu.regs[0] == spawn_no) p.cpu.regs[1] = conf;  // authentic, wrong string
  });
  auto r = sys.machine().run(inst.image, {}, "x\n");
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, BlockIdFromAnotherSiteOfSameProgramIsCaught) {
  // Claiming a different (valid!) block id of the same program changes the
  // encoded call -> call MAC mismatch. The id cannot be mixed and matched.
  Harness h;
  std::uint32_t first_block = 0;
  auto r = h.run_with(2, [&](os::Process& p) {
    first_block = p.cpu.regs[isa::kRegBlockId];
    p.cpu.regs[isa::kRegBlockId] = first_block ^ 1;
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, CheckingCostIsChargedToTheProcess) {
  // The checker must account its own cycles (MAC work) to the calling
  // process -- this is what every performance table measures.
  System off(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  System on(os::Personality::LinuxSim);
  testing::prepare_fs(off.kernel().fs());
  testing::prepare_fs(on.kernel().fs());
  auto img = apps::build_tool_cat(os::Personality::LinuxSim);
  auto r0 = off.machine().run(img, {"/lines.txt"});
  auto r1 = on.machine().run(on.install(img).image, {"/lines.txt"});
  ASSERT_TRUE(r0.completed);
  ASSERT_TRUE(r1.completed);
  const double per_call =
      static_cast<double>(r1.cycles - r0.cycles) / static_cast<double>(r1.syscalls);
  EXPECT_GT(per_call, 2000.0) << "checking cannot be nearly free";
  EXPECT_LT(per_call, 20000.0) << "checking cost out of calibrated range";
}

TEST(CheckerEdge, AsBodyPointerBelowHeaderSizeIsRejected) {
  // A body pointer smaller than the 20-byte header cannot have a header in
  // front of it; the subtraction must not underflow into a bogus address.
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    p.cpu.regs[isa::kRegPredSet] = policy::kAsHeaderSize - 4;
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
  EXPECT_NE(r.violation_detail.find("unreadable"), std::string::npos);
}

TEST(CheckerEdge, AsLengthAtMaximumIsScannedNotRejected) {
  // len == kAsMaxLength is the last ACCEPTED length: the header passes the
  // plausibility check and the forgery is caught by the call MAC instead.
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    const std::uint32_t body = p.cpu.regs[isa::kRegPredSet];
    p.mem.w32(body - policy::kAsHeaderSize, policy::kAsMaxLength);
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
  EXPECT_NE(r.violation_detail.find("call MAC mismatch"), std::string::npos);
}

TEST(CheckerEdge, AsLengthJustOverMaximumIsRejectedUpFront) {
  // len == kAsMaxLength + 1 must be refused before any MAC work (§3.2
  // denial-of-service guard), yielding the "unreadable header" path.
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    const std::uint32_t body = p.cpu.regs[isa::kRegPredSet];
    p.mem.w32(body - policy::kAsHeaderSize, policy::kAsMaxLength + 1);
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
  EXPECT_NE(r.violation_detail.find("unreadable"), std::string::npos);
}

TEST(CheckerEdge, AsHeaderStraddlingEndOfMemoryIsRejected) {
  // Body pointer just past the end: the implied header starts inside the
  // address space but runs off it. Reading it must not fault the host.
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    p.cpu.regs[isa::kRegPredSet] = binary::kAddressSpaceEnd + 4;
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, AsBodyPointerFarAboveEndOfMemoryIsRejected) {
  // Regression test for an in_range() underflow: for pointers far above the
  // end, (end - addr) wrapped and the bounds check incorrectly passed.
  Harness h;
  auto r = h.run_with(2, [](os::Process& p) {
    p.cpu.regs[isa::kRegPredSet] = 0xfffffff0u;
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

TEST(CheckerEdge, PolicyStateReplayedFromAnotherProcessIsCaught) {
  // Capture the {lastBlock, lbMAC} record from one process's address space
  // and graft it into a fresh process at a different point in its syscall
  // history. The MAC is authentic, but its counter nonce belongs to the
  // donor -- the online memory checker must refuse it (§3.4 anti-replay).
  std::vector<std::uint8_t> donor;
  {
    Harness a;
    // Harvest eager-protocol bytes: with the shadow on, the donor's guest
    // record lags (lazy write-back) and would coincide with the victim's own
    // stale record, making the graft a no-op instead of a replay.
    a.sys.kernel().set_policy_shadow(false);
    int count = 0;
    testing::on_pre_trap(a.sys.kernel(), [&](os::Process& p, std::uint32_t) {
      if (++count == 3 && p.mem.in_range(p.cpu.regs[isa::kRegStatePtr],
                                         policy::kPolicyStateSize)) {
        donor = p.mem.read_bytes(p.cpu.regs[isa::kRegStatePtr], policy::kPolicyStateSize);
      }
    });
    auto r = a.sys.machine().run(a.inst.image, {"/lines.txt"});
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(donor.size(), policy::kPolicyStateSize);
  }
  Harness b;
  auto r = b.run_with(2, [&](os::Process& p) {
    p.mem.write_bytes(p.cpu.regs[isa::kRegStatePtr], donor);
  });
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPolicyState);
  EXPECT_NE(r.violation_detail.find("replayed"), std::string::npos);
}

TEST(CheckerEdge, EnforcementRequiresAKey) {
  os::Kernel kernel(os::Personality::LinuxSim);
  kernel.set_enforcement(os::Enforcement::Asc);
  os::Process p;
  p.cpu.regs[0] = 20;  // getpid
  EXPECT_THROW(kernel.on_syscall(p, 0x8048000), Error);
}

}  // namespace
}  // namespace asc
