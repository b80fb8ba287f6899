// End-to-end tests for the §5 extensions: argument patterns with proof
// hints, capability tracking, and filename normalization.
#include <gtest/gtest.h>

#include "apps/libtoy.h"
#include "util/hex.h"
#include "monitor/training.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace asc {
namespace {

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;
using apps::R12;

// A program whose open() path is computed at runtime (tmpname), so static
// analysis cannot pin it; the administrator fills the metapolicy hole with
// the pattern "/tmp/*". The guest computes the match hint itself
// (strlen(name) - strlen("/tmp/")) -- the §5.1 proof-carrying flow.
binary::Image build_pattern_guest(bool evil) {
  tasm::Assembler a(evil ? "evilwriter" : "tmpwriter");
  a.func("main");
  a.subi(isa::kSp, 4);
  if (evil) {
    // Build "/etc/evil" at runtime so the analysis sees Unknown.
    a.lea(R1, "name_buf");
    a.lea(R2, "evil_src");
    a.call("strcpy");
  } else {
    a.lea(R1, "name_buf");
    a.call("tmpname");
  }
  // hint = strlen(name) - 5  (the single '*' consumes everything after
  // "/tmp/"; for the evil name this hint is simply wrong, as any hint is)
  a.lea(R1, "name_buf");
  a.call("strlen");
  a.subi(R0, 5);
  a.mov(R1, R0);
  a.call("asc_set_hint1");
  a.lea(R1, "name_buf");
  a.movi(R2, apps::O_WRONLY | apps::O_CREAT);
  a.movi(R3, 0600);
  a.call("sys_open");
  a.cmpi(R0, 0);
  a.jlt(".skip");
  a.mov(R1, R0);
  a.lea(R2, "payload");
  a.movi(R3, 5);
  a.call("sys_write");
  a.label(".skip");
  a.addi(isa::kSp, 4);
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("evil_src", "/etc/evil");
  a.rodata_cstr("payload", "data\n");
  a.bss("name_buf", 64);
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

installer::InstallResult install_with_tmp_pattern(System& sys, const binary::Image& img) {
  installer::InstallOptions opts;
  policy::SyscallMeta meta{};
  meta.args[0] = policy::ArgRequirement::MustPattern;
  opts.metapolicy.set(os::SysId::Open, meta);
  auto gp = sys.installer().analyze(img, opts);
  // Fill every open-path hole with the pattern.
  policy::PolicyTemplate t;
  t.policies = std::move(gp.policies);
  t.holes = std::move(gp.holes);
  while (!t.complete()) t.fill_with_pattern(0, "/tmp/*");
  gp.policies = std::move(t.policies);
  gp.holes.clear();
  return sys.installer().rewrite(img, std::move(gp), opts);
}

TEST(Patterns, TmpFileWriterPassesWithHonestHint) {
  System sys(os::Personality::LinuxSim);
  auto inst = install_with_tmp_pattern(sys, build_pattern_guest(false));
  auto r = sys.machine().run(inst.image);
  EXPECT_TRUE(r.completed) << os::violation_name(r.violation) << " " << r.violation_detail;
  EXPECT_EQ(r.violation, os::Violation::None);
}

TEST(Patterns, NonTmpPathIsKilledByPatternPolicy) {
  System sys(os::Personality::LinuxSim);
  auto inst = install_with_tmp_pattern(sys, build_pattern_guest(true));
  auto r = sys.machine().run(inst.image);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPattern) << r.violation_detail;
}

TEST(Patterns, LyingHintIsKilledEvenForMatchingPath) {
  System sys(os::Personality::LinuxSim);
  auto inst = install_with_tmp_pattern(sys, build_pattern_guest(false));
  // Corrupt the hint right before the open (simulating a compromised app
  // presenting a bogus proof for a matching argument).
  const auto open_no = *os::syscall_number(os::Personality::LinuxSim, os::SysId::Open);
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (p.cpu.regs[0] == open_no) {
      const std::uint32_t hint_ptr = p.cpu.regs[isa::kRegHintPtr];
      p.mem.w32(hint_ptr + 4, p.mem.r32(hint_ptr + 4) + 1);
    }
  });
  auto r = sys.machine().run(inst.image);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPattern);
}

TEST(Patterns, TamperedPatternTextIsKilled) {
  System sys(os::Personality::LinuxSim);
  auto inst = install_with_tmp_pattern(sys, build_pattern_guest(false));
  // Overwrite the pattern's AS content ("/tmp/*" -> "/etc/*") at the first
  // trap, before any check runs.
  bool patched = false;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (patched) return;
    patched = true;
    const auto* as = inst.image.find_section(binary::SectionKind::AsData);
    const std::string pat = "/tmp/*";
    for (std::size_t i = 20; i + pat.size() <= as->bytes.size(); ++i) {
      if (std::equal(pat.begin(), pat.end(), as->bytes.begin() + static_cast<std::ptrdiff_t>(i)) &&
          util::get_u32(as->bytes, i - 20) == pat.size()) {
        const std::uint32_t body = as->vaddr() + static_cast<std::uint32_t>(i);
        p.mem.write_bytes(body, util::bytes_of("/etc/*"));
        return;
      }
    }
  });
  auto r = sys.machine().run(inst.image);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPattern) << r.violation_detail;
}

// ---- §5.3 capability tracking ----

binary::Image build_two_file_reader() {
  tasm::Assembler a("tfr");
  a.func("main");
  // The open/read stubs are inlined, so no call boundary clobbers r11/r12
  // and the dataflow can trace the fd from the open's r0 to the read's r1.
  a.lea(R1, "pa");
  a.movi(R2, 0);
  a.movi(R3, 0);
  a.call("sys_open");
  a.mov(R11, R0);  // fd A
  // A branch between the opens puts them in DIFFERENT basic blocks, so the
  // two fds have distinct origin block ids (capability provenance is
  // block-granular, like everything else in the ASC design).
  a.cmpi(R0, 0);
  a.jge(".second");
  a.label(".second");
  a.lea(R1, "pb");
  a.movi(R2, 0);
  a.movi(R3, 0);
  a.call("sys_open");
  a.mov(R12, R0);  // fd B
  // read from fd A -- analysis traces the fd to the FIRST open site.
  a.mov(R1, R11);
  a.lea(R2, "buf");
  a.movi(R3, 8);
  a.call("sys_read");
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("pa", "/fileA");
  a.rodata_cstr("pb", "/fileB");
  a.bss("buf", 16);
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

TEST(Capability, FdProvenanceEnforced) {
  System sys(os::Personality::LinuxSim);
  auto& fs = sys.kernel().fs();
  for (const char* p : {"/fileA", "/fileB"}) {
    fs.open("/", p, os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  }
  installer::InstallOptions opts;
  opts.capability_tracking = true;
  auto inst = sys.install(build_two_file_reader(), opts);

  // The read's policy must carry the open site as the allowed fd source.
  const policy::SyscallPolicy* read_pol = nullptr;
  for (const auto& p : inst.policies) {
    if (p.sys == os::SysId::Read) read_pol = &p;
  }
  ASSERT_NE(read_pol, nullptr);
  ASSERT_EQ(read_pol->fd_sources.size(), 1u);

  // Legitimate run passes.
  auto r = sys.machine().run(inst.image);
  EXPECT_TRUE(r.completed) << r.violation_detail;

  // Compromised run: swap in the OTHER open's fd at the read.
  const auto read_no = *os::syscall_number(os::Personality::LinuxSim, os::SysId::Read);
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (p.cpu.regs[0] == read_no && p.cpu.regs[1] != 0) {
      p.cpu.regs[1] += 1;  // fd B was allocated right after fd A
    }
  });
  auto r2 = sys.machine().run(inst.image);
  EXPECT_FALSE(r2.completed);
  EXPECT_EQ(r2.violation, os::Violation::BadCapability) << r2.violation_detail;
}

// ---- §5.4 filename normalization ----

TEST(Normalization, SymlinkSwapIsCaughtWhenNormalizing) {
  // Baseline-monitor policy permits open("/tmp/foo"). The attacker replaces
  // /tmp/foo with a symlink to /etc/passwd. Without normalization the
  // monitor is fooled; with normalization (§5.4) the open is denied.
  auto img = apps::build_tool_cat(os::Personality::LinuxSim);
  for (bool normalize : {false, true}) {
    System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
    auto& fs = sys.kernel().fs();
    fs.open("/", "/etc/passwd", os::SimFs::kWrOnly | os::SimFs::kCreat, 0600);
    fs.open("/", "/tmp/foo", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
    // Train on the benign state.
    auto pol = monitor::train_policy(sys.machine(), img, {{{"/tmp/foo"}, ""}});
    // Attack: swap the file for a symlink.
    ASSERT_EQ(fs.unlink("/", "/tmp/foo"), 0);
    ASSERT_EQ(fs.symlink("/", "/etc/passwd", "/tmp/foo"), 0);
    sys.kernel().set_monitor_policy("cat", pol);
    sys.kernel().set_normalize_paths(normalize);
    sys.kernel().set_enforcement(os::Enforcement::Daemon);
    auto r = sys.machine().run(img, {"/tmp/foo"});
    if (normalize) {
      EXPECT_FALSE(r.completed) << "normalizing monitor must catch the symlink swap";
      EXPECT_EQ(r.violation, os::Violation::MonitorDenied);
    } else {
      EXPECT_TRUE(r.completed) << "non-normalizing monitor is fooled (the attack works)";
    }
  }
}

TEST(Normalization, KernelNormalizeResolvesDotsAndLinks) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  auto& fs = sys.kernel().fs();
  ASSERT_EQ(fs.mkdir("/", "/var", 0755), 0);
  ASSERT_EQ(fs.mkdir("/", "/var/log", 0755), 0);
  fs.open("/", "/var/log/app.log", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  ASSERT_EQ(fs.symlink("/", "/var/log", "/logs"), 0);
  EXPECT_EQ(fs.normalize("/", "/logs/../log/app.log").value_or("?"), "/var/log/app.log");
  EXPECT_EQ(fs.normalize("/logs", "app.log").value_or("?"), "/var/log/app.log");
}

}  // namespace
}  // namespace asc
