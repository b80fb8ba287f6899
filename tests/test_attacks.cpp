// The attack experiments of §4.1 and §5.5, run for real against the
// simulated kernel:
//
//   1. shellcode attack   -- injected code issues its own spawn("/bin/sh");
//                            blocked because the call is unauthenticated.
//   2. mimicry attack     -- injected copy of an authenticated call sequence
//                            taken from the binary; blocked because the call
//                            site (and thus the encoded call) differs.
//   2b. out-of-order jump -- reuse an EXISTING authenticated call in the
//                            binary out of control-flow order; blocked by
//                            the predecessor check.
//   3. non-control-data   -- swap the argument of an existing authenticated
//                            spawn: (a) point the register at "/bin/sh"
//                            (call-MAC failure), (b) overwrite the
//                            authenticated string bytes (string-MAC failure).
//   4. replay attack      -- restore stale lastBlock/lbMAC bytes; the
//                            kernel's counter nonce detects it.
//   5. Frankenstein       -- splice an authenticated call from another
//                            program; succeeds without unique block ids,
//                            blocked with them (§5.5).
#include <gtest/gtest.h>

#include "isa/encode.h"
#include "tasm/assembler.h"
#include "apps/libtoy.h"
#include "util/hex.h"
#include "workloads.h"

namespace asc {
namespace {

using apps::R0;
using apps::R1;

constexpr std::uint32_t kSetupLen = 30;   // movi,movi,lea,lea,lea before SYSCALL
constexpr std::uint32_t kMoviLen = 6;

/// Find the AS body address of a string constant inside the installed
/// image's .asdata (content preceded by the 20-byte {len, MAC} header).
std::uint32_t find_as_body(const binary::Image& img, const std::string& content) {
  const auto* sec = img.find_section(binary::SectionKind::AsData);
  if (sec == nullptr) return 0;
  const auto& b = sec->bytes;
  for (std::size_t i = 20; i + content.size() <= b.size(); ++i) {
    if (std::equal(content.begin(), content.end(), b.begin() + static_cast<std::ptrdiff_t>(i)) &&
        util::get_u32(b, i - 20) == content.size()) {
      return sec->vaddr() + static_cast<std::uint32_t>(i);
    }
  }
  return 0;
}

const policy::SyscallPolicy* find_policy(const installer::InstallResult& inst, os::SysId id) {
  for (const auto& p : inst.policies) {
    if (p.sys == id) return &p;
  }
  return nullptr;
}

std::vector<std::uint8_t> encode_seq(const std::vector<isa::Instr>& seq) {
  std::vector<std::uint8_t> out;
  for (const auto& ins : seq) isa::encode(ins, out);
  return out;
}

struct VulnSetup {
  System sys{os::Personality::LinuxSim};
  installer::InstallResult inst;
  std::uint32_t buf_addr = 0;  // stack address of the vulnerable buffer

  VulnSetup() {
    testing::prepare_fs(sys.kernel().fs());
    sys.install_and_register("/bin/ls", apps::build_tool_cat(os::Personality::LinuxSim));
    inst = sys.install(apps::build_vuln_echo(os::Personality::LinuxSim));

    // Recon run: capture the buffer address at the stdin read. Execution is
    // deterministic, so the address is identical in the attack run.
    const std::uint16_t read_no = *os::syscall_number(os::Personality::LinuxSim, os::SysId::Read);
    testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
      if (p.cpu.regs[0] == read_no && p.cpu.regs[1] == 0 && buf_addr == 0) {
        buf_addr = p.cpu.regs[2];
      }
    });
    auto r = sys.machine().run(inst.image, {}, "legit.txt\n");
    sys.kernel().set_stage_hook({});
    EXPECT_TRUE(r.completed);
    EXPECT_NE(buf_addr, 0u);
  }

  /// Overflow payload: 64 bytes of filler, the new return address, then
  /// `extra` (shellcode/data) landing at buf_addr + 68.
  std::string payload(std::uint32_t new_ret, const std::vector<std::uint8_t>& extra) {
    std::string s(64, 'A');
    for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(new_ret >> (8 * i)));
    s.append(extra.begin(), extra.end());
    return s;
  }

  bool spawned_shell() {
    for (const auto& rec : sys.kernel().audit_log()) {
      if (rec.to_string().find("SPAWN /bin/sh") != std::string::npos) return true;
    }
    return false;
  }
};

TEST(Attacks, ShellcodeAttackIsBlockedAsUnauthenticated) {
  VulnSetup v;
  const std::uint32_t code_addr = v.buf_addr + 68;
  // Shellcode: spawn("/bin/sh") -- a brand-new, unauthenticated call.
  const std::uint16_t spawn_no =
      *os::syscall_number(os::Personality::LinuxSim, os::SysId::Spawn);
  std::vector<isa::Instr> code{
      {isa::Op::Movi, 1, 0, 0},  // r1 = &"/bin/sh" (patched below)
      {isa::Op::Movi, 2, 0, 0},
      {isa::Op::Movi, 0, 0, spawn_no},
      {isa::Op::Syscall},
      {isa::Op::Halt},
  };
  auto bytes = encode_seq(code);
  const std::uint32_t sh_addr = code_addr + static_cast<std::uint32_t>(bytes.size());
  code[0].imm = sh_addr;
  bytes = encode_seq(code);
  for (char c : std::string("/bin/sh")) bytes.push_back(static_cast<std::uint8_t>(c));
  bytes.push_back(0);

  auto r = v.sys.machine().run(v.inst.image, {}, v.payload(code_addr, bytes));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac) << r.violation_detail;
  EXPECT_FALSE(v.spawned_shell());
}

TEST(Attacks, MimicryWithCopiedAuthenticatedCallIsBlockedByCallSite) {
  VulnSetup v;
  // Copy the complete authenticated spawn sequence (movi r0 + 5 setup
  // instructions + syscall) out of the binary and run it from the stack.
  // Every extra argument is bit-for-bit authentic -- but the call SITE is
  // now a stack address, so the kernel's encoded call differs.
  const auto* spawn_pol = find_policy(v.inst, os::SysId::Spawn);
  ASSERT_NE(spawn_pol, nullptr);
  const std::uint32_t seq_start = spawn_pol->call_site - kSetupLen - kMoviLen;
  const std::uint32_t seq_len = kSetupLen + kMoviLen + 1;  // + SYSCALL byte
  auto seq = v.inst.image.bytes_at(seq_start, seq_len);
  ASSERT_TRUE(seq.has_value());

  const std::uint32_t code_addr = v.buf_addr + 68;
  std::vector<std::uint8_t> bytes;
  // r1 = authentic AS body ("/bin/ls"), r2 = 0 -- maximally faithful.
  const std::uint32_t ls_body = find_as_body(v.inst.image, "/bin/ls");
  ASSERT_NE(ls_body, 0u);
  isa::encode({isa::Op::Movi, 1, 0, ls_body}, bytes);
  isa::encode({isa::Op::Movi, 2, 0, 0}, bytes);
  bytes.insert(bytes.end(), seq->begin(), seq->end());
  isa::encode({isa::Op::Halt}, bytes);

  auto r = v.sys.machine().run(v.inst.image, {}, v.payload(code_addr, bytes));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac) << r.violation_detail;
}

TEST(Attacks, OutOfOrderReuseIsBlockedByControlFlowPolicy) {
  VulnSetup v;
  // Jump to the EXISTING authenticated config-open inside load_config. The
  // call is authentic at its real site, but load_config's open can never
  // follow the stdin read in the syscall graph -> predecessor violation.
  const auto* open_pol = find_policy(v.inst, os::SysId::Open);
  ASSERT_NE(open_pol, nullptr);
  const std::uint32_t conf_body = find_as_body(v.inst.image, "/etc/vuln.conf");
  ASSERT_NE(conf_body, 0u);

  const std::uint32_t code_addr = v.buf_addr + 68;
  std::vector<std::uint8_t> bytes;
  isa::encode({isa::Op::Movi, 1, 0, conf_body}, bytes);       // authentic path arg
  isa::encode({isa::Op::Movi, 2, 0, 0}, bytes);               // O_RDONLY
  isa::encode({isa::Op::Movi, 3, 0, 0}, bytes);
  isa::encode({isa::Op::Movi, 0, 0, open_pol->sysno}, bytes);
  isa::encode({isa::Op::Jmp, 0, 0, open_pol->call_site - kSetupLen}, bytes);

  auto r = v.sys.machine().run(v.inst.image, {}, v.payload(code_addr, bytes));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPredecessor) << r.violation_detail;
}

TEST(Attacks, NonControlDataSwappedPointerIsBlocked) {
  VulnSetup v;
  // Reuse the authenticated spawn IN PLACE (jump to its setup) but point r1
  // at a "/bin/sh" string on the stack instead of the authenticated string.
  const auto* spawn_pol = find_policy(v.inst, os::SysId::Spawn);
  ASSERT_NE(spawn_pol, nullptr);

  const std::uint32_t code_addr = v.buf_addr + 68;
  std::vector<isa::Instr> code{
      {isa::Op::Movi, 1, 0, 0},  // r1 = &"/bin/sh" (patched)
      {isa::Op::Movi, 2, 0, 0},
      {isa::Op::Movi, 0, 0, spawn_pol->sysno},
      {isa::Op::Jmp, 0, 0, spawn_pol->call_site - kSetupLen},
  };
  auto bytes = encode_seq(code);
  const std::uint32_t sh_addr = code_addr + static_cast<std::uint32_t>(bytes.size());
  code[0].imm = sh_addr;
  bytes = encode_seq(code);
  for (char c : std::string("/bin/sh")) bytes.push_back(static_cast<std::uint8_t>(c));
  bytes.push_back(0);

  auto r = v.sys.machine().run(v.inst.image, {}, v.payload(code_addr, bytes));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac) << r.violation_detail;
  EXPECT_FALSE(v.spawned_shell());
}

TEST(Attacks, NonControlDataStringOverwriteIsBlockedByStringMac) {
  VulnSetup v;
  // Overwrite the authenticated string CONTENT ("/bin/ls" -> "/bin/sh") in
  // the writable .asdata, keeping address and length identical, then drive
  // the authentic spawn normally. The call MAC passes (it covers only
  // {addr, len, MAC-of-original}); the content check catches the change.
  const auto* spawn_pol = find_policy(v.inst, os::SysId::Spawn);
  ASSERT_NE(spawn_pol, nullptr);
  const std::uint32_t ls_body = find_as_body(v.inst.image, "/bin/ls");
  ASSERT_NE(ls_body, 0u);

  const std::uint32_t code_addr = v.buf_addr + 68;
  std::vector<std::uint8_t> bytes;
  isa::encode({isa::Op::Movi, 11, 0, ls_body}, bytes);
  isa::encode({isa::Op::Movi, 12, 0, 's'}, bytes);
  isa::encode({isa::Op::Storeb, 12, 11, 5}, bytes);  // "/bin/l s" -> "/bin/s h"
  isa::encode({isa::Op::Movi, 12, 0, 'h'}, bytes);
  isa::encode({isa::Op::Storeb, 12, 11, 6}, bytes);
  isa::encode({isa::Op::Movi, 1, 0, ls_body}, bytes);  // authentic pointer
  isa::encode({isa::Op::Movi, 2, 0, 0}, bytes);
  isa::encode({isa::Op::Movi, 0, 0, spawn_pol->sysno}, bytes);
  isa::encode({isa::Op::Jmp, 0, 0, spawn_pol->call_site - kSetupLen}, bytes);

  auto r = v.sys.machine().run(v.inst.image, {}, v.payload(code_addr, bytes));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadStringArg) << r.violation_detail;
  EXPECT_FALSE(v.spawned_shell());
}

TEST(Attacks, ReplayOfPolicyStateIsDetectedByCounter) {
  // Snapshot lastBlock/lbMAC after the first syscall and restore the stale
  // bytes before a later one: the in-kernel counter nonce makes the stale
  // MAC invalid (§3.2's online memory checker).
  System sys(os::Personality::LinuxSim);
  testing::prepare_fs(sys.kernel().fs());
  auto inst = sys.install(apps::build_tool_cat(os::Personality::LinuxSim));

  std::vector<std::uint8_t> snapshot;
  std::uint32_t lb_ptr = 0;
  int count = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    ++count;
    if (count == 2) {
      // After call #1 the state holds {block1, MAC(block1, 1)}.
      lb_ptr = p.cpu.regs[isa::kRegStatePtr];
      snapshot = p.mem.read_bytes(lb_ptr, policy::kPolicyStateSize);
    } else if (count == 5 && !snapshot.empty()) {
      p.mem.write_bytes(lb_ptr, snapshot);  // replay stale state
    }
  });
  auto r = sys.machine().run(inst.image, {"/lines.txt"});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadPolicyState) << r.violation_detail;
}

TEST(Attacks, TamperedPolicyDescriptorIsDetected) {
  System sys(os::Personality::LinuxSim);
  testing::prepare_fs(sys.kernel().fs());
  auto inst = sys.install(apps::build_tool_cat(os::Personality::LinuxSim));
  int count = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++count == 3) {
      // Clear the argument-constraint bits, pretending nothing is checked.
      p.cpu.regs[isa::kRegPolicyDescriptor] &= 3u;
    }
  });
  auto r = sys.machine().run(inst.image, {"/lines.txt"});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);
}

// ---- Frankenstein (§5.5) ----

binary::Image frankenstein_base(const std::string& name, bool with_getuid) {
  tasm::Assembler a(name);
  a.func("main");
  a.call("sys_getpid");
  if (with_getuid) a.call("sys_getuid");
  a.movi(R0, 0);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

struct FrankParts {
  std::uint32_t seq_start = 0;            // text address of B's getuid sequence
  std::vector<std::uint8_t> text_bytes;   // the sequence itself
  std::uint32_t asdata_tail_addr = 0;     // B's .asdata beyond A's
  std::vector<std::uint8_t> asdata_tail;
};

/// Run program A, let it execute its authenticated getpid, then splice in
/// program B's authenticated getuid call (text + .asdata tail) and jump to
/// it -- the §5.5 Frankenstein construction.
vm::RunResult run_frankenstein(bool unique_ids, os::Violation* violation_out) {
  System sys(os::Personality::LinuxSim);
  installer::InstallOptions opts;
  opts.unique_block_ids = unique_ids;
  auto inst_a = sys.install(frankenstein_base("progA", false), opts);
  auto inst_b = sys.install(frankenstein_base("progB", true), opts);

  const auto* getuid_pol = find_policy(inst_b, os::SysId::Getuid);
  EXPECT_NE(getuid_pol, nullptr);
  FrankParts parts;
  parts.seq_start = getuid_pol->call_site - kSetupLen - kMoviLen;
  auto seq = inst_b.image.bytes_at(parts.seq_start, kSetupLen + kMoviLen + 1);
  EXPECT_TRUE(seq.has_value());
  parts.text_bytes = *seq;
  // Splice ALL of B's policy blobs except the live policy-state record (the
  // first 20 bytes, which the kernel has been updating for A's calls).
  const auto* as_b = inst_b.image.find_section(binary::SectionKind::AsData);
  parts.asdata_tail_addr = as_b->vaddr() + policy::kPolicyStateSize;
  parts.asdata_tail.assign(as_b->bytes.begin() + policy::kPolicyStateSize, as_b->bytes.end());

  // Hook: after A's getpid retires (call #1 done), redirect to B's spliced
  // getuid sequence. We patch memory on the SECOND syscall's trap... no:
  // patch right before the second syscall instruction would be too late to
  // redirect. Instead patch memory up front and redirect control after the
  // first syscall completes, detected via instruction count.
  bool redirected = false;
  int syscalls_seen = 0;
  auto& machine = sys.machine();
  machine.kernel().set_tracing(true);
  testing::on_pre_trap(machine.kernel(), [&](os::Process&, std::uint32_t) { ++syscalls_seen; });
  machine.pre_instr_hook = [&](os::Process& p) {
    // Splice and redirect only AFTER A's own authenticated getpid retired
    // (the splice must not clobber live code/blobs A still needs).
    if (!redirected && syscalls_seen == 1) {
      p.mem.write_bytes(parts.seq_start, parts.text_bytes);
      p.mem.write_bytes(parts.asdata_tail_addr, parts.asdata_tail);
      redirected = true;
      p.cpu.pc = parts.seq_start;  // jump to B's authenticated getuid
    }
  };
  auto r = machine.run(inst_a.image);
  if (violation_out != nullptr) {
    // The interesting outcome is whether the SPLICED CALL executed; after it
    // the program falls into byte salad, so the final run state is noise.
    *violation_out = r.violation;
    for (const auto& t : machine.kernel().trace()) {
      if (t.id == os::SysId::Getuid && t.ret >= 0) *violation_out = os::Violation::None;
    }
    if (r.violation == os::Violation::BadPredecessor) {
      *violation_out = os::Violation::BadPredecessor;
    }
  }
  return r;
}

TEST(Attacks, FrankensteinSucceedsWithoutUniqueBlockIds) {
  os::Violation v = os::Violation::BadPredecessor;
  auto r = run_frankenstein(/*unique_ids=*/false, &v);
  // B's getuid predecessor set names the local getpid block id, which
  // collides with A's -- the spliced call is ACCEPTED.
  EXPECT_EQ(v, os::Violation::None) << r.violation_detail;
}

TEST(Attacks, FrankensteinBlockedWithUniqueBlockIds) {
  os::Violation v = os::Violation::None;
  auto r = run_frankenstein(/*unique_ids=*/true, &v);
  EXPECT_EQ(v, os::Violation::BadPredecessor) << r.violation_detail;
  EXPECT_FALSE(r.completed);
}

}  // namespace
}  // namespace asc
