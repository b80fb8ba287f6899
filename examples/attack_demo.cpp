// Attack demo (§4.1): a vulnerable program under ASC enforcement.
//
// vuln_echo reads a file name from stdin into a 64-byte stack buffer with
// an unchecked read() -- classic stack smash -- then runs
// spawn("/bin/ls", <name>). This demo runs it four ways:
//   1. benign input                      -> works
//   2. shellcode injection (new spawn)   -> killed: unauthenticated call
//   3. out-of-order reuse of a real call -> killed: predecessor violation
//   4. authenticated-string overwrite    -> killed: string MAC mismatch
#include <cstdio>

#include "core/asc.h"
#include "isa/encode.h"
#include "util/hex.h"

using namespace asc;

namespace {

std::uint32_t find_as_body(const binary::Image& img, const std::string& content) {
  const auto* sec = img.find_section(binary::SectionKind::AsData);
  for (std::size_t i = 20; i + content.size() <= sec->bytes.size(); ++i) {
    if (std::equal(content.begin(), content.end(),
                   sec->bytes.begin() + static_cast<std::ptrdiff_t>(i)) &&
        util::get_u32(sec->bytes, i - 20) == content.size()) {
      return sec->vaddr() + static_cast<std::uint32_t>(i);
    }
  }
  return 0;
}

std::string overflow_payload(std::uint32_t ret, const std::vector<std::uint8_t>& code) {
  std::string s(64, 'A');
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(ret >> (8 * i)));
  s.append(code.begin(), code.end());
  return s;
}

void report(const char* what, const vm::RunResult& r) {
  if (r.violation != os::Violation::None) {
    std::printf("%-38s KILLED  (%s: %s)\n", what, os::violation_name(r.violation).c_str(),
                r.violation_detail.c_str());
  } else if (r.completed) {
    std::printf("%-38s ok      (exit %d)\n", what, r.exit_code);
  } else {
    std::printf("%-38s crashed (%s)\n", what, r.violation_detail.c_str());
  }
}

}  // namespace

int main() {
  System sys(os::Personality::LinuxSim);
  auto& fs = sys.kernel().fs();
  const std::string content = "alpha\nbravo\n";
  auto ino = fs.open("/", "/notes.txt", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0,
           std::vector<std::uint8_t>(content.begin(), content.end()), false);

  sys.install_and_register("/bin/ls", apps::build_tool_cat(os::Personality::LinuxSim));
  auto inst = sys.install(apps::build_vuln_echo(os::Personality::LinuxSim));

  // Recon: capture the vulnerable buffer's address (execution is
  // deterministic, so it is stable across runs).
  std::uint32_t buf = 0;
  sys.kernel().set_stage_hook([&](os::Process& p, os::TrapContext&, os::TrapStage s) {
    const auto& r = p.cpu.regs;
    if (s == os::TrapStage::PreTrap && r[0] == 3 && r[1] == 0 && buf == 0) buf = r[2];
  });
  report("benign run (/notes.txt)", sys.machine().run(inst.image, {}, "/notes.txt\n"));
  sys.kernel().set_stage_hook({});
  const std::uint32_t code_addr = buf + 68;

  // ---- attack 1: injected shellcode spawning /bin/sh ----
  {
    std::vector<std::uint8_t> code;
    isa::encode({isa::Op::Movi, 1, 0, 0}, code);  // patched below
    isa::encode({isa::Op::Movi, 2, 0, 0}, code);
    isa::encode({isa::Op::Movi, 0, 0, 11}, code);  // spawn
    isa::encode({isa::Op::Syscall}, code);
    isa::encode({isa::Op::Halt}, code);
    const std::uint32_t sh = code_addr + static_cast<std::uint32_t>(code.size());
    code.clear();
    isa::encode({isa::Op::Movi, 1, 0, sh}, code);
    isa::encode({isa::Op::Movi, 2, 0, 0}, code);
    isa::encode({isa::Op::Movi, 0, 0, 11}, code);
    isa::encode({isa::Op::Syscall}, code);
    isa::encode({isa::Op::Halt}, code);
    for (char c : std::string("/bin/sh")) code.push_back(static_cast<std::uint8_t>(c));
    code.push_back(0);
    report("shellcode spawn(\"/bin/sh\")", sys.machine().run(inst.image, {},
                                                             overflow_payload(code_addr, code)));
  }

  // ---- attack 2: jump to the config-open out of control-flow order ----
  {
    const policy::SyscallPolicy* open_pol = nullptr;
    for (const auto& p : inst.policies) {
      if (p.sys == os::SysId::Open) open_pol = &p;
    }
    std::vector<std::uint8_t> code;
    isa::encode({isa::Op::Movi, 1, 0, find_as_body(inst.image, "/etc/vuln.conf")}, code);
    isa::encode({isa::Op::Movi, 2, 0, 0}, code);
    isa::encode({isa::Op::Movi, 3, 0, 0}, code);
    isa::encode({isa::Op::Movi, 0, 0, open_pol->sysno}, code);
    isa::encode({isa::Op::Jmp, 0, 0, open_pol->call_site - 30}, code);
    report("out-of-order reuse of real open()",
           sys.machine().run(inst.image, {}, overflow_payload(code_addr, code)));
  }

  // ---- attack 3: overwrite the authenticated "/bin/ls" string ----
  {
    const policy::SyscallPolicy* spawn_pol = nullptr;
    for (const auto& p : inst.policies) {
      if (p.sys == os::SysId::Spawn) spawn_pol = &p;
    }
    const std::uint32_t ls = find_as_body(inst.image, "/bin/ls");
    std::vector<std::uint8_t> code;
    isa::encode({isa::Op::Movi, 11, 0, ls}, code);
    isa::encode({isa::Op::Movi, 12, 0, 's'}, code);
    isa::encode({isa::Op::Storeb, 12, 11, 5}, code);
    isa::encode({isa::Op::Movi, 12, 0, 'h'}, code);
    isa::encode({isa::Op::Storeb, 12, 11, 6}, code);
    isa::encode({isa::Op::Movi, 1, 0, ls}, code);
    isa::encode({isa::Op::Movi, 2, 0, 0}, code);
    isa::encode({isa::Op::Movi, 0, 0, spawn_pol->sysno}, code);
    isa::encode({isa::Op::Jmp, 0, 0, spawn_pol->call_site - 30}, code);
    report("AS overwrite \"/bin/ls\"->\"/bin/sh\"",
           sys.machine().run(inst.image, {}, overflow_payload(code_addr, code)));
  }

  std::printf("\nkernel audit log:\n");
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind == os::AuditKind::Violation) std::printf("  %s\n", rec.to_string().c_str());
  }
  return 0;
}
