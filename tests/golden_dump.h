// Golden-trace dump of the trap pipeline, the oracle for kernel refactors.
//
// `golden_trap_dump()` runs a fixed spawn-heavy workload (screen + vuln_echo,
// each spawning an authenticated child) under every enforcement mode and
// serializes everything the kernel's observable surface produces: guest
// stdout, exit status, violation, cycle/instruction/syscall counts, and the
// full formatted audit log. tests/golden/trap_pipeline.golden was captured
// from the pre-refactor (monolithic-kernel) tree; the golden test asserts the
// staged pipeline reproduces it byte for byte.
//
// `installed_images_dump()` is the installer's oracle: one line per bundled
// app, with FNV-1a digests of what the installer writes (see its comment).
// tests/golden/installed_images.golden pins it.
#pragma once

#include <cstdio>
#include <string>

#include "apps/apps.h"
#include "installer/installer.h"
#include "monitor/ktable.h"
#include "workloads.h"

namespace asc::testing {

namespace golden_detail {

struct ModeSpec {
  const char* label;
  os::Enforcement mode;
  bool cache;  // verified-call cache (Asc only)
};

inline const ModeSpec* golden_modes(std::size_t* n) {
  static const ModeSpec kModes[] = {
      {"off", os::Enforcement::Off, true},
      {"asc", os::Enforcement::Asc, true},
      {"asc-nocache", os::Enforcement::Asc, false},
      {"daemon", os::Enforcement::Daemon, true},
      {"kernel-table", os::Enforcement::KernelTable, true},
  };
  *n = sizeof(kModes) / sizeof(kModes[0]);
  return kModes;
}

inline void dump_run(std::string& out, const std::string& prog, const vm::RunResult& r) {
  out += "prog " + prog + ": completed=" + std::to_string(r.completed ? 1 : 0) +
         " exit=" + std::to_string(r.exit_code) +
         " violation=" + os::violation_name(r.violation) +
         " cycles=" + std::to_string(r.cycles) +
         " instr=" + std::to_string(r.instructions) +
         " syscalls=" + std::to_string(r.syscalls) + "\n";
  out += "stdout<<<" + r.stdout_data + ">>>\n";
}

/// Extra fixtures screen needs to take its full path (terminal + session
/// dir) instead of the early die() path.
inline void prepare_screen_fs(os::SimFs& fs) {
  (void)fs.mkdir("/", "/tmp", 01777);
  (void)fs.mkdir("/", "/dev", 0755);
  auto ino = fs.open("/", "/dev/tty", os::SimFs::kRdWr | os::SimFs::kCreat, 0666);
  (void)ino;
}

/// FNV-1a over a sequence of byte strings, printed as 16 hex digits.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
  void add(const std::vector<std::uint8_t>& v) { add(v.data(), v.size()); }
  void add(const std::string& s) {
    add(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

inline std::string policies_digest(const std::vector<policy::SyscallPolicy>& policies) {
  Fnv f;
  for (const auto& p : policies) f.add(p.to_string());
  return f.hex();
}

}  // namespace golden_detail

/// The full multi-mode dump (see file comment).
inline std::string golden_trap_dump() {
  std::string out;
  std::size_t n = 0;
  const auto* modes = golden_detail::golden_modes(&n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = modes[i];
    out += "=== mode " + std::string(spec.label) + " ===\n";

    const auto pers = os::Personality::LinuxSim;
    System sys(pers, test_key(), spec.mode);
    sys.kernel().set_verified_call_cache(spec.cache);
    // The golden trace predates the policy-state shadow and pins the eager
    // §3.2 per-call MAC cycles; keep it that way so the file stays stable.
    sys.kernel().set_policy_shadow(false);
    prepare_fs(sys.kernel().fs());
    golden_detail::prepare_screen_fs(sys.kernel().fs());

    // screen spawns /bin/true; vuln_echo spawns /bin/ls on the line read
    // from stdin. Both children are `cat`, sharing one kernel so the audit
    // log interleaves parent and child events.
    binary::Image screen = apps::build_screen(pers);
    binary::Image echo = apps::build_vuln_echo(pers);
    binary::Image child = apps::build_tool_cat(pers);
    if (spec.mode == os::Enforcement::Asc) {
      sys.install_and_register("/bin/true", child);
      sys.install_and_register("/bin/ls", child);
      screen = sys.install(screen).image;
      echo = sys.install(echo).image;
    } else {
      sys.machine().register_program("/bin/true", child);
      sys.machine().register_program("/bin/ls", child);
      if (spec.mode != os::Enforcement::Off) {
        System analysis(pers, test_key(), os::Enforcement::Off);
        sys.kernel().set_monitor_policy(
            "screen", monitor::table_from_asc_policies(analysis.install(screen).policies));
        sys.kernel().set_monitor_policy(
            "vuln_echo", monitor::table_from_asc_policies(analysis.install(echo).policies));
        sys.kernel().set_monitor_policy(
            "cat", monitor::table_from_asc_policies(analysis.install(child).policies));
      }
    }

    auto r1 = sys.machine().run(screen, {"main"});
    golden_detail::dump_run(out, "screen", r1);
    auto r2 = sys.machine().run(echo, {}, "/lines.txt\n");
    golden_detail::dump_run(out, "vuln_echo", r2);

    out += "audit:\n";
    for (const auto& rec : sys.kernel().audit_log()) out += rec.to_string() + "\n";
  }
  return out;
}

/// Every LinuxSim app of apps::build_all installed by a fresh installer
/// under test_key() with program id = index + 1: site count and digests of
/// the serialized image, the serialized SignManifest and the final policies.
/// Then every BsdSim app, analysis only (installing throws on BSD's opaque
/// close stub): policy count and digests of the policies and warnings.
inline std::string installed_images_dump() {
  using golden_detail::Fnv;
  std::string out;
  const auto linux_apps = apps::build_all(os::Personality::LinuxSim);
  for (std::size_t i = 0; i < linux_apps.size(); ++i) {
    installer::Installer inst(test_key(), os::Personality::LinuxSim);
    installer::InstallOptions opt;
    opt.program_id = static_cast<std::uint16_t>(i + 1);
    const installer::InstallResult r = inst.install(linux_apps[i].second, opt);
    Fnv image;
    image.add(r.image.serialize());
    Fnv manifest;
    manifest.add(r.manifest.serialize());
    out += "linux " + linux_apps[i].first + " sites=" + std::to_string(r.policies.size()) +
           " image=" + image.hex() + " manifest=" + manifest.hex() +
           " policies=" + golden_detail::policies_digest(r.policies) + "\n";
  }
  for (const auto& [name, img] : apps::build_all(os::Personality::BsdSim)) {
    const installer::Installer inst(test_key(), os::Personality::BsdSim);
    const installer::GeneratedPolicies gp = inst.analyze(img);
    Fnv warnings;
    for (const auto& w : gp.warnings) warnings.add(w + "\n");
    out += "bsd " + name + " sites=" + std::to_string(gp.policies.size()) +
           " policies=" + golden_detail::policies_digest(gp.policies) +
           " warnings=" + warnings.hex() + "\n";
  }
  return out;
}

}  // namespace asc::testing
