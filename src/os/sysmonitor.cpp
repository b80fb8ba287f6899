// The enforcement layer (os/sysmonitor.h): Kernel::inspect runs the
// kernel's enforcement list on one captured trap.
#include "os/sysmonitor.h"

#include "os/checker.h"
#include "os/kernel.h"
#include "policy/pattern.h"
#include "util/error.h"

namespace asc::os {

std::string enforcement_name(Enforcement e) {
  switch (e) {
    case Enforcement::Off: return "off";
    case Enforcement::Asc: return "asc";
    case Enforcement::Daemon: return "daemon";
    case Enforcement::KernelTable: return "kernel-table";
  }
  return "?";
}

std::string enforcement_name(const std::vector<Enforcement>& modes) {
  if (modes.size() == 1) return enforcement_name(modes.front());
  std::string n = "chain(";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (i > 0) n += "+";
    n += enforcement_name(modes[i]);
  }
  return n + ")";
}

namespace {

MonitorVerdict unknown_syscall(const TrapContext& ctx) {
  return {Violation::UnknownSyscall, "syscall number " + std::to_string(ctx.sysno)};
}

}  // namespace

MonitorVerdict Kernel::inspect(Process& p, TrapContext& ctx) {
  for (const Enforcement mode : enforcement_) {
    switch (mode) {
      case Enforcement::Off: break;
      case Enforcement::Asc: {
        if (!tenant_.key) throw Error("kernel: Asc enforcement without a key");
        if (!ctx.id.has_value()) return unknown_syscall(ctx);
        // One lookup of the pid's lattice record serves the whole
        // verification. Self-check the fast-path bookkeeping BEFORE gating
        // on it: a detected inconsistency demotes the pid's health and
        // evicts the suspect state, so the gates below already reflect the
        // demotion for this very trap.
        TierTable::PidRecord* owner = tenant_.tiers.find_pid(p.pid);
        health_self_check(p, ctx, owner);
        CheckResult r = check_authenticated_call(p, ctx.call_site, ctx.sysno, *ctx.id,
                                                 signature(*ctx.id), *tenant_.key, cost_,
                                                 tenant_.tiers, owner);
        ctx.charge(p, r.cycles);
        note_verification(p, ctx, owner, r.violation == Violation::None,
                          !r.cache_hit && !r.shadow_hit);
        if (r.violation != Violation::None) return {r.violation, std::move(r.detail)};
        break;
      }
      case Enforcement::Daemon:
      case Enforcement::KernelTable: {
        // The lookup is charged before the unknown-number check: the mode
        // must consult its table to learn the number is unknown. The daemon
        // pays two context switches (to it and back) on top (§2.3).
        ctx.charge(p, mode == Enforcement::Daemon
                          ? 2 * cost_.context_switch + cost_.daemon_lookup
                          : cost_.ktable_lookup);
        if (!ctx.id.has_value()) return unknown_syscall(ctx);
        std::string why;
        if (!table_allows(p, ctx, &why)) return {Violation::MonitorDenied, std::move(why)};
        break;
      }
    }
  }
  return {};
}

bool Kernel::table_allows(Process& p, const TrapContext& ctx, std::string* why) const {
  const auto it = monitor_policies_.find(p.name);
  if (it == monitor_policies_.end()) {
    *why = "no policy loaded for program";
    return false;
  }
  const MonitorPolicy& pol = it->second;
  const auto& sig = signature(*ctx.id);
  const bool allowed_by_alias = (pol.allow_fsread && sig.category == Category::FsRead) ||
                                (pol.allow_fswrite && sig.category == Category::FsWrite);
  if (pol.allowed.count(ctx.sysno) == 0 && !allowed_by_alias) {
    *why = std::string("syscall ") + sig.name + " not permitted by policy";
    return false;
  }
  // Path constraints (if any were trained for this syscall).
  auto pit = pol.path_patterns.find(ctx.sysno);
  if (pit != pol.path_patterns.end() && !pit->second.empty() && sig.arity > 0 &&
      sig.args[0] == ArgKind::PathIn) {
    std::string path;
    try {
      path = p.mem.read_cstr(ctx.args[0], 4096);
    } catch (const GuestFault&) {
      *why = "unreadable path argument";
      return false;
    }
    if (normalize_paths_) {
      // Full resolution first (follows a final symlink -- the §5.4 attack);
      // fall back to parent-only for files that do not exist yet (O_CREAT).
      if (auto norm = fs_.normalize(p.cwd, path)) {
        path = *norm;
      } else if (auto parent = fs_.normalize(p.cwd, path, /*parent_only=*/true)) {
        path = *parent;
      }
    }
    for (const auto& pat : pit->second) {
      if (policy::match_and_prove(pat, path).has_value()) return true;
    }
    *why = std::string(sig.name) + "(" + path + ") does not match any permitted path";
    return false;
  }
  return true;
}

}  // namespace asc::os
