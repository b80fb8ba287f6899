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

namespace {

MonitorVerdict unknown_syscall(const TrapContext& ctx) {
  return {Violation::UnknownSyscall, "syscall number " + std::to_string(ctx.sysno)};
}

}  // namespace

MonitorVerdict NullMonitor::inspect(Process& p, TrapContext& ctx) {
  (void)p;
  (void)ctx;
  return {};
}

MonitorVerdict AscMonitor::inspect(Process& p, TrapContext& ctx) {
  if (kernel_.key() == nullptr) throw Error("kernel: Asc enforcement without a key");
  if (!ctx.id.has_value()) return unknown_syscall(ctx);
  // Self-check the fast-path bookkeeping BEFORE gating on it: a detected
  // inconsistency demotes the pid's health and evicts the suspect state, so
  // the gates below already reflect the demotion for this very trap.
  kernel_.health_self_check(p, ctx);
  const CheckResult r = check_authenticated_call(
      p, ctx.call_site, ctx.sysno, *ctx.id, signature(*ctx.id), *kernel_.key(),
      kernel_.cost(), kernel_.capability_checking(), kernel_.tier_table());
  ctx.charge(p, r.cycles);
  kernel_.note_verification(p, ctx, r.violation == Violation::None,
                            !r.cache_hit && !r.shadow_hit);
  return {r.violation, r.detail};
}

MonitorVerdict PolicyTableMonitor::inspect(Process& p, TrapContext& ctx) {
  // The lookup is charged before the unknown-number check: the monitor must
  // consult its table to learn the number is unknown.
  ctx.charge(p, lookup_cycles());
  if (!ctx.id.has_value()) return unknown_syscall(ctx);
  std::string why;
  if (!allows(p, ctx, &why)) return {Violation::MonitorDenied, std::move(why)};
  return {};
}

bool PolicyTableMonitor::allows(Process& p, const TrapContext& ctx, std::string* why) const {
  const MonitorPolicy* pol = kernel_.find_monitor_policy(p.name);
  if (pol == nullptr) {
    *why = "no policy loaded for program";
    return false;
  }
  const auto& sig = signature(*ctx.id);
  const bool allowed_by_alias = (pol->allow_fsread && sig.category == Category::FsRead) ||
                                (pol->allow_fswrite && sig.category == Category::FsWrite);
  if (pol->allowed.count(ctx.sysno) == 0 && !allowed_by_alias) {
    *why = std::string("syscall ") + sig.name + " not permitted by policy";
    return false;
  }
  // Path constraints (if any were trained for this syscall).
  auto pit = pol->path_patterns.find(ctx.sysno);
  if (pit != pol->path_patterns.end() && !pit->second.empty() && sig.arity > 0 &&
      sig.args[0] == ArgKind::PathIn) {
    std::string path;
    try {
      path = p.mem.read_cstr(ctx.args[0], 4096);
    } catch (const GuestFault&) {
      *why = "unreadable path argument";
      return false;
    }
    if (kernel_.normalize_paths()) {
      // Full resolution first (follows a final symlink -- the §5.4 attack);
      // fall back to parent-only for files that do not exist yet (O_CREAT).
      const SimFs& fs = kernel_.fs();
      if (auto norm = fs.normalize(p.cwd, path)) {
        path = *norm;
      } else if (auto parent = fs.normalize(p.cwd, path, /*parent_only=*/true)) {
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

std::uint64_t DaemonMonitor::lookup_cycles() const {
  const CostModel& cost = kernel_.cost();
  return 2 * cost.context_switch + cost.daemon_lookup;
}

std::uint64_t KernelTableMonitor::lookup_cycles() const {
  return kernel_.cost().ktable_lookup;
}

std::string ChainMonitor::name() const {
  std::string n = "chain(";
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i > 0) n += "+";
    n += links_[i]->name();
  }
  return n + ")";
}

MonitorVerdict ChainMonitor::inspect(Process& p, TrapContext& ctx) {
  for (const auto& link : links_) {
    MonitorVerdict v = link->inspect(p, ctx);
    if (!v.allowed()) return v;
  }
  return {};
}

std::unique_ptr<SyscallMonitor> make_monitor(Enforcement e, Kernel& kernel) {
  switch (e) {
    case Enforcement::Off: return std::make_unique<NullMonitor>();
    case Enforcement::Asc: return std::make_unique<AscMonitor>(kernel);
    case Enforcement::Daemon: return std::make_unique<DaemonMonitor>(kernel);
    case Enforcement::KernelTable: return std::make_unique<KernelTableMonitor>(kernel);
  }
  return std::make_unique<NullMonitor>();
}

}  // namespace asc::os
