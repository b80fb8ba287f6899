#include "os/auditlog.h"

#include <cstdio>

namespace asc::os {

std::string failure_mode_name(FailureMode m) {
  switch (m) {
    case FailureMode::FailStop: return "fail-stop";
    case FailureMode::Budgeted: return "budgeted";
    case FailureMode::AuditOnly: return "audit-only";
  }
  return "?";
}

std::string VerdictRecord::to_string() const {
  char site[16];
  std::snprintf(site, sizeof site, "0x%x", call_site);
  const std::string ctx = " (pid=" + std::to_string(pid) + " sysno=" + std::to_string(sysno) +
                          " site=" + site + ")";
  switch (kind) {
    case AuditKind::Violation:
      return "ALERT pid=" + std::to_string(pid) + " prog=" + prog + " " +
             violation_name(violation) + ": " + detail + " (sysno=" + std::to_string(sysno) +
             " site=" + site + (killed ? " killed" : " permitted") + ")";
    case AuditKind::Net:
      return "NET " + detail + ctx;
    case AuditKind::Signal:
      return "SIGNAL " + detail + ctx;
    case AuditKind::Spawn:
      return "SPAWN " + detail + ctx;
    case AuditKind::InternalFault:
      return "INTERNAL " + detail + ctx;
    case AuditKind::Health:
      return "HEALTH " + detail + ctx;
  }
  return "?";
}

std::size_t AuditLog::approx_bytes() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += sizeof(r) + r.prog.size() + r.detail.size();
  return n;
}

bool AuditLog::deny(Process& p, const TrapContext& ctx, Violation v, const std::string& detail,
                    std::uint64_t now_ns) {
  ++p.violation_count;
  const bool kill =
      failure_mode_ == FailureMode::FailStop ||
      (failure_mode_ == FailureMode::Budgeted && p.violation_count > violation_budget_);
  VerdictRecord rec;
  rec.kind = AuditKind::Violation;
  rec.pid = p.pid;
  rec.prog = p.name;
  rec.sysno = ctx.sysno;
  rec.call_site = ctx.call_site;
  rec.violation = v;
  rec.killed = kill;
  rec.detail = detail;
  rec.vtime_ns = now_ns;
  append(std::move(rec));
  if (kill) {
    p.running = false;
    p.violation = v;
    p.violation_detail = detail;
    p.exit_code = -1;
  }
  return kill;
}

void AuditLog::event(const Process& p, const TrapContext& ctx, AuditKind kind,
                     std::string detail, std::uint64_t now_ns) {
  VerdictRecord rec;
  rec.kind = kind;
  rec.pid = p.pid;
  rec.prog = p.name;
  rec.sysno = ctx.sysno;
  rec.call_site = ctx.call_site;
  rec.detail = std::move(detail);
  rec.vtime_ns = now_ns;
  append(std::move(rec));
}

}  // namespace asc::os
