// The audit layer of the trap pipeline: the structured security/audit log
// and the failure-mode decision (graceful degradation) applied once the
// enforcement layer has established a violation.
//
// reset() is the only way to clear the log; VerdictRecord::to_string() is
// its one text rendering. The kernel's instruction-level trace
// (Kernel::trace()) is deliberately NOT part of this component:
// training-based policy generation (monitor/training.cpp) clears the trace
// between sample runs while audit events must survive, and the Table 1/2
// benches rely on that partial clearing (a training pass must not erase the
// security log).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "os/process.h"
#include "os/trapcontext.h"

namespace asc::os {

/// How the kernel reacts once a violation has been established (graceful
/// degradation). The paper prescribes fail-stop ("terminate the process,
/// log the call, alert the administrator", §3.4); the other modes support
/// staged rollout: audit a new policy in production before enforcing it.
enum class FailureMode : std::uint8_t {
  FailStop,   // kill on the first violation (paper-faithful)
  Budgeted,   // tolerate up to the violation budget, then kill
  AuditOnly,  // record every verdict, never kill (permissive)
};

std::string failure_mode_name(FailureMode m);

/// What a structured audit record describes.
enum class AuditKind : std::uint8_t {
  Violation,      // the monitor established a policy violation
  Net,            // outbound network traffic
  Signal,         // signal sent to another process
  Spawn,          // program execution request
  InternalFault,  // the kernel's OWN bookkeeping failed a self-check -- not
                  // guest tamper; never counts against the violation budget
  Health,         // a per-pid health-state transition (see os/health.h)
};

/// One structured entry of the kernel's security/audit log. Every event
/// carries the process, program, trapping call, and virtual timestamp; for
/// violations, the Violation class and whether the verdict killed the guest.
struct VerdictRecord {
  AuditKind kind = AuditKind::Violation;
  int pid = 0;
  std::string prog;
  std::uint16_t sysno = 0;
  std::uint32_t call_site = 0;
  Violation violation = Violation::None;
  bool killed = false;  // did this verdict terminate the process?
  std::string detail;
  std::uint64_t vtime_ns = 0;

  /// One-line text view ("ALERT pid=... prog=... ...", "SPAWN ...").
  std::string to_string() const;
};

class AuditLog {
 public:
  // ---- graceful degradation configuration ----
  void set_failure_mode(FailureMode m) { failure_mode_ = m; }
  FailureMode failure_mode() const { return failure_mode_; }
  /// Violations tolerated per process in Budgeted mode before the kill
  /// (0 = kill on the first violation, same as FailStop).
  void set_violation_budget(std::uint32_t n) { violation_budget_ = n; }
  std::uint32_t violation_budget() const { return violation_budget_; }

  // ---- the log ----
  const std::vector<VerdictRecord>& records() const { return records_; }
  /// Approximate retained bytes (fleet capacity planning).
  std::size_t approx_bytes() const;
  void append(VerdictRecord rec) { records_.push_back(std::move(rec)); }
  /// The single clearing operation of the audit layer.
  void reset() { records_.clear(); }

  /// Record a violation verdict and apply the failure mode: increments the
  /// process's violation count, decides life or death (kill on FailStop, on
  /// budget exhaustion in Budgeted, never in AuditOnly), and appends the
  /// record. On a kill, marks the process dead with the violation. Returns
  /// true when the process was killed (the trap must end); false when the
  /// violation was tolerated and the call should proceed.
  bool deny(Process& p, const TrapContext& ctx, Violation v, const std::string& detail,
            std::uint64_t now_ns);

  /// Audit a non-violation security event (net/signal/spawn) with the trap
  /// context of the call that produced it.
  void event(const Process& p, const TrapContext& ctx, AuditKind kind, std::string detail,
             std::uint64_t now_ns);

 private:
  FailureMode failure_mode_ = FailureMode::FailStop;
  std::uint32_t violation_budget_ = 0;
  std::vector<VerdictRecord> records_;
};

}  // namespace asc::os
