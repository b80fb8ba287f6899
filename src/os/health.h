// Per-process health states: self-healing quarantine of the fast paths.
//
// The paper's security argument is fail-stop on guest tamper, but the kernel
// now carries mutable trust-critical bookkeeping of its OWN (the verified-
// call cache, the policy-state shadow, their watch ranges). A detected
// inconsistency in that bookkeeping is not evidence of guest tampering -- it
// is evidence the monitor's fast-path state can no longer be trusted. Fail-
// stopping the guest for a monitor-side defect would punish the wrong party;
// trusting the suspect state would be unsound. The health machine takes the
// third road: degrade that pid to a slower-but-sound verification path.
//
// The degradation lattice (fast to slow, each level strictly more eager):
//
//   Healthy     -> verified-call cache + policy-state shadow (both fast paths)
//   Degraded    -> verified-call cache only; every control-flow check runs
//                  the eager 3.1-3.5 protocol against guest memory
//   Quarantined -> full eager verification, every MAC on every call
//   (fail-stop) -> reserved for GENUINE guest tamper, at any health level
//
// Transitions: an internal fault (a shadow self-check mismatch, or an
// external invariant oracle reporting through Kernel::report_internal_fault)
// demotes one level and evicts the pid's fast-path state. Re-promotion is
// earned: K consecutive clean eager verifications lift Quarantined back to
// Degraded, and another promote-threshold clean verifications lift Degraded
// to Healthy. Each re-entry into Quarantined doubles K (exponential backoff,
// capped), so a flapping pid converges to eager verification instead of
// oscillating. All transitions are audited (AuditKind::Health); the faults
// themselves are AuditKind::InternalFault and never touch the process's
// violation budget -- only the enforcement layer's verdicts do that.
#pragma once

#include <cstdint>
#include <string>

namespace asc::os {

enum class HealthState : std::uint8_t {
  Healthy,      // all fast paths enabled
  Degraded,     // policy-state shadow gated off
  Quarantined,  // all fast paths gated off: full eager verification
};

inline std::string health_state_name(HealthState s) {
  switch (s) {
    case HealthState::Healthy: return "healthy";
    case HealthState::Degraded: return "degraded";
    case HealthState::Quarantined: return "quarantined";
  }
  return "?";
}

/// One pid's health. Kept in the pid's lattice record for the life of the
/// process (erased at end_process); `quarantines` survives re-promotion so
/// backoff deepens across repeated quarantine entries.
struct HealthRecord {
  HealthState state = HealthState::Healthy;
  std::uint32_t clean_streak = 0;     // consecutive clean verifications
  std::uint32_t promote_after = 0;    // streak needed to leave Quarantined
  std::uint32_t quarantines = 0;      // times Quarantined was entered
  std::uint64_t internal_faults = 0;  // internal inconsistencies observed
};

/// Kernel-wide counters across all pids (inspection/stats surface; a pid's
/// record dies with it, these do not).
struct HealthStats {
  std::uint64_t internal_faults = 0;  // all internal faults, any state
  std::uint64_t degradations = 0;     // Healthy -> Degraded transitions
  std::uint64_t quarantines = 0;      // entries into Quarantined
  std::uint64_t repromotions = 0;     // Quarantined -> Degraded (earned)
  std::uint64_t recoveries = 0;       // Degraded -> Healthy (earned)
};

}  // namespace asc::os
