// TrapContext -- the first-class value threaded through the staged trap
// pipeline (trap -> enforce -> dispatch -> audit).
//
// One TrapContext is captured per trap and lives on the trap handler's
// stack, so nested traps (a Spawn syscall running a child to completion in
// the middle of the parent's trap) each get their own context by
// construction: nothing about the in-flight call is kernel-global state.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "os/process.h"
#include "os/syscalls.h"

namespace asc::os {

/// The stage boundaries of the trap pipeline. The kernel's stage hook
/// (Kernel::set_stage_hook) fires at each boundary with the in-flight
/// context -- the seams where tests observe a trap and where lifecycle chaos
/// (key rotation, teardown, double invalidation) is injected mid-trap. A
/// killed trap ends at Enforce; Dispatch and Audit fire only for calls that
/// proceed, and an Inline-tier hit fires none of Trap..Audit.
///
/// PreTrap fires FIRST on every trap, inline hits included, but is numbered
/// LAST, so that tracers indexing spans by stage number (perfbench) keep
/// Trap..Audit at 0..3 and ignore a stage they do not know. It runs at the
/// caller's trap depth, before a parked rekey lands and before the inline
/// probe, with only pid, call_site and sysno captured -- the registers and
/// guest memory are still the guest's, so a hook may tamper with them
/// exactly where an attacker would strike.
enum class TrapStage : std::uint8_t {
  Trap,      // context captured, before the monitor inspects
  Enforce,   // monitor verdict in hand, before the failure mode applies
  Dispatch,  // syscall handler returned, result in r0
  Audit,     // trap complete (trace recorded), about to return to the guest
  PreTrap,   // SYSCALL executed, nothing captured or charged yet (fires first)
};

inline std::string trap_stage_name(TrapStage s) {
  switch (s) {
    case TrapStage::Trap: return "trap";
    case TrapStage::Enforce: return "enforce";
    case TrapStage::Dispatch: return "dispatch";
    case TrapStage::Audit: return "audit";
    case TrapStage::PreTrap: return "pre-trap";
  }
  return "?";
}

struct TrapContext {
  // ---- captured by the trap layer ----
  int pid = 0;
  std::uint16_t sysno = 0;    // raw trapping number; what audit records cite
  std::uint32_t call_site = 0;  // address of the trapping SYSCALL instruction
  std::array<std::uint32_t, kMaxSyscallArgs> args{};  // r1..r5 at trap time
  std::optional<SysId> id;    // resolved identity; nullopt = unknown number

  // ---- filled by the dispatch layer ----
  // Identity/arguments after __syscall indirection (BsdSim's route to mmap):
  // equal to the raw capture for direct calls, shifted one slot for indirect
  // ones. The trace records these; audit records keep the raw view above.
  SysId effective_id = SysId::Exit;
  std::uint16_t effective_sysno = 0;
  std::array<std::uint32_t, kMaxSyscallArgs> effective_args{};

  /// Resolved first PathIn argument, filled when a layer reads it (tracing,
  /// baseline-monitor path policies).
  std::string path;

  // ---- verdict of the enforcement layer ----
  Violation verdict = Violation::None;
  std::string verdict_detail;

  /// Modeled cycles charged against the process during this trap.
  std::uint64_t charged = 0;

  /// Charge modeled cycles for work done on behalf of this trap.
  void charge(Process& p, std::uint64_t cycles) {
    p.cycles += cycles;
    charged += cycles;
  }
};

}  // namespace asc::os
