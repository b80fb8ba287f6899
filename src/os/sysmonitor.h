// The enforcement layer of the trap pipeline: the modes the benches compare
// (§4.2) and the policy format of the two baseline modes.
//
//   Off         -- no monitoring (the paper's "original" baseline)
//   Asc         -- authenticated system calls (§3.4 checking; the paper's
//                  contribution), through the checker and the tier lattice.
//                  Every call is checked; unauthenticated calls are blocked.
//   Daemon      -- user-space policy daemon baseline (Systrace/Ostia
//                  style): each call costs two extra context switches plus
//                  a policy lookup in the daemon.
//   KernelTable -- fully in-kernel policy table baseline.
//
// A kernel enforces a list of modes (Kernel::set_enforcement), so checks
// stack -- e.g. ASC checking plus an in-kernel allowlist. Kernel::inspect
// (os/sysmonitor.cpp) runs the list in order, first violation wins, reading
// the kernel's key, policies and cost model at inspect time, so
// configuration order does not matter.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "os/process.h"

namespace asc::os {

enum class Enforcement : std::uint8_t { Off, Asc, Daemon, KernelTable };

std::string enforcement_name(Enforcement e);
/// The name of an enforcement list: a one-mode list is named by its mode
/// ("asc"), any other by its links ("chain(asc+kernel-table)", "chain()").
std::string enforcement_name(const std::vector<Enforcement>& modes);

/// Policy format used by the two baseline modes (Daemon / KernelTable):
/// a set of permitted syscall numbers, optionally with path patterns, plus
/// Systrace-style fsread/fswrite aliases.
struct MonitorPolicy {
  std::set<std::uint16_t> allowed;
  std::map<std::uint16_t, std::vector<std::string>> path_patterns;  // empty vec = any path
  bool allow_fsread = false;   // permit every Category::FsRead call
  bool allow_fswrite = false;  // permit every Category::FsWrite call
};

/// What the enforcement layer concluded about one trap.
struct MonitorVerdict {
  Violation violation = Violation::None;
  std::string detail;

  bool allowed() const { return violation == Violation::None; }
};

}  // namespace asc::os
