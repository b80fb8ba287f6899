// Metapolicies and policy templates (§5.2).
//
// A metapolicy states what MUST be protected for each system call -- as
// opposed to what CAN be protected automatically by static analysis. When the
// installer's analysis cannot derive a value the metapolicy requires, it
// emits a policy TEMPLATE with a hole; the security administrator fills the
// hole with a concrete value or a pattern (from application knowledge or
// dynamic profiling), producing the complete policy used for rewriting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "os/syscalls.h"
#include "policy/policy.h"

namespace asc::policy {

/// Requirement on one argument of one system call.
enum class ArgRequirement : std::uint8_t {
  None,            // whatever static analysis finds is acceptable
  MustConstrain,   // a constant or string value MUST be in the policy
  MustPattern,     // the argument MUST match an administrator-given pattern
};

struct SyscallMeta {
  bool require_site = true;          // call site must be in the policy
  bool require_control_flow = true;  // predecessor set must be in the policy
  std::array<ArgRequirement, os::kMaxSyscallArgs> args{};
};

/// Metapolicy: per-syscall strictness requirements, typically derived from
/// the threat level of each call (e.g. spawn/open stricter than getpid).
class Metapolicy {
 public:
  /// Default metapolicy: everything automatic, nothing mandatory.
  Metapolicy() = default;

  /// A strict profile: path arguments of open/spawn/unlink/rename/chmod must
  /// be constrained (by value or pattern).
  static Metapolicy strict_paths();

  void set(os::SysId id, SyscallMeta meta) { per_call_[id] = meta; }
  const SyscallMeta& for_call(os::SysId id) const;

 private:
  std::map<os::SysId, SyscallMeta> per_call_;
  SyscallMeta default_{};
};

/// A hole in a policy template: the analysis could not satisfy the
/// metapolicy for this argument; the administrator must supply a value.
struct TemplateHole {
  std::size_t policy_index = 0;  // index into PolicyTemplate::policies
  os::SysId sys = os::SysId::Exit;
  std::uint32_t call_site = 0;
  int arg = 0;
  ArgRequirement requirement = ArgRequirement::None;
};

struct PolicyTemplate {
  std::vector<SyscallPolicy> policies;
  std::vector<TemplateHole> holes;

  bool complete() const { return holes.empty(); }

  /// Fill one hole with a pattern or a constant value. Throws if the hole
  /// index is invalid or the fill does not satisfy the requirement.
  void fill_with_pattern(std::size_t hole_index, const std::string& pattern);
  void fill_with_const(std::size_t hole_index, std::uint32_t value);
};

/// Compute the holes in `policies` under `meta`.
std::vector<TemplateHole> find_holes(const std::vector<SyscallPolicy>& policies,
                                     const Metapolicy& meta);

}  // namespace asc::policy
