#include "policy/metapolicy.h"

#include "util/error.h"

namespace asc::policy {

Metapolicy Metapolicy::strict_paths() {
  Metapolicy m;
  for (os::SysId id : {os::SysId::Open, os::SysId::Spawn, os::SysId::Unlink, os::SysId::Rename,
                       os::SysId::Chmod, os::SysId::Symlink}) {
    SyscallMeta sm;
    const auto& sig = os::signature(id);
    for (int i = 0; i < sig.arity; ++i) {
      if (sig.args[static_cast<std::size_t>(i)] == os::ArgKind::PathIn) {
        sm.args[static_cast<std::size_t>(i)] = ArgRequirement::MustConstrain;
      }
    }
    m.set(id, sm);
  }
  return m;
}

const SyscallMeta& Metapolicy::for_call(os::SysId id) const {
  auto it = per_call_.find(id);
  return it == per_call_.end() ? default_ : it->second;
}

std::vector<TemplateHole> find_holes(const std::vector<SyscallPolicy>& policies,
                                     const Metapolicy& meta) {
  std::vector<TemplateHole> holes;
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const SyscallPolicy& p = policies[pi];
    const SyscallMeta& m = meta.for_call(p.sys);
    for (int i = 0; i < p.arity; ++i) {
      const auto req = m.args[static_cast<std::size_t>(i)];
      if (req == ArgRequirement::None) continue;
      const auto kind = p.args[static_cast<std::size_t>(i)].kind;
      const bool satisfied =
          req == ArgRequirement::MustConstrain
              ? (kind == ArgPolicy::Kind::Const || kind == ArgPolicy::Kind::String ||
                 kind == ArgPolicy::Kind::Pattern)
              : kind == ArgPolicy::Kind::Pattern;
      if (!satisfied) {
        holes.push_back(TemplateHole{pi, p.sys, p.call_site, i, req});
      }
    }
  }
  return holes;
}

namespace {
// Validate first, then erase: a rejected fill must leave the hole in place.
const TemplateHole& peek_hole(const PolicyTemplate& t, std::size_t hole_index) {
  if (hole_index >= t.holes.size()) throw Error("PolicyTemplate: bad hole index");
  return t.holes[hole_index];
}
void drop_hole(PolicyTemplate& t, std::size_t hole_index) {
  t.holes.erase(t.holes.begin() + static_cast<std::ptrdiff_t>(hole_index));
}
}  // namespace

void PolicyTemplate::fill_with_pattern(std::size_t hole_index, const std::string& pattern) {
  const TemplateHole h = peek_hole(*this, hole_index);
  auto& arg = policies[h.policy_index].args[static_cast<std::size_t>(h.arg)];
  arg.kind = ArgPolicy::Kind::Pattern;
  arg.str = pattern;
  drop_hole(*this, hole_index);
}

void PolicyTemplate::fill_with_const(std::size_t hole_index, std::uint32_t value) {
  const TemplateHole h = peek_hole(*this, hole_index);
  if (h.requirement == ArgRequirement::MustPattern) {
    throw Error("PolicyTemplate: hole requires a pattern, not a constant");
  }
  auto& arg = policies[h.policy_index].args[static_cast<std::size_t>(h.arg)];
  arg.kind = ArgPolicy::Kind::Const;
  arg.value = value;
  drop_hole(*this, hole_index);
}

}  // namespace asc::policy
