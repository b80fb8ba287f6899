#include "analysis/syscallsites.h"

#include <set>

#include "isa/decode.h"
#include "util/error.h"
#include "util/executor.h"

namespace asc::analysis {

namespace {

/// Scan one function: the expensive per-function unit (reaching defs +
/// per-argument value tracing) the executor fans out.
SiteScan scan_function(const ProgramIr& ir, const binary::Image& image, const Cfg& cfg,
                       os::Personality personality, std::size_t fi) {
  SiteScan scan;
  const IrFunction& f = ir.funcs[fi];
  if (f.inlined_away) return scan;
  if (f.opaque) {
    // Opaque functions might hide syscalls; PLTO reports this so the
    // administrator knows the policy may be incomplete (the OpenBSD
    // `close` case of Table 2).
    scan.warnings.push_back("function " + f.name + " not analyzable: " + f.opaque_reason);
    return scan;
  }
  bool any_syscall = false;
  for (const auto& instr : f.instrs) {
    if (instr.ins.op == isa::Op::Syscall) any_syscall = true;
  }
  if (!any_syscall) return scan;

  const ReachingDefs rd(ir, cfg, fi);
  for (std::size_t ii = 0; ii < f.instrs.size(); ++ii) {
    if (f.instrs[ii].ins.op != isa::Op::Syscall) continue;

    SyscallSite site;
    site.func = fi;
    site.instr = ii;
    site.block = cfg.block_containing(fi, ii);

    // System call number: must be a single constant.
    const AbstractValue r0 = trace_value(ir, image, cfg, rd, fi, ii, 0);
    if (r0.kind != AbstractValue::Kind::Const) {
      scan.warnings.push_back("function " + f.name +
                              ": syscall with non-constant number; cannot authenticate");
      continue;
    }
    site.sysno = static_cast<std::uint16_t>(r0.value);
    const auto id = os::syscall_from_number(personality, site.sysno);
    if (!id.has_value()) {
      scan.warnings.push_back("function " + f.name + ": unknown syscall number " +
                              std::to_string(site.sysno));
      continue;
    }
    site.id = *id;
    site.arity = os::signature(site.id).arity;

    for (int a = 0; a < site.arity; ++a) {
      const isa::Reg reg = static_cast<isa::Reg>(1 + a);
      const AbstractValue v = trace_value(ir, image, cfg, rd, fi, ii, reg);
      ArgClass& cls = site.args[static_cast<std::size_t>(a)];
      switch (v.kind) {
        case AbstractValue::Kind::Const:
          cls.kind = ArgClass::Kind::Const;
          cls.value = v.value;
          break;
        case AbstractValue::Kind::StrAddr: {
          cls.kind = ArgClass::Kind::String;
          cls.value = v.value;
          cls.str = image.cstring_at(v.value).value_or("");
          cls.str_leas = v.leas;
          break;
        }
        case AbstractValue::Kind::Multi:
          cls.kind = ArgClass::Kind::Multi;
          cls.values = v.values;
          break;
        case AbstractValue::Kind::FdFrom: {
          // Only count sources that are fd-returning syscalls.
          std::set<std::uint32_t> blocks;
          for (std::size_t src : v.fd_sites) {
            const AbstractValue srcno = trace_value(ir, image, cfg, rd, fi, src, 0);
            if (srcno.kind != AbstractValue::Kind::Const) continue;
            const auto src_id =
                os::syscall_from_number(personality, static_cast<std::uint16_t>(srcno.value));
            if (src_id.has_value() && os::signature(*src_id).returns_fd) {
              blocks.insert(cfg.block_containing(fi, src));
            }
          }
          if (!blocks.empty()) {
            cls.kind = ArgClass::Kind::FdArg;
            cls.fd_origin_blocks.assign(blocks.begin(), blocks.end());
          }
          break;
        }
        case AbstractValue::Kind::Unknown:
          break;
      }
    }
    scan.sites.push_back(std::move(site));
  }
  return scan;
}

}  // namespace

SiteScan find_syscall_sites(const ProgramIr& ir, const binary::Image& image, const Cfg& cfg,
                            os::Personality personality, util::Executor* exec) {
  // Fan out per function, then concatenate partial results in function
  // order: sites and warnings interleave exactly as the serial scan's.
  std::vector<SiteScan> partial(ir.funcs.size());
  util::resolve_executor(exec).parallel_for(ir.funcs.size(), [&](std::size_t fi) {
    partial[fi] = scan_function(ir, image, cfg, personality, fi);
  });

  SiteScan scan;
  for (SiteScan& p : partial) {
    for (auto& s : p.sites) scan.sites.push_back(std::move(s));
    for (auto& w : p.warnings) scan.warnings.push_back(std::move(w));
  }
  return scan;
}

}  // namespace asc::analysis
