#include "installer/policygen.h"

namespace asc::installer {

GeneratedPolicies generate_policies(const binary::Image& image, os::Personality personality,
                                    const InstallOptions& options) {
  util::Executor* exec = options.executor;
  GeneratedPolicies gp;
  gp.ir = analysis::disassemble(image, exec);
  gp.inline_report = analysis::inline_syscall_stubs(gp.ir);
  const analysis::InlineReport wrappers = analysis::inline_syscall_wrappers(gp.ir);
  gp.inline_report.stubs_found += wrappers.stubs_found;
  gp.inline_report.call_sites_inlined += wrappers.call_sites_inlined;
  gp.inline_report.stubs_removed += wrappers.stubs_removed;
  gp.cfg = analysis::build_cfg(gp.ir, exec);
  gp.callgraph = analysis::build_callgraph(gp.ir, gp.cfg);
  gp.scan = analysis::find_syscall_sites(gp.ir, image, gp.cfg, personality, exec);

  // Reachability pruning: only functions reachable from the entry point (or
  // address-taken, hence possible indirect targets) contribute policies --
  // mirroring what static linking of a real libc gives the paper's
  // installer. Unreachable SYSCALLs stay unauthenticated in the output,
  // which is safe: the kernel blocks unauthenticated calls.
  {
    std::vector<bool> reachable(gp.ir.funcs.size(), false);
    std::vector<std::size_t> stack{gp.ir.entry_func};
    for (std::size_t fi : gp.callgraph.address_taken) stack.push_back(fi);
    while (!stack.empty()) {
      const std::size_t fi = stack.back();
      stack.pop_back();
      if (reachable[fi]) continue;
      reachable[fi] = true;
      for (std::size_t callee : gp.callgraph.callees[fi]) stack.push_back(callee);
    }
    std::vector<analysis::SyscallSite> kept;
    for (auto& site : gp.scan.sites) {
      if (reachable[site.func]) kept.push_back(site);
    }
    gp.scan.sites = std::move(kept);
  }

  gp.graph = analysis::build_syscall_graph(gp.ir, gp.cfg, gp.callgraph, gp.scan.sites, exec);
  gp.warnings = gp.scan.warnings;
  for (const auto& f : gp.ir.funcs) {
    if (f.opaque) {
      gp.warnings.push_back("opaque function " + f.name + ": " + f.opaque_reason);
    }
  }

  // Per-site policy derivation: independent per site, each task writes only
  // its own slot of the (pre-sized) policy list.
  gp.policies.resize(gp.scan.sites.size());
  util::resolve_executor(exec).parallel_for(gp.scan.sites.size(), [&](std::size_t si) {
    const analysis::SyscallSite& site = gp.scan.sites[si];
    policy::SyscallPolicy p;
    p.sys = site.id;
    p.sysno = site.sysno;
    p.block_id = site.block;  // local; composed by the rewriter
    p.arity = site.arity;
    p.control_flow = options.control_flow;
    if (options.control_flow) p.predecessors = gp.graph.predecessors[si];

    for (int a = 0; a < site.arity; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      const analysis::ArgClass& cls = site.args[idx];
      policy::ArgPolicy& ap = p.args[idx];
      switch (cls.kind) {
        case analysis::ArgClass::Kind::Const:
          ap.kind = policy::ArgPolicy::Kind::Const;
          ap.value = cls.value;
          break;
        case analysis::ArgClass::Kind::String:
          ap.kind = policy::ArgPolicy::Kind::String;
          ap.str = cls.str;
          break;
        case analysis::ArgClass::Kind::Multi:
          ap.kind = policy::ArgPolicy::Kind::MultiValue;
          ap.values = cls.values;
          break;
        case analysis::ArgClass::Kind::FdArg:
          ap.kind = policy::ArgPolicy::Kind::Unconstrained;
          if (options.capability_tracking) {
            p.fd_sources = cls.fd_origin_blocks;  // local; composed later
          }
          break;
        case analysis::ArgClass::Kind::Unknown:
          ap.kind = policy::ArgPolicy::Kind::Unconstrained;
          break;
      }
    }
    gp.policies[si] = std::move(p);
  });

  gp.holes = policy::find_holes(gp.policies, options.metapolicy);
  return gp;
}

}  // namespace asc::installer
