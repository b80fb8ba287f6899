// Policy generation: run the full static-analysis pipeline and derive the
// logical system call policy for every call site (§3.3, §4.1).
//
// Pipeline: disassemble -> inline syscall stubs -> basic blocks/CFG ->
// call graph -> reaching definitions & value tracing per site -> syscall
// graph -> logical SyscallPolicy per site (+ metapolicy holes, §5.2).
//
// This stage is OS-personality specific (syscall numbers differ) but does
// not need the MAC key; it is what the paper "ported to OpenBSD" for the
// Table 1/2 experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/disassembler.h"
#include "analysis/inliner.h"
#include "analysis/syscallgraph.h"
#include "analysis/syscallsites.h"
#include "binary/image.h"
#include "os/syscalls.h"
#include "policy/metapolicy.h"
#include "policy/policy.h"
#include "util/executor.h"

namespace asc::installer {

/// Options for both installer steps: analysis (policy generation) and
/// rewrite.
struct InstallOptions {
  bool control_flow = true;          // emit predecessor-set policies
  bool capability_tracking = false;  // emit fd-source sets (§5.3)
  policy::Metapolicy metapolicy;     // strictness requirements (§5.2)
  bool unique_block_ids = true;      // §5.5 Frankenstein defence
  /// Override the program id (0 = allocate from the installer's counter).
  /// Explicit ids keep installs deterministic when several images are
  /// installed concurrently by independent tasks.
  std::uint16_t program_id = 0;
  /// Thread pool the per-function/per-site analysis, the rewrite and
  /// the signing fan out over (nullptr = the process-global pool). Output is
  /// byte-identical at any job count; jobs=1 is the exact serial path.
  util::Executor* executor = nullptr;
};

struct GeneratedPolicies {
  analysis::ProgramIr ir;   // post-inlining IR
  analysis::Cfg cfg;
  analysis::CallGraph callgraph;
  analysis::SiteScan scan;  // sites parallel to `policies`
  analysis::SyscallGraph graph;
  analysis::InlineReport inline_report;
  /// Logical policies (call_site and composed block ids are filled in by the
  /// rewriter; block ids here are LOCAL). The administrator may edit these
  /// (fill template holes) before rewriting.
  std::vector<policy::SyscallPolicy> policies;
  /// Metapolicy holes that must be filled before rewriting (§5.2).
  std::vector<policy::TemplateHole> holes;
  std::vector<std::string> warnings;
};

GeneratedPolicies generate_policies(const binary::Image& image, os::Personality personality,
                                    const InstallOptions& options = {});

}  // namespace asc::installer
