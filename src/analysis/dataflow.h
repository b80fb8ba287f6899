// Reaching definitions and abstract value tracing.
//
// The installer classifies each system call argument by running a standard
// reaching-definitions analysis (intraprocedural, over the post-inlining IR)
// and then tracing the reaching definitions of the argument register to an
// abstract value:
//
//   Const(v)        movi constant, or lea of a non-string / writable object
//   StrAddr(a)      lea of a NUL-terminated constant in .rodata, directly or
//                   through register copies; the value keeps those LEAs
//   FdFrom(sites)   copy chain rooted at the r0 result of fd-returning
//                   syscalls (Table 3's `fds` column, §5.3)
//   Multi(values)   several constant definitions reach (Table 3's `mv`)
//   Unknown         anything else (params, loads, arithmetic, call results)
//
// Definition sites are function-local instruction indexes, plus a synthetic
// "entry" definition representing the ABI argument registers at function
// entry (always Unknown).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/disassembler.h"

namespace asc::analysis {

/// A definition: instruction index within the function, or kEntryDef for the
/// synthetic entry definition.
inline constexpr std::size_t kEntryDef = SIZE_MAX;

/// Reaching-definition sets for one function.
class ReachingDefs {
 public:
  /// Compute for function `fi`. Uses the CFG's blocks for that function.
  ReachingDefs(const ProgramIr& ir, const Cfg& cfg, std::size_t fi);

  /// Definitions of register `r` reaching the *start* of instruction `instr`.
  std::set<std::size_t> defs_at(std::size_t instr, isa::Reg r) const;

  /// Registers an instruction defines (ABI-aware: Call clobbers r0..r5 and
  /// r11..r14; Syscall defines r0).
  static std::vector<isa::Reg> defined_regs(const IrInstr& instr);

 private:
  const IrFunction& f_;
  const Cfg& cfg_;
  std::size_t fi_;
  // Per block, per register: reaching defs at block entry.
  std::map<std::uint32_t, std::array<std::set<std::size_t>, isa::kNumRegs>> in_;
};

/// Abstract value of a traced argument.
struct AbstractValue {
  enum class Kind : std::uint8_t { Unknown, Const, StrAddr, FdFrom, Multi };
  Kind kind = Kind::Unknown;
  std::uint32_t value = 0;                  // Const or StrAddr (the address)
  std::vector<std::uint32_t> values;        // Multi: the possible constants
  std::vector<std::size_t> fd_sites;        // FdFrom: syscall instr indexes
  std::vector<std::size_t> leas;            // StrAddr: the LEAs that load it
};

/// Trace the value of register `r` at instruction `instr` of function `fi`.
/// `image` supplies section/string information for Lea targets.
AbstractValue trace_value(const ProgramIr& ir, const binary::Image& image, const Cfg& cfg,
                          const ReachingDefs& rd, std::size_t fi, std::size_t instr, isa::Reg r,
                          int depth = 0);

}  // namespace asc::analysis
