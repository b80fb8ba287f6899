#include "analysis/dataflow.h"

#include <algorithm>
#include <array>

#include "util/error.h"

namespace asc::analysis {

std::vector<isa::Reg> ReachingDefs::defined_regs(const IrInstr& instr) {
  const isa::Op op = instr.ins.op;
  if (op == isa::Op::Call || op == isa::Op::Callr) {
    // Toy ABI: calls may clobber r0..r5 and r11..r14.
    std::vector<isa::Reg> regs;
    for (isa::Reg r = 0; r <= 5; ++r) regs.push_back(r);
    for (isa::Reg r = 11; r <= 14; ++r) regs.push_back(r);
    return regs;
  }
  if (op == isa::Op::Syscall) return {0};
  if (isa::writes_rd(op)) return {instr.ins.rd};
  return {};
}

ReachingDefs::ReachingDefs(const ProgramIr& ir, const Cfg& cfg, std::size_t fi)
    : f_(ir.funcs[fi]), cfg_(cfg), fi_(fi) {
  const FunctionCfg& fc = cfg.functions[fi];
  if (fc.block_ids.empty()) return;

  // gen/kill per block: last def of each register within the block (or none).
  struct BlockSummary {
    std::array<std::optional<std::size_t>, isa::kNumRegs> last_def{};  // kills + gens
  };
  std::map<std::uint32_t, BlockSummary> summary;
  for (std::uint32_t bid : fc.block_ids) {
    const BasicBlock& b = cfg.block(bid);
    BlockSummary s;
    for (std::size_t i = b.first; i <= b.last; ++i) {
      for (isa::Reg r : defined_regs(f_.instrs[i])) s.last_def[r] = i;
    }
    summary[bid] = s;
  }

  // Initialize: entry block starts with the synthetic entry definition for
  // every register.
  for (std::uint32_t bid : fc.block_ids) {
    in_[bid] = {};
  }
  for (isa::Reg r = 0; r < isa::kNumRegs; ++r) in_[fc.entry_block][r].insert(kEntryDef);

  // Worklist fixpoint.
  std::vector<std::uint32_t> worklist(fc.block_ids.begin(), fc.block_ids.end());
  while (!worklist.empty()) {
    const std::uint32_t bid = worklist.back();
    worklist.pop_back();
    const BasicBlock& b = cfg.block(bid);
    const BlockSummary& s = summary[bid];
    // out = gen U (in - kill) per register.
    std::array<std::set<std::size_t>, isa::kNumRegs> out;
    for (isa::Reg r = 0; r < isa::kNumRegs; ++r) {
      if (s.last_def[r].has_value()) {
        out[r] = {*s.last_def[r]};
      } else {
        out[r] = in_[bid][r];
      }
    }
    for (std::uint32_t succ : b.succs) {
      bool changed = false;
      for (isa::Reg r = 0; r < isa::kNumRegs; ++r) {
        for (std::size_t d : out[r]) {
          if (in_[succ][r].insert(d).second) changed = true;
        }
      }
      if (changed) worklist.push_back(succ);
    }
  }
}

std::set<std::size_t> ReachingDefs::defs_at(std::size_t instr, isa::Reg r) const {
  const std::uint32_t bid = cfg_.block_containing(fi_, instr);
  const BasicBlock& b = cfg_.block(bid);
  auto it = in_.find(bid);
  if (it == in_.end()) return {};
  std::set<std::size_t> defs = it->second[r];
  for (std::size_t i = b.first; i < instr; ++i) {
    for (isa::Reg dr : defined_regs(f_.instrs[i])) {
      if (dr == r) defs = {i};
    }
  }
  return defs;
}

namespace {

bool is_rodata_cstring(const binary::Image& image, std::uint32_t addr) {
  const auto sec = image.section_containing(addr);
  if (!sec.has_value() || *sec != binary::SectionKind::Rodata) return false;
  return image.cstring_at(addr).has_value();
}

}  // namespace

AbstractValue trace_value(const ProgramIr& ir, const binary::Image& image, const Cfg& cfg,
                          const ReachingDefs& rd, std::size_t fi, std::size_t instr, isa::Reg r,
                          int depth) {
  AbstractValue result;
  if (depth > 12) return result;  // Unknown

  const IrFunction& f = ir.funcs[fi];
  const auto defs = rd.defs_at(instr, r);
  if (defs.empty()) return result;

  // Resolve every reaching definition to an abstract value; merge.
  std::vector<AbstractValue> vals;
  for (std::size_t d : defs) {
    if (d == kEntryDef) return AbstractValue{};  // parameter: Unknown
    const IrInstr& din = f.instrs[d];
    switch (din.ins.op) {
      case isa::Op::Movi: {
        AbstractValue v;
        v.kind = AbstractValue::Kind::Const;
        v.value = din.ins.imm;
        vals.push_back(v);
        break;
      }
      case isa::Op::Lea: {
        AbstractValue v;
        if (din.ref == RefKind::DataAddr && is_rodata_cstring(image, din.ref_addr)) {
          v.kind = AbstractValue::Kind::StrAddr;
          v.value = din.ref_addr;
          v.leas = {d};
        } else if (din.ref == RefKind::DataAddr) {
          // Address of a non-string or writable object: a constant address
          // ("Immediate" in the paper's classification).
          v.kind = AbstractValue::Kind::Const;
          v.value = din.ref_addr;
        } else {
          // Function pointer constants are constants too.
          v.kind = AbstractValue::Kind::Const;
          v.value = din.ins.imm;
        }
        vals.push_back(v);
        break;
      }
      case isa::Op::Mov: {
        vals.push_back(trace_value(ir, image, cfg, rd, fi, d, din.ins.rs, depth + 1));
        break;
      }
      case isa::Op::Syscall: {
        // The r0 result of an fd-returning syscall is a capability source.
        // Determine which syscall this is by tracing ITS r0 input.
        AbstractValue v;  // Unknown unless fd-returning
        const AbstractValue sysno = trace_value(ir, image, cfg, rd, fi, d, 0, depth + 1);
        if (sysno.kind == AbstractValue::Kind::Const) {
          v.kind = AbstractValue::Kind::FdFrom;
          v.fd_sites = {d};
        }
        vals.push_back(v);
        break;
      }
      default:
        vals.push_back(AbstractValue{});  // Unknown
        break;
    }
  }

  // Merge.
  bool all_const = true;
  bool all_fd = true;
  std::set<std::uint32_t> consts;
  std::set<std::size_t> fd_sites;
  for (const auto& v : vals) {
    switch (v.kind) {
      case AbstractValue::Kind::Const:
      case AbstractValue::Kind::StrAddr:
        consts.insert(v.value);
        all_fd = false;
        break;
      case AbstractValue::Kind::Multi:
        for (auto c : v.values) consts.insert(c);
        all_fd = false;
        break;
      case AbstractValue::Kind::FdFrom:
        for (auto s : v.fd_sites) fd_sites.insert(s);
        all_const = false;
        break;
      case AbstractValue::Kind::Unknown:
        return AbstractValue{};
    }
  }
  if (all_fd && !fd_sites.empty()) {
    result.kind = AbstractValue::Kind::FdFrom;
    result.fd_sites.assign(fd_sites.begin(), fd_sites.end());
    return result;
  }
  if (!all_const || consts.empty()) return AbstractValue{};
  if (consts.size() == 1 && vals.size() >= 1) {
    // Single value: preserve the StrAddr kind if every def was the string.
    bool all_str = std::all_of(vals.begin(), vals.end(), [](const AbstractValue& v) {
      return v.kind == AbstractValue::Kind::StrAddr;
    });
    result.kind = all_str ? AbstractValue::Kind::StrAddr : AbstractValue::Kind::Const;
    result.value = *consts.begin();
    if (all_str) {
      std::set<std::size_t> leas;
      for (const auto& v : vals) leas.insert(v.leas.begin(), v.leas.end());
      result.leas.assign(leas.begin(), leas.end());
    }
    return result;
  }
  result.kind = AbstractValue::Kind::Multi;
  result.values.assign(consts.begin(), consts.end());
  return result;
}

}  // namespace asc::analysis
