#include "analysis/inliner.h"

#include "util/error.h"

namespace asc::analysis {

bool is_syscall_stub(const ProgramIr& ir, std::size_t fi) {
  const IrFunction& f = ir.funcs[fi];
  if (f.opaque || f.inlined_away) return false;
  if (f.instrs.empty() || f.instrs.size() > kMaxStubLen) return false;
  if (f.instrs.back().ins.op != isa::Op::Ret) return false;
  bool has_syscall = false;
  for (std::size_t i = 0; i < f.instrs.size(); ++i) {
    const isa::Op op = f.instrs[i].ins.op;
    if (op == isa::Op::Syscall) has_syscall = true;
    // Straight-line only: any control transfer except the final Ret
    // disqualifies (including calls -- a stub must trap directly).
    if (isa::is_control_transfer(op) && !(op == isa::Op::Ret && i + 1 == f.instrs.size())) {
      return false;
    }
    // A jump INTO the stub body would break inlining; CodeLocal refs only
    // arise from branches, excluded above, so nothing more to check.
  }
  return has_syscall;
}

namespace {

/// Remove functions in `candidates` that are no longer referenced.
void remove_dead(ProgramIr& ir, const std::vector<bool>& candidates, InlineReport& report) {
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    if (!candidates[fi]) continue;
    if (ir.funcs[fi].address_taken || fi == ir.entry_func) continue;
    bool still_called = false;
    for (std::size_t oi = 0; oi < ir.funcs.size() && !still_called; ++oi) {
      const IrFunction& other = ir.funcs[oi];
      if (other.opaque || other.inlined_away) continue;
      for (const auto& instr : other.instrs) {
        if ((instr.ins.op == isa::Op::Call || instr.ins.op == isa::Op::Jmp) &&
            instr.ref == RefKind::FuncEntry && instr.ref_index == fi) {
          still_called = true;
          break;
        }
      }
    }
    if (!still_called) {
      ir.funcs[fi].inlined_away = true;
      ir.funcs[fi].instrs.clear();
      ++report.stubs_removed;
    }
  }
}

}  // namespace

InlineReport inline_syscall_wrappers(ProgramIr& ir) {
  InlineReport report;

  // Qualify wrappers on a snapshot taken after stub inlining.
  std::vector<bool> qualifies(ir.funcs.size(), false);
  std::vector<std::vector<IrInstr>> snapshot(ir.funcs.size());
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    const IrFunction& f = ir.funcs[fi];
    if (fi == ir.entry_func || f.opaque || f.inlined_away || f.address_taken) continue;
    if (f.instrs.empty() || f.instrs.size() > kMaxWrapperLen) continue;
    bool has_syscall = false;
    bool ok = true;
    for (const auto& instr : f.instrs) {
      if (instr.ins.op == isa::Op::Syscall) has_syscall = true;
      if (instr.ins.op == isa::Op::Jmpr || instr.ins.op == isa::Op::Callr) ok = false;
      // Self-recursion cannot be inlined.
      if (instr.ins.op == isa::Op::Call && instr.ref == RefKind::FuncEntry &&
          instr.ref_index == fi) {
        ok = false;
      }
    }
    if (has_syscall && ok) {
      qualifies[fi] = true;
      snapshot[fi] = f.instrs;
      ++report.stubs_found;
      report.stub_names.push_back(f.name);
    }
  }

  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    IrFunction& f = ir.funcs[fi];
    if (f.opaque || f.inlined_away) continue;
    if (qualifies[fi]) continue;  // wrappers keep calling each other as-is
    for (std::size_t i = 0; i < f.instrs.size(); /* advance inside */) {
      const IrInstr& instr = f.instrs[i];
      if (!(instr.ins.op == isa::Op::Call && instr.ref == RefKind::FuncEntry &&
            qualifies[instr.ref_index]) ||
          i + 1 == f.instrs.size()) {
        // (A call as the very last instruction has no landing point for the
        // converted returns; leave it alone.)
        ++i;
        continue;
      }
      std::vector<IrInstr> body = snapshot[instr.ref_index];
      const std::size_t len = body.size();
      // Rebase the body: internal CodeLocal refs shift by +i; returns jump
      // past the spliced body (to the caller's next instruction).
      for (auto& bi : body) {
        if (bi.ref == RefKind::CodeLocal) bi.ref_index += i;
        if (bi.ins.op == isa::Op::Ret) {
          bi.ins = {isa::Op::Jmp, 0, 0, 0};
          bi.ref = RefKind::CodeLocal;
          bi.ref_index = i + len;
        }
        bi.orig_addr = 0;  // inserted code has no original address
      }
      const std::ptrdiff_t delta = static_cast<std::ptrdiff_t>(len) - 1;
      for (auto& other : f.instrs) {
        if (other.ref == RefKind::CodeLocal && other.ref_index > i) {
          other.ref_index =
              static_cast<std::size_t>(static_cast<std::ptrdiff_t>(other.ref_index) + delta);
        }
      }
      f.instrs.erase(f.instrs.begin() + static_cast<std::ptrdiff_t>(i));
      f.instrs.insert(f.instrs.begin() + static_cast<std::ptrdiff_t>(i), body.begin(),
                      body.end());
      ++report.call_sites_inlined;
      i += len;
    }
  }

  remove_dead(ir, qualifies, report);
  return report;
}

InlineReport inline_syscall_stubs(ProgramIr& ir) {
  InlineReport report;
  std::vector<bool> is_stub(ir.funcs.size(), false);
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    if (fi == ir.entry_func) continue;
    if (is_syscall_stub(ir, fi)) {
      is_stub[fi] = true;
      ++report.stubs_found;
      report.stub_names.push_back(ir.funcs[fi].name);
    }
  }

  // Replace each Call-to-stub with the stub body (minus the final Ret).
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    IrFunction& f = ir.funcs[fi];
    if (f.opaque || f.inlined_away || is_stub[fi]) continue;  // stubs don't call stubs
    for (std::size_t i = 0; i < f.instrs.size(); /* advance inside */) {
      const IrInstr& instr = f.instrs[i];
      if (instr.ins.op == isa::Op::Call && instr.ref == RefKind::FuncEntry &&
          is_stub[instr.ref_index]) {
        const IrFunction& stub = ir.funcs[instr.ref_index];
        std::vector<IrInstr> body(stub.instrs.begin(), stub.instrs.end() - 1);
        // CodeLocal refs inside a straight-line stub cannot exist; DataAddr
        // and FuncEntry refs are position-independent, so the body can be
        // spliced verbatim. Fix up local branch targets in the caller that
        // point past the splice.
        const std::ptrdiff_t delta = static_cast<std::ptrdiff_t>(body.size()) - 1;
        for (auto& other : f.instrs) {
          if (other.ref == RefKind::CodeLocal && other.ref_index > i) {
            other.ref_index = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(other.ref_index) + delta);
          }
        }
        f.instrs.erase(f.instrs.begin() + static_cast<std::ptrdiff_t>(i));
        f.instrs.insert(f.instrs.begin() + static_cast<std::ptrdiff_t>(i), body.begin(),
                        body.end());
        ++report.call_sites_inlined;
        i += body.size();
      } else {
        ++i;
      }
    }
  }

  remove_dead(ir, is_stub, report);
  return report;
}

}  // namespace asc::analysis
