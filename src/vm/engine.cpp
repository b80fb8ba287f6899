#include "vm/engine.h"

#include "isa/isa.h"
#include "os/kernel.h"
#include "os/process.h"
#include "util/error.h"
#include "vm/cpu.h"
#include "vm/memory.h"
#include "vm/predecode.h"

// GNU label-values give each micro-op its own indirect branch (better
// host branch prediction than one shared switch dispatch); the switch
// fallback keeps the engine portable and gives the differential tests a
// second dispatch flavor to pit against the reference interpreter.
#if defined(__GNUC__) && !defined(ASC_NO_COMPUTED_GOTO)
#define ASC_COMPUTED_GOTO 1
#else
#define ASC_COMPUTED_GOTO 0
#endif

namespace asc::vm {

namespace {

inline std::int32_t signed_of(std::uint32_t v) { return static_cast<std::int32_t>(v); }

inline bool cc_holds(std::uint8_t cc, bool zf, bool nf) {
  switch (static_cast<Cc>(cc)) {
    case Cc::Z: return zf;
    case Cc::Nz: return !zf;
    case Cc::Lt: return nf;
    case Cc::Le: return nf || zf;
    case Cc::Gt: return !nf && !zf;
    case Cc::Ge: return !nf;
  }
  return false;
}

}  // namespace

// The handler bodies below are written once and expanded under either
// dispatch flavor. Architectural-equivalence invariants each handler
// maintains against Cpu::step (the reference):
//
//   * The per-op prologue (VM_DISPATCH) performs the machine loop's
//     cycle-limit check, then charges the op's modeled cost and counts the
//     instruction BEFORE the handler body -- the reference's pre-charge
//     order, so a faulting instruction is still charged.
//   * The cycle and instruction counters live in locals, not in the
//     Process: guest stores are byte stores, which may alias any field of
//     p, so fields would be reloaded after every store. VM_CALL_OUT writes
//     them back before, and reloads them after, every call that reads or
//     charges them: the kernel's syscall entry, the Slow replay of
//     Cpu::step, and a store inside Memory's notify envelope (the data-watch
//     callback's dirty-shadow write-back MACs the state record, which
//     charges cycles). The cycle-limit and halt exits write them back, and
//     so does the catch-all around the loop for a fault the engine raises
//     itself (division by zero, an out-of-range load or store).
//   * cpu.pc is stale inside a block (that is the speedup). Every handler
//     that can fault or invoke a callback (memory access, syscall)
//     materializes cpu.pc = op->pc first, so thrown GuestFaults and
//     watch-callback observers see the reference pc.
//   * Fused pairs re-run the limit check and charge the second half
//     between the halves, exiting at mid_pc -- exactly where the reference
//     loop would stop between the two instructions.
//   * Handlers that write guest memory without ending the block re-check
//     b->valid: a self-modifying store demotes to a fresh decode at the
//     architectural next_pc.
//   * A syscall resumes through its block's successor links, like a
//     branch: a write during the call that invalidated any predecoded
//     block bumped the cache generation, which severs every link.
EngineExit run_predecoded(os::Process& p, os::Kernel& kernel, std::uint64_t cycle_limit) {
  auto& cpu = p.cpu;
  auto& mem = p.mem;
  auto& regs = cpu.regs;
  PredecodeCache& cache = p.predecode;
  const os::CostModel& cost = kernel.cost();

  cache.attach(mem);
  if (!p.running) return EngineExit::Stopped;

  std::uint64_t cycles = p.cycles;
  std::uint64_t instrs = p.instr_count;
  // True while a call-out runs: then p holds the counters (the callee may
  // charge them before it throws), so the catch-all must not overwrite them.
  bool in_call_out = false;

  PredecodedBlock* b = &cache.lookup(cpu.pc, mem, cost);
  const MicroOp* op = b->ops.data();
  std::uint32_t tmp = 0;

#define VM_SYNC_OUT()          \
  do {                         \
    p.cycles = cycles;         \
    p.instr_count = instrs;    \
  } while (0)
#define VM_CALL_OUT(call)      \
  do {                         \
    VM_SYNC_OUT();             \
    in_call_out = true;        \
    call;                      \
    in_call_out = false;       \
    cycles = p.cycles;         \
    instrs = p.instr_count;    \
  } while (0)
  // A guest store of `bits` bits. Outside the notify envelope it is an
  // inline range check and a host store; inside, the watch callbacks may
  // charge the counters.
#define VM_STORE(bits, addr, value)                  \
  do {                                               \
    const std::uint32_t a_ = (addr);                 \
    if (mem.notifies(a_, (bits) / 8)) [[unlikely]] { \
      VM_CALL_OUT(mem.w##bits(a_, (value)));         \
    } else {                                         \
      mem.w##bits(a_, (value));                      \
    }                                                \
  } while (0)

  try {
#if ASC_COMPUTED_GOTO
    // Order must match the UOp enum exactly.
    static const void* const kTable[kNumUOps] = {
        &&lbl_Nop,      &&lbl_Halt,     &&lbl_Syscall,  &&lbl_Movi,     &&lbl_Lea,
        &&lbl_Mov,      &&lbl_Add,      &&lbl_Sub,      &&lbl_Mul,      &&lbl_Div,
        &&lbl_Mod,      &&lbl_And,      &&lbl_Or,       &&lbl_Xor,      &&lbl_Shl,
        &&lbl_Shr,      &&lbl_Addi,     &&lbl_Subi,     &&lbl_Muli,     &&lbl_Andi,
        &&lbl_Ori,      &&lbl_Xori,     &&lbl_Shli,     &&lbl_Shri,     &&lbl_Not,
        &&lbl_Neg,      &&lbl_Cmp,      &&lbl_Cmpi,     &&lbl_Load,     &&lbl_Store,
        &&lbl_Loadb,    &&lbl_Storeb,   &&lbl_Push,     &&lbl_Pop,      &&lbl_Call,
        &&lbl_Callr,    &&lbl_Ret,      &&lbl_Jmp,      &&lbl_Jmpr,     &&lbl_Jz,
        &&lbl_Jnz,      &&lbl_Jlt,      &&lbl_Jle,      &&lbl_Jgt,      &&lbl_Jge,
        &&lbl_CmpJcc,   &&lbl_CmpiJcc,  &&lbl_MoviSyscall, &&lbl_LoadCmpi,
        &&lbl_LoadAddi, &&lbl_LoadSubi, &&lbl_PushCall, &&lbl_Chain,    &&lbl_Slow,
    };
    // Expanded at the end of every handler: each keeps its own indirect jump
    // (vm/engine.cpp is built with -fno-crossjumping so GCC does not merge
    // these tails back into a few shared ones).
#define VM_DISPATCH()                                     \
  do {                                                    \
    if (cycles > cycle_limit) goto vm_cycle_limit;        \
    cycles += op->cost;                                   \
    ++instrs;                                             \
    goto* kTable[static_cast<std::size_t>(op->uop)];      \
  } while (0)
#define VM_CASE(name) lbl_##name:
#else
#define VM_DISPATCH() goto vm_dispatch
#define VM_CASE(name) case UOp::name:
#endif

#define VM_FALL() \
  do {            \
    ++op;         \
    VM_DISPATCH(); \
  } while (0)
#define VM_GOTO_BLOCK(target)                              \
  do {                                                     \
    b = &cache.next_block(*b, (target), mem, cost);        \
    op = b->ops.data();                                    \
    VM_DISPATCH();                                         \
  } while (0)
#define VM_RELOOKUP(target)                                \
  do {                                                     \
    b = &cache.lookup((target), mem, cost);                \
    op = b->ops.data();                                    \
    VM_DISPATCH();                                         \
  } while (0)
  // Inter-half boundary of a fused pair: the reference loop would check the
  // limit, then pre-charge the second instruction.
#define VM_SECOND_HALF()                                   \
  do {                                                     \
    if (cycles > cycle_limit) {                            \
      cpu.pc = op->mid_pc;                                 \
      VM_SYNC_OUT();                                       \
      return EngineExit::CycleLimit;                       \
    }                                                      \
    cycles += op->cost2;                                   \
    ++instrs;                                              \
  } while (0)

#if ASC_COMPUTED_GOTO
    VM_DISPATCH();
#else
vm_dispatch:
    if (cycles > cycle_limit) goto vm_cycle_limit;
    cycles += op->cost;
    ++instrs;
    switch (op->uop) {
#endif

    VM_CASE(Nop) { VM_FALL(); }
    VM_CASE(Halt) {
      p.running = false;
      p.exit_code = Cpu::kHaltExitCode;
      p.violation_detail = "halt instruction";
      cpu.pc = op->pc;
      VM_SYNC_OUT();
      return EngineExit::Stopped;
    }
    VM_CASE(Syscall) {
      cpu.pc = op->next_pc;
      VM_CALL_OUT(kernel.on_syscall(p, op->pc));
      if (!p.running) return EngineExit::Stopped;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Movi) {
      regs[op->rd] = op->imm;
      VM_FALL();
    }
    VM_CASE(Lea) {
      regs[op->rd] = op->imm;
      VM_FALL();
    }
    VM_CASE(Mov) {
      regs[op->rd] = regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Add) {
      regs[op->rd] += regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Sub) {
      regs[op->rd] -= regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Mul) {
      regs[op->rd] *= regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Div) {
      if (regs[op->rs] == 0) {
        cpu.pc = op->pc;
        throw GuestFault("division by zero");
      }
      regs[op->rd] =
          static_cast<std::uint32_t>(signed_of(regs[op->rd]) / signed_of(regs[op->rs]));
      VM_FALL();
    }
    VM_CASE(Mod) {
      if (regs[op->rs] == 0) {
        cpu.pc = op->pc;
        throw GuestFault("division by zero");
      }
      regs[op->rd] =
          static_cast<std::uint32_t>(signed_of(regs[op->rd]) % signed_of(regs[op->rs]));
      VM_FALL();
    }
    VM_CASE(And) {
      regs[op->rd] &= regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Or) {
      regs[op->rd] |= regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Xor) {
      regs[op->rd] ^= regs[op->rs];
      VM_FALL();
    }
    VM_CASE(Shl) {
      regs[op->rd] <<= regs[op->rs] & 31u;
      VM_FALL();
    }
    VM_CASE(Shr) {
      regs[op->rd] >>= regs[op->rs] & 31u;
      VM_FALL();
    }
    VM_CASE(Addi) {
      regs[op->rd] += op->imm;
      VM_FALL();
    }
    VM_CASE(Subi) {
      regs[op->rd] -= op->imm;
      VM_FALL();
    }
    VM_CASE(Muli) {
      regs[op->rd] *= op->imm;
      VM_FALL();
    }
    VM_CASE(Andi) {
      regs[op->rd] &= op->imm;
      VM_FALL();
    }
    VM_CASE(Ori) {
      regs[op->rd] |= op->imm;
      VM_FALL();
    }
    VM_CASE(Xori) {
      regs[op->rd] ^= op->imm;
      VM_FALL();
    }
    VM_CASE(Shli) {
      regs[op->rd] <<= op->imm & 31u;
      VM_FALL();
    }
    VM_CASE(Shri) {
      regs[op->rd] >>= op->imm & 31u;
      VM_FALL();
    }
    VM_CASE(Not) {
      regs[op->rd] = ~regs[op->rd];
      VM_FALL();
    }
    VM_CASE(Neg) {
      regs[op->rd] = static_cast<std::uint32_t>(-signed_of(regs[op->rd]));
      VM_FALL();
    }
    VM_CASE(Cmp) {
      cpu.zf = regs[op->rd] == regs[op->rs];
      cpu.nf = signed_of(regs[op->rd]) < signed_of(regs[op->rs]);
      VM_FALL();
    }
    VM_CASE(Cmpi) {
      cpu.zf = regs[op->rd] == op->imm;
      cpu.nf = signed_of(regs[op->rd]) < signed_of(op->imm);
      VM_FALL();
    }
    VM_CASE(Load) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r32(regs[op->rs] + op->imm);
      VM_FALL();
    }
    VM_CASE(Store) {
      cpu.pc = op->pc;
      VM_STORE(32, regs[op->rs] + op->imm, regs[op->rd]);
      if (!b->valid) VM_RELOOKUP(op->next_pc);
      VM_FALL();
    }
    VM_CASE(Loadb) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r8(regs[op->rs] + op->imm);
      VM_FALL();
    }
    VM_CASE(Storeb) {
      cpu.pc = op->pc;
      VM_STORE(8, regs[op->rs] + op->imm, static_cast<std::uint8_t>(regs[op->rd]));
      if (!b->valid) VM_RELOOKUP(op->next_pc);
      VM_FALL();
    }
    VM_CASE(Push) {
      cpu.pc = op->pc;
      regs[isa::kSp] -= 4;
      VM_STORE(32, regs[isa::kSp], regs[op->rd]);
      if (!b->valid) VM_RELOOKUP(op->next_pc);
      VM_FALL();
    }
    VM_CASE(Pop) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r32(regs[isa::kSp]);
      regs[isa::kSp] += 4;
      VM_FALL();
    }
    VM_CASE(Call) {
      cpu.pc = op->pc;
      regs[isa::kSp] -= 4;
      VM_STORE(32, regs[isa::kSp], op->next_pc);
      cpu.pc = op->imm;
      VM_GOTO_BLOCK(op->imm);
    }
    VM_CASE(Callr) {
      cpu.pc = op->pc;
      regs[isa::kSp] -= 4;
      VM_STORE(32, regs[isa::kSp], op->next_pc);
      cpu.pc = regs[op->rd];
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Ret) {
      cpu.pc = op->pc;
      tmp = mem.r32(regs[isa::kSp]);
      regs[isa::kSp] += 4;
      cpu.pc = tmp;
      VM_GOTO_BLOCK(tmp);
    }
    VM_CASE(Jmp) {
      cpu.pc = op->imm;
      VM_GOTO_BLOCK(op->imm);
    }
    VM_CASE(Jmpr) {
      cpu.pc = regs[op->rd];
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jz) {
      cpu.pc = cpu.zf ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jnz) {
      cpu.pc = !cpu.zf ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jlt) {
      cpu.pc = cpu.nf ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jle) {
      cpu.pc = (cpu.nf || cpu.zf) ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jgt) {
      cpu.pc = (!cpu.nf && !cpu.zf) ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(Jge) {
      cpu.pc = !cpu.nf ? op->imm : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(CmpJcc) {
      cpu.zf = regs[op->rd] == regs[op->rs];
      cpu.nf = signed_of(regs[op->rd]) < signed_of(regs[op->rs]);
      VM_SECOND_HALF();
      cpu.pc = cc_holds(op->aux, cpu.zf, cpu.nf) ? op->imm2 : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(CmpiJcc) {
      cpu.zf = regs[op->rd] == op->imm;
      cpu.nf = signed_of(regs[op->rd]) < signed_of(op->imm);
      VM_SECOND_HALF();
      cpu.pc = cc_holds(op->aux, cpu.zf, cpu.nf) ? op->imm2 : op->next_pc;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(MoviSyscall) {
      regs[op->rd] = op->imm;
      VM_SECOND_HALF();
      cpu.pc = op->next_pc;
      VM_CALL_OUT(kernel.on_syscall(p, op->mid_pc));
      if (!p.running) return EngineExit::Stopped;
      VM_GOTO_BLOCK(cpu.pc);
    }
    VM_CASE(LoadCmpi) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r32(regs[op->rs] + op->imm);
      VM_SECOND_HALF();
      cpu.zf = regs[op->rd] == op->imm2;
      cpu.nf = signed_of(regs[op->rd]) < signed_of(op->imm2);
      VM_FALL();
    }
    VM_CASE(LoadAddi) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r32(regs[op->rs] + op->imm);
      VM_SECOND_HALF();
      regs[op->rd] += op->imm2;
      VM_FALL();
    }
    VM_CASE(LoadSubi) {
      cpu.pc = op->pc;
      regs[op->rd] = mem.r32(regs[op->rs] + op->imm);
      VM_SECOND_HALF();
      regs[op->rd] -= op->imm2;
      VM_FALL();
    }
    VM_CASE(PushCall) {
      cpu.pc = op->pc;
      regs[isa::kSp] -= 4;
      VM_STORE(32, regs[isa::kSp], regs[op->rd]);
      // The push may have overwritten the fused call itself: finish the pair
      // as two plain instructions from a fresh decode at mid_pc.
      if (!b->valid) VM_RELOOKUP(op->mid_pc);
      VM_SECOND_HALF();
      cpu.pc = op->mid_pc;
      regs[isa::kSp] -= 4;
      VM_STORE(32, regs[isa::kSp], op->next_pc);
      cpu.pc = op->imm2;
      VM_GOTO_BLOCK(op->imm2);
    }
    VM_CASE(Chain) {
      // Engine-internal block continuation: undo the prologue's instruction
      // count (cost is zero); no architectural effect.
      --instrs;
      VM_GOTO_BLOCK(op->pc);
    }
    VM_CASE(Slow) {
      // Replay the reference interpreter for one instruction: reproduces the
      // exact fault type/message/charging for undecodable or out-of-range
      // pcs, then resumes threaded dispatch from wherever it lands.
      --instrs;
      cpu.pc = op->pc;
      VM_CALL_OUT(Cpu::step(p, kernel));
      if (!p.running) return EngineExit::Stopped;
      VM_RELOOKUP(cpu.pc);
    }

#if !ASC_COMPUTED_GOTO
      case UOp::kCount:
        break;
    }
#endif
    throw Error("engine: corrupt micro-op stream");  // not reachable

vm_cycle_limit:
    cpu.pc = op->pc;
    VM_SYNC_OUT();
    return EngineExit::CycleLimit;
  } catch (...) {
    // A fault the engine raised itself (division by zero, an out-of-range
    // load or store) leaves the counters in the locals; a throwing call-out
    // has already charged p's.
    if (!in_call_out) VM_SYNC_OUT();
    throw;
  }

#undef VM_DISPATCH
#undef VM_CASE
#undef VM_FALL
#undef VM_GOTO_BLOCK
#undef VM_RELOOKUP
#undef VM_SECOND_HALF
#undef VM_STORE
#undef VM_CALL_OUT
#undef VM_SYNC_OUT
}

}  // namespace asc::vm
