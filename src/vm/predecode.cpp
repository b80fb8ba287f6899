#include "vm/predecode.h"

#include "isa/decode.h"
#include "os/costmodel.h"

namespace asc::vm {

namespace {

using isa::Op;

/// Direct Op -> UOp mapping for the unfused single-instruction micro-ops.
/// (Dense switch instead of a table: the builder is off the hot path and
/// the compiler checks exhaustiveness for us.)
UOp uop_of(Op op) {
  switch (op) {
    case Op::Nop: return UOp::Nop;
    case Op::Halt: return UOp::Halt;
    case Op::Syscall: return UOp::Syscall;
    case Op::Movi: return UOp::Movi;
    case Op::Lea: return UOp::Lea;
    case Op::Mov: return UOp::Mov;
    case Op::Add: return UOp::Add;
    case Op::Sub: return UOp::Sub;
    case Op::Mul: return UOp::Mul;
    case Op::Div: return UOp::Div;
    case Op::Mod: return UOp::Mod;
    case Op::And: return UOp::And;
    case Op::Or: return UOp::Or;
    case Op::Xor: return UOp::Xor;
    case Op::Shl: return UOp::Shl;
    case Op::Shr: return UOp::Shr;
    case Op::Addi: return UOp::Addi;
    case Op::Subi: return UOp::Subi;
    case Op::Muli: return UOp::Muli;
    case Op::Andi: return UOp::Andi;
    case Op::Ori: return UOp::Ori;
    case Op::Xori: return UOp::Xori;
    case Op::Shli: return UOp::Shli;
    case Op::Shri: return UOp::Shri;
    case Op::Not: return UOp::Not;
    case Op::Neg: return UOp::Neg;
    case Op::Cmp: return UOp::Cmp;
    case Op::Cmpi: return UOp::Cmpi;
    case Op::Load: return UOp::Load;
    case Op::Store: return UOp::Store;
    case Op::Loadb: return UOp::Loadb;
    case Op::Storeb: return UOp::Storeb;
    case Op::Push: return UOp::Push;
    case Op::Pop: return UOp::Pop;
    case Op::Call: return UOp::Call;
    case Op::Callr: return UOp::Callr;
    case Op::Ret: return UOp::Ret;
    case Op::Jmp: return UOp::Jmp;
    case Op::Jmpr: return UOp::Jmpr;
    case Op::Jz: return UOp::Jz;
    case Op::Jnz: return UOp::Jnz;
    case Op::Jlt: return UOp::Jlt;
    case Op::Jle: return UOp::Jle;
    case Op::Jgt: return UOp::Jgt;
    case Op::Jge: return UOp::Jge;
  }
  return UOp::Slow;  // unreachable: decode() only yields defined opcodes
}

bool ends_block(Op op) {
  return op == Op::Halt || op == Op::Syscall || isa::is_control_transfer(op);
}

/// Blocks are capped so a straight-line megafunction cannot make one build
/// arbitrarily expensive; a Chain micro-op continues in the next block.
constexpr std::size_t kMaxOpsPerBlock = 128;

/// Whole-cache reset valve: a pathological self-modifier that keeps
/// invalidating and rebuilding would otherwise accumulate dead blocks
/// forever (invalidated blocks are deliberately never freed mid-run so the
/// engine's current-block pointer stays valid).
constexpr std::size_t kFlushThreshold = 65536;

}  // namespace

void PredecodeCache::set_fusion(bool on) {
  if (fuse_ == on) return;
  fuse_ = on;
  flush();
}

void PredecodeCache::attach(Memory& mem) {
  // Reinstalled every run entry: the callback captures `this`, and the
  // owning Process may have moved since the last run.
  mem.set_exec_watch([this](std::uint32_t addr, std::uint32_t len) { on_exec_write(addr, len); });
}

PredecodedBlock& PredecodeCache::lookup(std::uint32_t pc, Memory& mem,
                                        const os::CostModel& cost) {
  if (auto it = index_.find(pc); it != index_.end() && it->second->valid) return *it->second;
  if (blocks_.size() >= kFlushThreshold) flush();
  return build(pc, mem, cost);
}

PredecodedBlock& PredecodeCache::next_block(PredecodedBlock& from, std::uint32_t pc, Memory& mem,
                                            const os::CostModel& cost) {
  for (const auto& l : from.links)
    if (l.gen == gen_ && l.pc == pc && l.block != nullptr) return *l.block;
  // Capture the generation before lookup(): a size-valve flush inside it
  // frees every block including `from`, in which case the link refill below
  // must be skipped (gen_ is bumped by exactly the paths that free or
  // invalidate blocks, so an unchanged gen_ proves `from` is still alive).
  const std::uint64_t g = gen_;
  PredecodedBlock& nb = lookup(pc, mem, cost);
  if (gen_ == g) {
    auto& slot = from.links[from.link_rr & 1];
    from.link_rr ^= 1;
    slot = {pc, &nb, gen_};
  }
  return nb;
}

PredecodedBlock& PredecodeCache::build(std::uint32_t pc, Memory& mem,
                                       const os::CostModel& cost) {
  auto owned = std::make_unique<PredecodedBlock>();
  PredecodedBlock& b = *owned;
  blocks_.push_back(std::move(owned));
  b.start = pc;
  b.valid = true;

  const auto flat = mem.flat();
  std::uint32_t cur = pc;
  bool terminated = false;
  while (!terminated && b.ops.size() < kMaxOpsPerBlock) {
    if (!mem.in_range(cur)) {
      // Out-of-range fetch: the Slow op replays Cpu::step for the exact
      // "pc out of range" fault.
      MicroOp m;
      m.uop = UOp::Slow;
      m.pc = m.mid_pc = m.next_pc = cur;
      b.ops.push_back(m);
      terminated = true;
      break;
    }
    const auto dec = isa::try_decode(flat, Memory::index_of(cur));
    if (!dec) {
      // Invalid opcode / truncated encoding: replay Cpu::step so the exact
      // DecodeError (which propagates out of Machine::run uncaught, unlike
      // GuestFault) is reproduced from the current bytes.
      MicroOp m;
      m.uop = UOp::Slow;
      m.pc = m.mid_pc = m.next_pc = cur;
      b.ops.push_back(m);
      terminated = true;
      break;
    }
    const isa::Instr& ins = dec->ins;
    MicroOp m;
    m.uop = uop_of(ins.op);
    m.rd = ins.rd;
    m.rs = ins.rs;
    m.imm = ins.imm;
    m.pc = cur;
    m.mid_pc = m.next_pc = cur + static_cast<std::uint32_t>(dec->size);
    m.cost = cost.instr_cost(ins.op);
    terminated = ends_block(ins.op);

    // Superinstruction fusion: peek one instruction ahead for the dominant
    // pairs. Jumps INTO the second half are unaffected -- they enter their
    // own block keyed at that address; fusion only binds the two halves
    // when control flows through them consecutively, with the inter-half
    // cycle-limit check and accounting preserved by the engine.
    if (fuse_ && !terminated &&
        (ins.op == Op::Cmp || ins.op == Op::Cmpi || ins.op == Op::Movi || ins.op == Op::Load ||
         ins.op == Op::Push) &&
        mem.in_range(m.next_pc)) {
      if (const auto dec2 = isa::try_decode(flat, Memory::index_of(m.next_pc))) {
        const isa::Instr& ins2 = dec2->ins;
        UOp fused = UOp::kCount;  // sentinel: no fusion
        if ((ins.op == Op::Cmp || ins.op == Op::Cmpi) && isa::is_conditional_branch(ins2.op)) {
          fused = ins.op == Op::Cmp ? UOp::CmpJcc : UOp::CmpiJcc;
          m.aux = static_cast<std::uint8_t>(static_cast<std::uint8_t>(ins2.op) -
                                            static_cast<std::uint8_t>(Op::Jz));
        } else if (ins.op == Op::Movi && ins2.op == Op::Syscall) {
          fused = UOp::MoviSyscall;
        } else if (ins.op == Op::Load && ins2.rd == ins.rd &&
                   (ins2.op == Op::Cmpi || ins2.op == Op::Addi || ins2.op == Op::Subi)) {
          fused = ins2.op == Op::Cmpi  ? UOp::LoadCmpi
                  : ins2.op == Op::Addi ? UOp::LoadAddi
                                        : UOp::LoadSubi;
        } else if (ins.op == Op::Push && ins2.op == Op::Call) {
          fused = UOp::PushCall;
        }
        if (fused != UOp::kCount) {
          m.uop = fused;
          m.imm2 = ins2.imm;
          m.next_pc = m.mid_pc + static_cast<std::uint32_t>(dec2->size);
          m.cost2 = cost.instr_cost(ins2.op);
          terminated = ends_block(ins2.op);
          ++stats_.superinstructions;
        }
      }
    }

    b.ops.push_back(m);
    cur = m.next_pc;
  }
  if (!terminated) {
    // Size cap hit mid-straight-line-code: chain into a successor block
    // with no architectural effect.
    MicroOp m;
    m.uop = UOp::Chain;
    m.pc = m.mid_pc = m.next_pc = cur;
    b.ops.push_back(m);
  }
  b.end = cur;

  index_[b.start] = &b;
  if (b.end > b.start) {
    for (std::uint32_t pg = page_of(b.start); pg <= page_of(b.end - 1); ++pg)
      pages_[pg].push_back(&b);
    mem.expand_exec_envelope(b.start, b.end);
  }
  ++stats_.blocks;
  stats_.uops += b.ops.size();
  return b;
}

void PredecodeCache::on_exec_write(std::uint32_t addr, std::uint32_t len) {
  ++stats_.exec_writes;
  if (len == 0) return;
  bool any = false;
  for (std::uint32_t pg = page_of(addr); pg <= page_of(addr + len - 1); ++pg) {
    auto it = pages_.find(pg);
    if (it == pages_.end()) continue;
    auto& vec = it->second;
    for (std::size_t k = 0; k < vec.size();) {
      PredecodedBlock* blk = vec[k];
      if (blk->valid && addr < blk->end && addr + len > blk->start) {
        blk->valid = false;
        index_.erase(blk->start);
        ++stats_.invalidations;
        any = true;
      }
      // Drop stale entries (blocks invalidated here or via another page)
      // lazily; the block object itself stays allocated until the next
      // flush so in-flight engine pointers remain dereferenceable.
      if (!blk->valid) {
        vec[k] = vec.back();
        vec.pop_back();
      } else {
        ++k;
      }
    }
    if (vec.empty()) pages_.erase(it);
  }
  if (any) ++gen_;  // sever every inline successor link at once
}

void PredecodeCache::flush() {
  blocks_.clear();
  index_.clear();
  pages_.clear();
  ++gen_;
  ++stats_.flushes;
}

}  // namespace asc::vm
