// Predecoded threaded-code streams for the TSA interpreter.
//
// The switch interpreter (vm/cpu.cpp) pays a full fetch + bounds check +
// variable-length decode for every retired instruction. The threaded engine
// (vm/engine.cpp) instead predecodes each basic block ONCE into a stream of
// fixed-size micro-ops -- operands extracted, modeled cycle cost snapshotted,
// dominant two-instruction patterns fused into superinstructions -- and then
// dispatches straight over that stream. The PredecodeCache below owns the
// per-process block store, the lazy block builder, and the self-modifying-code
// invalidation that keeps predecoded spans coherent with guest memory.
//
// Invalidation rides the same notify_write() spine as the tier lattice's
// refcounted data watches, but through a SEPARATE exec-watch channel
// (vm/memory.h): the lattice's WatchStats are a bookkeeping-balance surface
// audited by the chaos oracles, so the engine must not perturb the
// registered/released ledger. A write overlapping a predecoded span marks the
// overlapped blocks invalid BEFORE the bytes change; the engine then demotes
// that span to a fresh decode, exactly as the switch interpreter re-decodes
// every instruction from current bytes.
//
// Contract: the engine is architecturally invisible. Modeled cycles,
// instruction counts, fault behavior, audit traces, and final guest state are
// byte-identical to the switch interpreter at every dispatch setting; only
// host wall-clock changes. The per-op `cost` fields snapshot the kernel's
// CostModel at decode time -- the model is fixed for the duration of a run
// (mutable_cost() is a between-runs tuning surface), and each run starts with
// a fresh per-process cache.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.h"
#include "vm/memory.h"

namespace asc::os {
struct CostModel;
}  // namespace asc::os

namespace asc::vm {

/// Micro-op opcodes: one per TSA instruction plus the fused superinstructions
/// and the Slow fallback. Keep the numbering dense -- the engine indexes a
/// computed-goto table with it.
enum class UOp : std::uint8_t {
  Nop,
  Halt,
  Syscall,
  Movi,
  Lea,
  Mov,
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Addi,
  Subi,
  Muli,
  Andi,
  Ori,
  Xori,
  Shli,
  Shri,
  Not,
  Neg,
  Cmp,
  Cmpi,
  Load,
  Store,
  Loadb,
  Storeb,
  Push,
  Pop,
  Call,
  Callr,
  Ret,
  Jmp,
  Jmpr,
  Jz,
  Jnz,
  Jlt,
  Jle,
  Jgt,
  Jge,
  // ---- superinstructions (dominant decode pairs) ----
  CmpJcc,        // cmp rd, rs ; j<cc> imm2
  CmpiJcc,       // cmpi rd, imm ; j<cc> imm2
  MoviSyscall,   // movi rd, imm ; syscall
  LoadCmpi,      // load rd, [rs+imm] ; cmpi rd, imm2
  LoadAddi,      // load rd, [rs+imm] ; addi rd, imm2
  LoadSubi,      // load rd, [rs+imm] ; subi rd, imm2
  PushCall,      // push rd ; call imm2
  // ---- engine-internal (no architectural effect, zero cost) ----
  Chain,         // block hit the size cap: continue decoding at `pc`
  Slow,          // undecodable here: replay one Cpu::step for exact faults
  kCount,
};

inline constexpr std::size_t kNumUOps = static_cast<std::size_t>(UOp::kCount);

/// Condition codes for the fused compare-and-branch pair, in Jz..Jge order.
enum class Cc : std::uint8_t { Z, Nz, Lt, Le, Gt, Ge };

/// One predecoded micro-op. Fused pairs carry both halves' operands and
/// costs; `mid_pc` is the address of the second half (== next_pc when
/// unfused), so the engine can resume at the exact architectural boundary
/// if the cycle limit lands between the halves or the first half
/// invalidates its own block.
struct MicroOp {
  UOp uop = UOp::Nop;
  isa::Reg rd = 0;
  isa::Reg rs = 0;
  std::uint8_t aux = 0;       // Cc of the fused branch (CmpJcc/CmpiJcc)
  std::uint32_t imm = 0;      // first-half immediate / offset / target
  std::uint32_t imm2 = 0;     // second-half immediate / branch or call target
  std::uint32_t pc = 0;       // address of this (pair's first) instruction
  std::uint32_t mid_pc = 0;   // address after the first half
  std::uint32_t next_pc = 0;  // address after the whole micro-op
  std::uint64_t cost = 0;     // modeled cycles of the first half
  std::uint64_t cost2 = 0;    // modeled cycles of the second half (fused only)
};

/// A predecoded basic block: the micro-ops for the straight-line span
/// [start, end), entered only at `start`. Blocks keyed by entry address may
/// overlap byte-wise (jumps into the middle of another block's span simply
/// decode their own block) -- variable-length encodings make overlapping
/// decodings independent, so no dedup is needed for correctness.
struct PredecodedBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  bool valid = false;
  std::vector<MicroOp> ops;

  /// Two-entry inline cache of successor blocks, validated against the
  /// cache generation so invalidations (which bump the generation) sever
  /// every link at once without walking the link graph. An empty link has
  /// gen 0, which no live generation equals.
  struct Link {
    std::uint32_t pc = 0;
    PredecodedBlock* block = nullptr;
    std::uint64_t gen = 0;
  };
  std::array<Link, 2> links{};
  std::uint8_t link_rr = 0;  // round-robin victim selector
};

/// Counters for one run of the threaded engine (surfaced via RunResult and
/// `asctool run --stats`). All zeros under the switch interpreter.
struct PredecodeStats {
  std::uint64_t blocks = 0;           // blocks decoded (incl. rebuilds)
  std::uint64_t uops = 0;             // micro-ops emitted
  std::uint64_t superinstructions = 0;  // fused pairs among them
  std::uint64_t invalidations = 0;    // blocks demoted by guest writes
  std::uint64_t exec_writes = 0;      // writes that hit the exec envelope
  std::uint64_t flushes = 0;          // whole-cache resets (size valve)
};

/// Per-process store of predecoded blocks with lazy building and
/// write-watch-driven invalidation. Owned by os::Process; one cache per
/// address space, alive exactly as long as the bytes it mirrors.
class PredecodeCache {
 public:
  /// Superinstruction fusion toggle (set by the Machine before each run;
  /// flushes the cache when the setting changes so stale fused streams
  /// cannot linger).
  void set_fusion(bool on);
  bool fusion() const { return fuse_; }

  /// Install the exec-watch callback into `mem` (idempotent). Must be
  /// called before the first lookup of a run.
  void attach(Memory& mem);

  /// The valid block entered at `pc`, building it if needed (non-const
  /// Memory: building grows the exec-watch envelope). Never returns an
  /// invalid block. Undecodable entry points yield a single Slow op.
  PredecodedBlock& lookup(std::uint32_t pc, Memory& mem, const os::CostModel& cost);

  /// Successor dispatch: consult `from`'s inline link cache, falling back
  /// to (and refilling from) a full lookup. The hit is inline: the engine
  /// takes it on every branch, call, return and syscall.
  PredecodedBlock& next_block(PredecodedBlock& from, std::uint32_t pc, Memory& mem,
                              const os::CostModel& cost) {
    for (const auto& l : from.links)
      if (l.gen == gen_ && l.pc == pc) return *l.block;
    return link_miss(from, pc, mem, cost);
  }

  const PredecodeStats& stats() const { return stats_; }

  /// Test hook: number of live (valid) blocks currently indexed.
  std::size_t indexed_blocks() const { return index_.size(); }

 private:
  PredecodedBlock& link_miss(PredecodedBlock& from, std::uint32_t pc, Memory& mem,
                             const os::CostModel& cost);
  PredecodedBlock& build(std::uint32_t pc, Memory& mem, const os::CostModel& cost);
  void on_exec_write(std::uint32_t addr, std::uint32_t len);
  void flush();
  static std::uint32_t page_of(std::uint32_t addr) { return addr >> 12; }

  bool fuse_ = true;
  std::uint64_t gen_ = 1;  // bumped on every invalidation/flush; severs links
  std::vector<std::unique_ptr<PredecodedBlock>> blocks_;
  std::unordered_map<std::uint32_t, PredecodedBlock*> index_;        // entry pc -> block
  std::unordered_map<std::uint32_t, std::vector<PredecodedBlock*>> pages_;  // 4K page -> blocks
  PredecodeStats stats_;
};

}  // namespace asc::vm
