// Differential tests for the execution engines: the predecoded threaded-code
// engine (vm/engine.cpp) must be byte-identical to the reference
// decode-and-switch interpreter (vm/cpu.cpp) in every architecturally
// visible way -- final registers-derived results, stdout, modeled cycles,
// instruction/syscall counts, violations, cycle-limit behavior -- across
// superinstruction fusion on/off and across AES backends (scratch oracle vs
// AES-NI when the host has it). The threaded engine keeps the cycle and
// instruction counters in locals and writes them back around every call
// that reads or charges them: GuestFaultsMatchReference pins the fault
// path, WatchedStoresAndSyscallResumeMatchReference the watched stores and
// the syscall resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "os/tiertable.h"
#include "policy/policy.h"
#include "tasm/assembler.h"
#include "util/error.h"
#include "vm/cpu.h"
#include "workloads.h"

namespace asc {
namespace {

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R4;
using apps::R5;
using apps::R11;
using apps::R12;
using apps::R13;
using apps::R14;

/// Restores the process-wide AES backend policy on scope exit.
class BackendPolicyGuard {
 public:
  explicit BackendPolicyGuard(crypto::Aes128::BackendPolicy policy)
      : saved_(crypto::Aes128::backend_policy()) {
    crypto::Aes128::set_backend_policy(policy);
  }
  ~BackendPolicyGuard() { crypto::Aes128::set_backend_policy(saved_); }
  BackendPolicyGuard(const BackendPolicyGuard&) = delete;
  BackendPolicyGuard& operator=(const BackendPolicyGuard&) = delete;

 private:
  crypto::Aes128::BackendPolicy saved_;
};

/// The architecturally visible outcome of a run; everything here must match
/// across dispatch modes and AES backends.
struct Outcome {
  bool completed = false;
  int exit_code = 0;
  os::Violation violation = os::Violation::None;
  std::string violation_detail;
  std::string stdout_data;
  std::string stderr_data;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t syscalls = 0;
  bool cycle_limit_hit = false;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const vm::RunResult& r) {
  return Outcome{r.completed,    r.exit_code, r.violation,     r.violation_detail,
                 r.stdout_data,  r.stderr_data, r.cycles,      r.instructions,
                 r.syscalls,     r.cycle_limit_hit};
}

struct EngineConfig {
  const char* name;
  vm::DispatchMode dispatch;
  bool fuse;
  crypto::Aes128::BackendPolicy aes;
};

std::vector<EngineConfig> engine_configs() {
  using crypto::Aes128;
  std::vector<EngineConfig> cfgs = {
      {"switch/scratch", vm::DispatchMode::Switch, true, Aes128::BackendPolicy::ForceScratch},
      {"threaded+fuse/scratch", vm::DispatchMode::Threaded, true,
       Aes128::BackendPolicy::ForceScratch},
      {"threaded-nofuse/scratch", vm::DispatchMode::Threaded, false,
       Aes128::BackendPolicy::ForceScratch},
  };
  if (Aes128::aesni_supported()) {
    cfgs.push_back({"switch/aesni", vm::DispatchMode::Switch, true, Aes128::BackendPolicy::Auto});
    cfgs.push_back(
        {"threaded+fuse/aesni", vm::DispatchMode::Threaded, true, Aes128::BackendPolicy::Auto});
  }
  return cfgs;
}

/// Generate a seeded random-but-terminating guest program. The body is a
/// bounded loop of straight-line segments with forward conditional branches,
/// balanced push/pop pairs, loads/stores into a scratch buffer, helper
/// calls, and deliberately adjacent fusible pairs (cmp+jcc, load+addi,
/// push+call). The epilogue folds every live register and a few buffer
/// words into a checksum and prints it, so any divergence in any register,
/// flag, or memory byte shows up in stdout and the exit code.
binary::Image random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](std::uint32_t bound) { return static_cast<std::uint32_t>(rng() % bound); };
  const std::vector<isa::Reg> pool = {R0, R1, R2, R3, R11, R12, R13, R14};
  auto reg = [&] { return pool[pick(static_cast<std::uint32_t>(pool.size()))]; };

  tasm::Assembler a("diff");

  a.func("mix");  // r0 = hash-mix of r1 (clobbers r0 only)
  a.mov(R0, R1);
  a.muli(R0, 2654435761u);
  a.xori(R0, 0x9e3779b9u);
  a.ret();

  a.func("main");
  a.lea(R4, "buf");
  a.movi(R5, 2 + pick(4));  // outer loop trip count
  for (const isa::Reg r : pool) a.movi(r, rng());

  int label_id = 0;
  a.label(".loop");
  const int segments = 3 + static_cast<int>(pick(4));
  for (int seg = 0; seg < segments; ++seg) {
    const int ops = 4 + static_cast<int>(pick(9));
    for (int i = 0; i < ops; ++i) {
      const isa::Reg rd = reg();
      const isa::Reg rs = reg();
      switch (pick(16)) {
        case 0: a.movi(rd, rng()); break;
        case 1: a.mov(rd, rs); break;
        case 2: a.add(rd, rs); break;
        case 3: a.sub(rd, rs); break;
        case 4: a.mul(rd, rs); break;
        case 5: a.xor_(rd, rs); break;
        case 6: a.and_(rd, rs); break;
        case 7: a.or_(rd, rs); break;
        case 8: a.addi(rd, rng()); break;
        case 9: a.xori(rd, rng()); break;
        case 10: a.shli(rd, pick(32)); break;
        case 11: a.shri(rd, pick(32)); break;
        case 12: a.not_(rd); break;
        case 13: a.neg(rd); break;
        case 14:  // guarded signed division: divisor forced into 1..255
          a.andi(rs, 0xff);
          a.ori(rs, 1);
          if (pick(2) == 0) {
            a.div(rd, rs);
          } else {
            a.mod(rd, rs);
          }
          break;
        case 15:  // memory traffic against the scratch buffer
          if (pick(2) == 0) {
            a.store(R4, 4 * pick(64), rd);
          } else {
            a.load(rd, R4, 4 * pick(64));
          }
          break;
      }
    }
    // Deliberately fusible adjacencies, one flavor per segment.
    const isa::Reg rf = reg();
    switch (seg % 3) {
      case 0:  // load+addi (LoadAddi) then load+cmpi (LoadCmpi)
        a.load(rf, R4, 4 * pick(64));
        a.addi(rf, rng());
        a.load(rf, R4, 4 * pick(64));
        a.cmpi(rf, rng());
        break;
      case 1:  // push+call (PushCall), result folded, stack rebalanced
        a.mov(R1, rf);
        a.push(R11);
        a.call("mix");
        a.pop(R11);
        a.xor_(R11, R0);
        a.cmp(R11, R12);
        break;
      default:  // storeb/loadb byte traffic then cmp
        a.storeb(R4, pick(256), rf);
        a.loadb(rf, R4, pick(256));
        a.cmp(rf, R13);
        break;
    }
    // Forward conditional branch over a tail of the segment (cmp+jcc fuses).
    const std::string skip = ".skip" + std::to_string(label_id++);
    switch (pick(6)) {
      case 0: a.jz(skip); break;
      case 1: a.jnz(skip); break;
      case 2: a.jlt(skip); break;
      case 3: a.jle(skip); break;
      case 4: a.jgt(skip); break;
      default: a.jge(skip); break;
    }
    a.addi(reg(), rng());
    a.xor_(reg(), reg());
    a.label(skip);
  }
  a.subi(R5, 1);
  a.cmpi(R5, 0);
  a.jnz(".loop");

  // Epilogue: fold every pool register and a few buffer words into r11,
  // print the checksum, and exit with its low bits.
  a.mov(R11, R0);
  for (const isa::Reg r : {R1, R2, R3, R12, R13, R14}) a.xor_(R11, r);
  for (int i = 0; i < 4; ++i) {
    a.load(R2, R4, 4 * pick(64));
    a.xor_(R11, R2);
  }
  a.mov(R1, R11);
  a.call("print_num");
  a.mov(R0, R11);
  a.andi(R0, 127);
  a.ret();

  a.bss("buf", 1024);
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

/// Run an image under one engine configuration, monitored (Asc enforcement)
/// so every syscall exercises the checker's batched MAC verification.
vm::RunResult run_monitored(const binary::Image& image, const EngineConfig& cfg) {
  BackendPolicyGuard aes(cfg.aes);
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Asc);
  sys.machine().set_dispatch(cfg.dispatch);
  sys.machine().set_superinstructions(cfg.fuse);
  const auto inst = sys.install(image);
  return sys.machine().run(inst.image);
}

/// Run an image unmonitored under one engine configuration.
vm::RunResult run_plain(const binary::Image& image, const EngineConfig& cfg,
                        std::uint64_t cycle_limit = 0) {
  BackendPolicyGuard aes(cfg.aes);
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  sys.machine().set_dispatch(cfg.dispatch);
  sys.machine().set_superinstructions(cfg.fuse);
  if (cycle_limit != 0) sys.machine().set_cycle_limit(cycle_limit);
  return sys.machine().run(image);
}

TEST(EngineDifferential, RandomProgramsAgreeAcrossEnginesAndBackends) {
  const auto cfgs = engine_configs();
  for (std::uint32_t seed = 1; seed <= 16; ++seed) {
    const binary::Image image = random_program(seed);
    const vm::RunResult ref = run_monitored(image, cfgs[0]);
    const Outcome want = outcome_of(ref);
    // The random programs must actually run and do syscalls, or the test
    // proves nothing.
    ASSERT_GT(ref.instructions, 100u) << "seed " << seed;
    ASSERT_GT(ref.syscalls, 0u) << "seed " << seed;
    for (std::size_t c = 1; c < cfgs.size(); ++c) {
      const vm::RunResult got = run_monitored(image, cfgs[c]);
      EXPECT_EQ(outcome_of(got), want) << "seed " << seed << " config " << cfgs[c].name;
      if (cfgs[c].dispatch == vm::DispatchMode::Threaded) {
        EXPECT_GT(got.predecode.blocks, 0u) << "seed " << seed << " config " << cfgs[c].name;
        if (cfgs[c].fuse) {
          EXPECT_GT(got.predecode.superinstructions, 0u)
              << "seed " << seed << " config " << cfgs[c].name;
        } else {
          EXPECT_EQ(got.predecode.superinstructions, 0u)
              << "seed " << seed << " config " << cfgs[c].name;
        }
      }
    }
  }
}

TEST(EngineDifferential, CycleLimitStopsAtIdenticalPoints) {
  // A tight fused loop (cmpi+jnz) plus a syscall-bearing epilogue; sweeping
  // the cycle limit across small values walks the stop point through every
  // engine path: block entry, fused second half, and syscall re-lookup.
  tasm::Assembler a("limit");
  a.func("main");
  a.movi(R11, 1000000);
  a.label(".spin");
  a.subi(R11, 1);
  a.cmpi(R11, 0);
  a.jnz(".spin");
  a.movi(R0, 0);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  const auto cfgs = engine_configs();
  for (std::uint64_t limit = 1; limit <= 64; ++limit) {
    const Outcome want = outcome_of(run_plain(image, cfgs[0], limit));
    for (std::size_t c = 1; c < cfgs.size(); ++c) {
      EXPECT_EQ(outcome_of(run_plain(image, cfgs[c], limit)), want)
          << "limit " << limit << " config " << cfgs[c].name;
    }
  }
}

TEST(EngineDifferential, HaltExitCodeMatchesReference) {
  tasm::Assembler a("halt");
  a.func("main");
  a.movi(R11, 7);
  a.halt();
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  const auto cfgs = engine_configs();
  const Outcome want = outcome_of(run_plain(image, cfgs[0]));
  EXPECT_EQ(want.exit_code, vm::Cpu::kHaltExitCode);
  EXPECT_EQ(want.exit_code, 134);  // 128 + SIGABRT, the documented convention
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    EXPECT_EQ(outcome_of(run_plain(image, cfgs[c])), want) << cfgs[c].name;
  }
}

TEST(EngineDifferential, GuestFaultsMatchReference) {
  // Divide by zero, mid-program: the faulting pc and all counters must
  // agree, and the fault must surface as the same violation_detail.
  tasm::Assembler a("fault");
  a.func("main");
  a.movi(R11, 5);
  a.movi(R12, 0);
  a.div(R11, R12);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  const auto cfgs = engine_configs();
  const Outcome want = outcome_of(run_plain(image, cfgs[0]));
  EXPECT_FALSE(want.completed);
  EXPECT_NE(want.violation_detail.find("division by zero"), std::string::npos);
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    EXPECT_EQ(outcome_of(run_plain(image, cfgs[c])), want) << cfgs[c].name;
  }
}

TEST(EngineDifferential, OutOfRangeJumpFaultsIdentically) {
  tasm::Assembler a("oor");
  a.func("main");
  a.movi(R11, 0x7ff0000);
  a.jmpr(R11);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  const auto cfgs = engine_configs();
  const Outcome want = outcome_of(run_plain(image, cfgs[0]));
  EXPECT_FALSE(want.completed);
  EXPECT_NE(want.violation_detail.find("pc out of range"), std::string::npos);
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    EXPECT_EQ(outcome_of(run_plain(image, cfgs[c])), want) << cfgs[c].name;
  }
}

TEST(EngineDifferential, UndecodableBytesThrowInBothEngines) {
  // Jumping into a byte stream with an invalid opcode raises DecodeError in
  // the reference interpreter (NOT a GuestFault -- it escapes run()); the
  // threaded engine's Slow micro-op must reproduce that exactly.
  tasm::Assembler a("junk");
  a.func("main");
  a.lea(R11, "garbage");
  a.jmpr(R11);
  a.ret();
  a.data_bytes("garbage", {0xff, 0xff, 0xff, 0xff});
  apps::emit_libc(a, os::Personality::LinuxSim);
  const binary::Image image = a.link();

  for (const auto& cfg : engine_configs()) {
    EXPECT_THROW((void)run_plain(image, cfg), DecodeError) << cfg.name;
  }
}

// ---------------------------------------------------------------------------
// Self-modifying code: the predecode cache must observe writes into the
// executed region (via the Memory exec-watch spine) and rebuild, with
// results byte-identical to the reference interpreter, which re-decodes
// every step and so is trivially correct under self-modification.

binary::Image self_modifying_program() {
  // "fn" in the writable data section: movi r0, 42; ret -- RI encoding is
  // [op][rd][imm32 LE] (isa/decode.cpp), so the immediate's low byte is at
  // fn+2. main calls it, patches the immediate in a loop, and accumulates
  // the returned values; the sum proves every patched version executed.
  tasm::Assembler a("smc");
  a.func("main");
  a.lea(R4, "fn");
  a.callr(R4);       // r0 = 42 (pristine)
  a.mov(R11, R0);    // accumulator
  a.movi(R12, 1);    // patch value, 1..5
  a.label(".again");
  a.storeb(R4, 2, R12);  // fn immediate low byte = r12
  a.callr(R4);           // r0 = r12
  a.add(R11, R0);
  a.addi(R12, 1);
  a.cmpi(R12, 6);
  a.jlt(".again");
  a.mov(R0, R11);  // 42 + 1+2+3+4+5 = 57
  a.ret();
  a.data_bytes("fn", {0x10, 0x00, 42, 0x00, 0x00, 0x00, 0x52});
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

TEST(EngineDifferential, SelfModifyingCodeInvalidatesPredecode) {
  const binary::Image image = self_modifying_program();
  const auto cfgs = engine_configs();
  const vm::RunResult ref = run_plain(image, cfgs[0]);
  const Outcome want = outcome_of(ref);
  EXPECT_TRUE(want.completed);
  EXPECT_EQ(want.exit_code, 57);
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    const vm::RunResult got = run_plain(image, cfgs[c]);
    EXPECT_EQ(outcome_of(got), want) << cfgs[c].name;
    if (cfgs[c].dispatch == vm::DispatchMode::Threaded) {
      // Each of the five patches after the first execution must have
      // knocked out the predecoded block for "fn".
      EXPECT_GE(got.predecode.invalidations, 5u) << cfgs[c].name;
      EXPECT_GT(got.predecode.exec_writes, 0u) << cfgs[c].name;
    }
  }
}

TEST(EngineDifferential, SelfModifyingCodeUnderEnforcement) {
  // The same program, installed and monitored: predecode invalidation must
  // compose with the checker/tier machinery without perturbing modeled
  // cycles or demote behavior.
  const binary::Image image = self_modifying_program();
  const auto cfgs = engine_configs();
  const Outcome want = outcome_of(run_monitored(image, cfgs[0]));
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    EXPECT_EQ(outcome_of(run_monitored(image, cfgs[c])), want) << cfgs[c].name;
  }
}

// ---------------------------------------------------------------------------
// Guest stores into the trap pipeline's own watched bytes, under the
// verified-call cache and the policy-state shadow. A watch callback runs
// inside the store and may charge cycles (a dirty shadow's write-back MACs
// the state record), and a syscall that rewrites predecoded code must sever
// the links the engine resumes through.

/// `fn` (in writable data) is `movi r0, k; ret`: the RI encoding
/// [op][rd][imm32 LE] followed by RET (see self_modifying_program).
std::vector<std::uint8_t> movi_r0_ret(std::uint8_t k) {
  return {0x10, 0x00, k, 0x00, 0x00, 0x00, 0x52};
}

constexpr std::uint8_t kPatches = 3;

/// main calls getpid from one site in a loop; once the site is Cached and
/// the shadow dirty, it
///   (a) stores over its own dirty shadowed state record: lastBlock := r7,
///       the block id of the last call, so the record stays the one the
///       write-back materializes and the run goes on;
///   (b) stores a call-MAC word of the site back over itself: the cached
///       record drops and the next call there re-verifies.
/// Then (c) it calls fn, read()s each variant of /fn.bin over fn and calls
/// it again through the links the syscall resumed on, and repeats (a).
/// Exit code: 42 + 1 + ... + kPatches.
binary::Image watched_store_program() {
  constexpr isa::Reg kBlockId = isa::kRegBlockId;
  constexpr isa::Reg kStatePtr = isa::kRegStatePtr;
  constexpr isa::Reg kCallMac = isa::kRegCallMac;
  tasm::Assembler a("watched");
  a.func("main");
  a.lea(R1, "fn_file");
  a.movi(R2, apps::O_RDONLY);
  a.movi(R3, 0);
  a.call("open_or_die");
  a.mov(R14, R0);  // fd
  a.lea(R13, "fn");

  a.movi(R5, 8);
  a.label(".getpid");
  a.call("sys_getpid");
  a.cmpi(R5, 5);
  a.jnz(".not_a");
  a.store(kStatePtr, 0, kBlockId);  // (a)
  a.label(".not_a");
  a.cmpi(R5, 3);
  a.jnz(".not_b");
  a.load(R12, kCallMac, 0);  // (b)
  a.store(kCallMac, 0, R12);
  a.label(".not_b");
  a.subi(R5, 1);
  a.cmpi(R5, 0);
  a.jnz(".getpid");

  a.callr(R13);  // (c): r0 = 42, and fn is predecoded
  a.mov(R12, R0);
  a.movi(R5, kPatches);
  a.label(".patch");
  a.mov(R1, R14);
  a.mov(R2, R13);
  a.movi(R3, 7);
  a.call("sys_read");
  a.callr(R13);
  a.add(R12, R0);
  a.subi(R5, 1);
  a.cmpi(R5, 0);
  a.jnz(".patch");

  a.store(kStatePtr, 0, kBlockId);  // (a) again, after the reads
  a.call("sys_getpid");
  a.mov(R0, R12);
  a.ret();
  a.rodata_cstr("fn_file", "/fn.bin");
  a.data_bytes("fn", movi_r0_ret(42));
  apps::emit_libc(a, os::Personality::LinuxSim);
  return a.link();
}

/// What the kernel and the guest looked like when one trap began.
struct TrapState {
  std::uint32_t call_site = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::array<std::uint32_t, isa::kNumRegs> regs{};
  std::vector<std::uint8_t> state_record;
  os::Tier tier = os::Tier::Eager;  // what the site's record could serve

  bool operator==(const TrapState&) const = default;
};

/// True iff some trap found its site at tier `now` after an earlier trap at
/// the same site had found it at `before`.
bool fell(const std::vector<TrapState>& traps, os::Tier before, os::Tier now) {
  for (std::size_t j = 0; j < traps.size(); ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      if (traps[k].call_site == traps[j].call_site && traps[k].tier == before &&
          traps[j].tier == now) {
        return true;
      }
    }
  }
  return false;
}

struct WatchedRun {
  Outcome outcome;
  std::vector<TrapState> traps;
  std::vector<std::string> audit;
  os::TierStats tiers;
  vm::PredecodeStats predecode;
};

WatchedRun run_watched(const binary::Image& image, const EngineConfig& cfg) {
  BackendPolicyGuard aes(cfg.aes);
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Asc);
  sys.machine().set_dispatch(cfg.dispatch);
  sys.machine().set_superinstructions(cfg.fuse);
  sys.kernel().set_verified_call_cache(true);
  sys.kernel().set_policy_shadow(true);
  sys.kernel().set_inline_tier(false);
  std::vector<std::uint8_t> variants;
  for (std::uint8_t k = 1; k <= kPatches; ++k) {
    const auto v = movi_r0_ret(k);
    variants.insert(variants.end(), v.begin(), v.end());
  }
  os::SimFs& fs = sys.kernel().fs();
  const auto ino =
      fs.open("/", "/fn.bin", os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0, variants, false);
  const auto inst = sys.install(image);

  WatchedRun run;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t call_site) {
    TrapState t{call_site, p.cycles, p.instr_count, p.cpu.regs, {},
                sys.kernel().tier_table().tier(p.pid, call_site)};
    const std::uint32_t lb = p.cpu.regs[isa::kRegStatePtr];
    if (p.mem.in_range(lb, policy::kPolicyStateSize)) {
      t.state_record = p.mem.read_bytes(lb, policy::kPolicyStateSize);
    }
    run.traps.push_back(std::move(t));
  });
  const vm::RunResult r = sys.machine().run(inst.image);
  run.outcome = outcome_of(r);
  for (const auto& rec : sys.kernel().audit_log()) run.audit.push_back(rec.to_string());
  run.tiers = sys.kernel().tier_stats();
  run.predecode = r.predecode;
  return run;
}

TEST(EngineDifferential, WatchedStoresAndSyscallResumeMatchReference) {
  const binary::Image image = watched_store_program();
  const auto cfgs = engine_configs();
  const WatchedRun want = run_watched(image, cfgs[0]);
  ASSERT_TRUE(want.outcome.completed) << want.outcome.violation_detail;
  EXPECT_EQ(want.outcome.exit_code, 42 + kPatches * (kPatches + 1) / 2);
  // The guest actions hit what they aim at: the stores over the dirty state
  // record forced write-backs and dropped the shadow, the store over the
  // call MAC dropped the cached site, and the other calls were served by
  // the cache and the shadow.
  EXPECT_GE(want.tiers.write_backs, 2u);
  EXPECT_TRUE(fell(want.traps, os::Tier::Shadowed, os::Tier::Cached));
  EXPECT_TRUE(fell(want.traps, os::Tier::Shadowed, os::Tier::Eager));
  EXPECT_GT(want.tiers.cached, 0u);
  EXPECT_GT(want.tiers.shadowed, 0u);
  for (std::size_t c = 1; c < cfgs.size(); ++c) {
    const WatchedRun got = run_watched(image, cfgs[c]);
    EXPECT_EQ(got.outcome, want.outcome) << cfgs[c].name;
    EXPECT_EQ(got.traps, want.traps) << cfgs[c].name;
    EXPECT_EQ(got.audit, want.audit) << cfgs[c].name;
    EXPECT_EQ(got.tiers.write_backs, want.tiers.write_backs) << cfgs[c].name;
    EXPECT_EQ(got.tiers.cached, want.tiers.cached) << cfgs[c].name;
    EXPECT_EQ(got.tiers.shadowed, want.tiers.shadowed) << cfgs[c].name;
    EXPECT_EQ(got.tiers.cache_misses, want.tiers.cache_misses) << cfgs[c].name;
    EXPECT_EQ(got.tiers.demotions, want.tiers.demotions) << cfgs[c].name;
    if (cfgs[c].dispatch == vm::DispatchMode::Threaded) {
      // Every read() rewrote predecoded code.
      EXPECT_GE(got.predecode.invalidations, kPatches) << cfgs[c].name;
    }
  }
}

}  // namespace
}  // namespace asc
