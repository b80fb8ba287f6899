// Deterministic cycle cost model.
//
// The paper measures CPU cycles with the Pentium `rdtsc` instruction
// (Table 4) and wall-clock seconds with `time` (Table 6). Our substrate is an
// interpreter, so we charge *modeled* cycles instead: each TSA instruction,
// each kernel trap, each byte copied by read/write, and each AES block MACed
// by the checker has a fixed cost. The constants below are calibrated so the
// unauthenticated micro costs land near the paper's Table 4 column 2 (e.g.
// getpid ~1.1k cycles, write(4096) ~39k cycles) and the authentication delta
// lands near the paper's ~4k cycles/call. Relative shapes -- which is what a
// simulation can legitimately reproduce -- then follow.
#pragma once

#include <cstdint>

#include "isa/isa.h"
#include "os/syscalls.h"

namespace asc::os {

struct CostModel {
  // ---- CPU (charged by the VM per retired instruction) ----
  std::uint64_t alu = 1;
  std::uint64_t mul = 3;
  std::uint64_t div = 12;
  std::uint64_t mem = 2;
  std::uint64_t stack = 2;
  std::uint64_t branch = 1;
  std::uint64_t call_ret = 3;

  // ---- kernel trap ----
  // Round-trip user->kernel->user cost (mode switch, register save/restore,
  // dispatch). Table 4's getpid(), the cheapest call, is 1141 cycles on the
  // paper's hardware; ~1100 of that is this fixed cost.
  std::uint64_t trap = 1100;

  // Base handler cost per syscall (added to trap).
  std::uint64_t handler_simple = 40;     // getpid, getuid, umask...
  std::uint64_t handler_time = 290;      // gettimeofday (paper: 1395 total)
  std::uint64_t handler_brk = 55;        // brk (paper: 1155 total)
  std::uint64_t handler_fs_meta = 900;   // open/stat/unlink/... path walks
  std::uint64_t handler_fd = 250;        // close/dup/lseek/fcntl
  std::uint64_t handler_io_base = 160;   // read/write fixed part

  // Per-byte copy costs. read(4096) = 7324 total in Table 4
  // => (7324-1100-160)/4096 ~ 1.48 cyc/B; write(4096) = 39479 total
  // => (39479-1100-160)/4096 ~ 9.33 cyc/B (buffer-cache write dominates).
  double read_per_byte = 1.48;
  double write_per_byte = 9.33;

  // ---- checker (authenticated system calls) ----
  // AES-CMAC: per-message setup + per-16-byte-block cost. A typical
  // authenticated call computes 3-4 MACs over short inputs; the paper
  // reports ~4,000 cycles of total checking overhead per call. The K1/K2
  // subkey derivation (an extra AES operation plus two shifted XORs) runs
  // once per key, when Kernel::set_key builds the tenant's engine, and no
  // cycles are charged for it: the model counts per-message work only, so
  // per-message setup is correspondingly below the seed's 360-cycle figure.
  std::uint64_t mac_setup = 220;
  std::uint64_t mac_per_block = 310;
  // Argument marshalling, AS header reads, predecessor-set membership scan,
  // policy-state update bookkeeping.
  std::uint64_t check_fixed = 420;
  std::uint64_t check_per_as_arg = 90;

  // ---- verified-call cache (hot-path fast path) ----
  // A hit replaces the AES-CMAC verifications over immutable per-site bytes
  // (encoded call, call MAC, pred-set blob, static AS contents) with a table
  // lookup plus an exact byte comparison against those same bytes as seen at
  // the last full verification. The online memory checker
  // (lastBlock/lbMAC/counter) is still charged in full on every call -- it
  // is per-call nonce state and is never cached.
  std::uint64_t cache_hit_fixed = 150;
  std::uint64_t cache_cmp_per_block = 18;

  // ---- policy-state shadow (kernel-resident control-flow state) ----
  // A shadow hit replaces the §3.2 verify-MAC + re-MAC pair over the
  // {lastBlock, counter} record -- 2 x mac_cost(12) = 1060 cycles, the floor
  // under every cached call with control flow -- with one kernel map lookup
  // and an in-place update of the trusted copy. The deferred re-MAC is
  // charged as a full mac_cost at write-back time instead (os/tiertable.h).
  std::uint64_t shadow_hit_fixed = 40;

  // ---- inline tier (trap-less pre-authorized fast path) ----
  // A promoted (pid, site) skips the whole enforce->audit pipeline behind a
  // register/shadow snapshot compare: no monitor dispatch, no checker entry,
  // no audit hand-off. What remains per call is the probe itself -- a map
  // lookup plus a handful of register equality tests. The trap cost is
  // STILL charged (the simulated CPU has no trampoline to patch over the
  // SYSCALL instruction), so the Table 4 `auth_inline` column reports the
  // honest residual overhead of the probe, not a free lunch.
  std::uint64_t inline_hit_fixed = 25;

  // ---- baseline monitors (ablations) ----
  // User-space policy daemon (Systrace/Ostia style): two extra context
  // switches plus a policy table lookup in the daemon.
  std::uint64_t context_switch = 3200;
  std::uint64_t daemon_lookup = 700;
  // Fully in-kernel table monitor: hash lookup + argument compare.
  std::uint64_t ktable_lookup = 380;

  std::uint64_t instr_cost(isa::Op op) const {
    using isa::Op;
    switch (op) {
      case Op::Mul:
      case Op::Muli:
        return mul;
      case Op::Div:
      case Op::Mod:
        return div;
      case Op::Load:
      case Op::Store:
      case Op::Loadb:
      case Op::Storeb:
        return mem;
      case Op::Push:
      case Op::Pop:
        return stack;
      case Op::Call:
      case Op::Callr:
      case Op::Ret:
        return call_ret;
      case Op::Jmp:
      case Op::Jmpr:
      case Op::Jz:
      case Op::Jnz:
      case Op::Jlt:
      case Op::Jle:
      case Op::Jgt:
      case Op::Jge:
        return branch;
      default:
        return alu;
    }
  }

  std::uint64_t mac_cost(std::size_t message_len) const {
    const std::uint64_t blocks = message_len == 0 ? 1 : (message_len + 15) / 16;
    return mac_setup + mac_per_block * blocks;
  }

  /// Modeled cost of a verified-call cache hit that compared `material_len`
  /// bytes (lookup + byte compare; replaces `check_fixed` and every
  /// static-input mac_cost of the miss path).
  std::uint64_t cache_hit_cost(std::size_t material_len) const {
    const std::uint64_t blocks = material_len == 0 ? 1 : (material_len + 15) / 16;
    return cache_hit_fixed + cache_cmp_per_block * blocks;
  }

  /// Modeled cost of a policy-state shadow hit (replaces both state
  /// mac_costs of the §3.2 online memory checker on the hit path).
  std::uint64_t shadow_hit_cost() const { return shadow_hit_fixed; }

  /// Modeled cost of an inline-tier hit: the pre-authorized probe standing
  /// in for the entire enforcement pipeline (charged on top of `trap`).
  std::uint64_t inline_hit_cost() const { return inline_hit_fixed; }

  std::uint64_t handler_base_cost(SysId id) const {
    switch (id) {
      case SysId::Getpid:
      case SysId::Getuid:
      case SysId::Umask:
      case SysId::Sysconf:
      case SysId::Madvise:
      case SysId::Kill:
      case SysId::Sigaction:
      case SysId::Uname:
        return handler_simple;
      case SysId::Gettimeofday:
      case SysId::Time:
      case SysId::Nanosleep:
        return handler_time;
      case SysId::Brk:
      case SysId::Mmap:
      case SysId::Munmap:
        return handler_brk;
      case SysId::Open:
      case SysId::Stat:
      case SysId::Unlink:
      case SysId::Rename:
      case SysId::Mkdir:
      case SysId::Rmdir:
      case SysId::Chdir:
      case SysId::Chmod:
      case SysId::Access:
      case SysId::Readlink:
      case SysId::Symlink:
      case SysId::Spawn:
        return handler_fs_meta;
      case SysId::Close:
      case SysId::Dup:
      case SysId::Lseek:
      case SysId::Fcntl:
      case SysId::Fstat:
      case SysId::Fstatfs:
      case SysId::Ftruncate:
      case SysId::Ioctl:
      case SysId::Getcwd:
      case SysId::Getdirentries:
      case SysId::Pipe:
        return handler_fd;
      case SysId::Read:
      case SysId::Write:
      case SysId::Writev:
      case SysId::Sendto:
      case SysId::Recvfrom:
      case SysId::Socket:
      case SysId::Connect:
        return handler_io_base;
      default:
        return handler_simple;
    }
  }
};

}  // namespace asc::os
