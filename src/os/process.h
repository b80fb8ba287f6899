// Simulated process: CPU state, address space, file descriptors, and the
// per-process monitoring state (the ASC nonce counter of §3.2).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "binary/image.h"
#include "isa/isa.h"
#include "vm/memory.h"
#include "vm/predecode.h"

namespace asc::os {

struct CpuState {
  std::array<std::uint32_t, isa::kNumRegs> regs{};
  std::uint32_t pc = 0;
  bool zf = false;  // last compare: equal
  bool nf = false;  // last compare: signed less-than
};

struct FdEntry {
  enum class Kind : std::uint8_t { Closed, Stdin, Stdout, Stderr, File, Socket, Pipe };
  Kind kind = Kind::Closed;
  std::uint32_t inode = 0;   // File
  std::uint32_t offset = 0;  // File
  std::uint32_t flags = 0;   // open() flags
  // Which call site (composed block id) produced this descriptor -- the
  // kernel-side record backing capability-tracking policies (§5.3).
  std::uint32_t origin_block = 0;
};

/// Why a process was terminated by the monitor.
enum class Violation : std::uint8_t {
  None,
  UnknownSyscall,    // number not in the personality's table
  BadCallMac,        // encoded call does not match the call MAC (§3.4 step 1)
  BadStringArg,      // authenticated string content MAC mismatch (step 2)
  BadPolicyState,    // lastBlock/lbMAC tampered or replayed (step 3.1)
  BadPredecessor,    // control-flow policy violated (step 3.2)
  BadCapability,     // fd not from an allowed source site (§5.3)
  BadPattern,        // pattern match proof failed (§5.1)
  MonitorDenied,     // baseline monitor (daemon / kernel table) denied
  GuestFaulted,      // memory fault etc. while the kernel examined the call
};

std::string violation_name(Violation v);

struct Process {
  int pid = 1;
  std::string name;
  std::string cwd = "/";
  std::vector<FdEntry> fds;
  std::uint32_t brk_end = binary::kHeapBase;
  std::uint32_t mmap_cursor = binary::kStackTop - (1u << 20);  // mmap area below stack guard
  std::uint32_t umask = 022;

  // ASC monitoring state. The nonce is the kernel-trusted half of the §3.2
  // online memory checker; when the policy-state shadow (os/tiertable.h) is
  // live for this pid, the shadow mirrors it and the {lastBlock, lbMAC}
  // record in this process's memory lags behind until write-back.
  std::uint64_t asc_counter = 0;  // kernel-side nonce for the memory checker
  std::uint16_t program_id = 0;
  bool authenticated_image = false;
  // Violations audited against this process (drives Budgeted failure mode).
  std::uint32_t violation_count = 0;

  CpuState cpu;
  vm::Memory mem;
  // Predecoded-code mirror of `mem` for the threaded engine (vm/engine.cpp);
  // unused (empty) when the Machine runs the switch interpreter.
  vm::PredecodeCache predecode;

  // Run status.
  bool running = true;
  int exit_code = 0;
  Violation violation = Violation::None;
  std::string violation_detail;

  // Standard streams.
  std::vector<std::uint8_t> stdin_data;
  std::size_t stdin_pos = 0;
  std::string stdout_data;
  std::string stderr_data;

  // Accounting.
  std::uint64_t cycles = 0;
  std::uint64_t syscall_count = 0;
  std::uint64_t instr_count = 0;

  Process();

  /// Allocate the lowest free descriptor slot.
  std::int32_t alloc_fd();
  /// Valid live descriptor or nullptr.
  FdEntry* fd(std::uint32_t n);
};

}  // namespace asc::os
