// System call site identification and argument classification (§4.1).
//
// After stub inlining, every SYSCALL instruction in a non-opaque function is
// a distinct call site. For each site the analysis determines:
//   * the system call number (the reaching definition of r0 must be a single
//     constant -- this is the "int 0x80 with the number in EAX" pattern),
//   * the classification of each argument per the paper:
//     String / Immediate / Unknown, plus the extension statistics:
//     multi-value arguments and fd arguments traced to fd-returning calls.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/disassembler.h"
#include "binary/image.h"
#include "os/syscalls.h"

namespace asc::util {
class Executor;
}

namespace asc::analysis {

struct ArgClass {
  enum class Kind : std::uint8_t {
    Unknown,  // analysis could not predict a value
    Const,    // single known constant (paper: Immediate)
    String,   // address of a known .rodata string (paper: String)
    Multi,    // several known constants reach (Table 3 `mv`)
    FdArg,    // traced to the result(s) of fd-returning syscalls (Table 3 `fds`)
  };
  Kind kind = Kind::Unknown;
  std::uint32_t value = 0;               // Const / String (the address)
  std::string str;                       // String content
  std::vector<std::size_t> str_leas;     // String: the LEAs the rewriter retargets
  std::vector<std::uint32_t> values;     // Multi
  std::vector<std::uint32_t> fd_origin_blocks;  // FdArg: local block ids of sources
};

struct SyscallSite {
  std::size_t func = 0;
  std::size_t instr = 0;
  std::uint32_t block = 0;  // local block id
  std::uint16_t sysno = 0;
  os::SysId id = os::SysId::Exit;
  int arity = 0;
  std::array<ArgClass, os::kMaxSyscallArgs> args{};
};

struct SiteScan {
  std::vector<SyscallSite> sites;
  /// Functions that contain syscalls the analysis had to skip (opaque
  /// functions, non-constant syscall numbers). The administrator is warned:
  /// calls from these locations will NOT be authenticated.
  std::vector<std::string> warnings;
};

/// The per-function reaching-definitions + value-tracing work (the
/// installer's hottest analysis) fans out over `exec`; per-function partial
/// results are concatenated in function order, so sites and warnings come
/// back in exactly the serial order at any job count.
SiteScan find_syscall_sites(const ProgramIr& ir, const binary::Image& image, const Cfg& cfg,
                            os::Personality personality, util::Executor* exec = nullptr);

}  // namespace asc::analysis
