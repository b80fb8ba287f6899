// Machine = kernel + program registry + process runner.
//
// The Machine is the top-level simulation object an experiment constructs:
// pick a personality and enforcement mode, register installed programs under
// paths (the "file system" of executables, enabling the spawn syscall and the
// Andrew-style multiprogram benchmark), then run programs to completion and
// inspect RunResult.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binary/image.h"
#include "os/kernel.h"
#include "os/process.h"
#include "vm/memory.h"
#include "vm/predecode.h"

namespace asc::vm {

/// How the Machine executes guest instructions. Both produce byte-identical
/// architectural results (modeled cycles, audit traces, final state); they
/// differ only in host wall-clock. See vm/engine.cpp.
enum class DispatchMode : std::uint8_t {
  Switch,    // reference decode-and-switch interpreter (vm/cpu.cpp)
  Threaded,  // predecoded threaded-code engine (vm/engine.cpp)
};

struct RunResult {
  bool completed = false;  // ran to exit() (even nonzero); false on kill/fault/limit
  int exit_code = 0;
  os::Violation violation = os::Violation::None;
  std::string violation_detail;
  std::string stdout_data;
  std::string stderr_data;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t syscalls = 0;
  bool cycle_limit_hit = false;
  /// Watch-range accounting of the process's Memory, captured AFTER kernel
  /// teardown: live_ranges/live_refs must be zero (every cache/shadow
  /// registration returned), which the chaos invariant oracles assert.
  vm::Memory::WatchStats final_watch;
  /// Predecode counters of the threaded engine (all zeros under Switch).
  vm::PredecodeStats predecode;

  bool killed_by_monitor() const { return violation != os::Violation::None; }
};

class Machine {
 public:
  explicit Machine(os::Personality personality, os::CostModel cost = {});

  os::Kernel& kernel() { return kernel_; }
  const os::Kernel& kernel() const { return kernel_; }

  /// Register an executable under a path (e.g. "/bin/gzip") for spawn() and
  /// run_path(). The image is copied.
  void register_program(const std::string& path, binary::Image image);
  const binary::Image* find_program(const std::string& path) const;

  /// Run an image to completion. Re-entrant with respect to the kernel: a
  /// guest spawn() nests another run inside the parent's trap (up to the
  /// spawn depth limit), so the trap pipeline must keep per-trap state
  /// stack-local (see os/trapcontext.h).
  RunResult run(const binary::Image& image, const std::vector<std::string>& argv = {},
                const std::string& stdin_data = {});

  /// Run a registered program.
  RunResult run_path(const std::string& path, const std::vector<std::string>& argv = {},
                     const std::string& stdin_data = {});

  void set_cycle_limit(std::uint64_t limit) { cycle_limit_ = limit; }

  /// Select the execution engine. Defaults to Threaded (override with
  /// ASC_DISPATCH=switch in the environment). Trap hooks
  /// (Kernel::set_stage_hook, PreTrap included) fire inside the kernel and
  /// leave the selected engine on.
  void set_dispatch(DispatchMode mode) { dispatch_ = mode; }
  DispatchMode dispatch() const { return dispatch_; }
  /// Superinstruction fusion toggle for the threaded engine (differential
  /// tests pit fused and unfused streams against the reference).
  void set_superinstructions(bool on) { superinstructions_ = on; }
  bool superinstructions() const { return superinstructions_; }

 private:
  RunResult run_internal(const binary::Image& image, const std::vector<std::string>& argv,
                         const std::string& stdin_data, int depth);

  os::Kernel kernel_;
  std::map<std::string, binary::Image> registry_;
  std::uint64_t cycle_limit_ = 4'000'000'000ull;
  int next_pid_ = 1;
  int spawn_depth_ = 0;
  DispatchMode dispatch_;
  bool superinstructions_ = true;
};

/// Process-wide default dispatch mode: Threaded, unless ASC_DISPATCH=switch.
DispatchMode default_dispatch_mode();

/// Set up the initial stack: argv strings + pointer array; returns
/// {argc in r1, argv pointer in r2} by mutating the process.
void setup_initial_stack(os::Process& p, const std::vector<std::string>& argv);

}  // namespace asc::vm
