#include "vm/machine.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "isa/isa.h"
#include "util/error.h"
#include "vm/cpu.h"
#include "vm/engine.h"

namespace asc::vm {

DispatchMode default_dispatch_mode() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once before threads start
  const char* env = std::getenv("ASC_DISPATCH");
  if (env != nullptr && std::strcmp(env, "switch") == 0) return DispatchMode::Switch;
  return DispatchMode::Threaded;
}

Machine::Machine(os::Personality personality, os::CostModel cost)
    : kernel_(personality, cost), dispatch_(default_dispatch_mode()) {
  // Wire spawn once: the child shares the kernel (and thus the filesystem
  // and the event log) but gets its own address space and process state.
  // The parent's accounting absorbs the child's, so end-to-end workload
  // measurements (Andrew benchmark) include spawned work.
  //
  // Re-entrancy contract: this handler runs from inside the parent's trap
  // (Kernel::on_syscall -> dispatch -> sys Spawn) and re-enters the kernel
  // for every child syscall, stacking one TrapContext per nesting level.
  // Because trap state lives in those stack-local contexts -- never in
  // kernel members -- the parent's in-flight trap (sysno, call site, args)
  // is intact when the child returns, and post-spawn audit records cite the
  // parent's own call. Tested by TrapPipelineSpawn.
  kernel_.set_spawn_handler([this](os::Process& parent, const std::string& path,
                                   const std::vector<std::string>& args) -> std::int64_t {
    const binary::Image* img = find_program(path);
    if (img == nullptr) return os::SimFs::kErrNoEnt;
    RunResult child = run_internal(*img, args, "", spawn_depth_ + 1);
    parent.cycles += child.cycles;
    parent.syscall_count += child.syscalls;
    parent.stdout_data += child.stdout_data;
    parent.stderr_data += child.stderr_data;
    if (child.violation != os::Violation::None) return -1000;  // child killed by monitor
    return child.completed ? child.exit_code : -1001;
  });
}

void Machine::register_program(const std::string& path, binary::Image image) {
  registry_[path] = std::move(image);
}

const binary::Image* Machine::find_program(const std::string& path) const {
  auto it = registry_.find(path);
  return it == registry_.end() ? nullptr : &it->second;
}

void setup_initial_stack(os::Process& p, const std::vector<std::string>& argv) {
  std::uint32_t sp = binary::kStackTop;
  std::vector<std::uint32_t> ptrs;
  for (const auto& arg : argv) {
    sp -= static_cast<std::uint32_t>(arg.size()) + 1;
    std::vector<std::uint8_t> bytes(arg.begin(), arg.end());
    bytes.push_back(0);
    p.mem.write_bytes(sp, bytes);
    ptrs.push_back(sp);
  }
  sp &= ~3u;
  // argv array (argv[argc] = 0 terminator).
  sp -= 4;
  p.mem.w32(sp, 0);
  for (auto it = ptrs.rbegin(); it != ptrs.rend(); ++it) {
    sp -= 4;
    p.mem.w32(sp, *it);
  }
  const std::uint32_t argv_addr = sp;
  p.cpu.regs[isa::kSp] = sp - 16;  // small gap below the argv block
  p.cpu.regs[1] = static_cast<std::uint32_t>(argv.size());
  p.cpu.regs[2] = argv_addr;
}

RunResult Machine::run(const binary::Image& image, const std::vector<std::string>& argv,
                       const std::string& stdin_data) {
  return run_internal(image, argv, stdin_data, 0);
}

RunResult Machine::run_path(const std::string& path, const std::vector<std::string>& argv,
                            const std::string& stdin_data) {
  const binary::Image* img = find_program(path);
  if (img == nullptr) throw Error("Machine::run_path: no program registered at " + path);
  return run_internal(*img, argv, stdin_data, 0);
}

RunResult Machine::run_internal(const binary::Image& image, const std::vector<std::string>& argv,
                                const std::string& stdin_data, int depth) {
  if (depth > 8) {
    RunResult r;
    r.violation_detail = "spawn depth limit";
    return r;
  }
  const int saved_depth = spawn_depth_;
  spawn_depth_ = depth;

  auto proc = std::make_unique<os::Process>();
  os::Process& p = *proc;
  p.pid = next_pid_++;
  p.name = image.name;
  p.program_id = image.program_id;
  p.authenticated_image = image.authenticated;
  p.mem.load_image(image);
  p.cpu.pc = image.entry;
  p.stdin_data.assign(stdin_data.begin(), stdin_data.end());
  setup_initial_stack(p, argv);

  RunResult res;
  try {
    if (dispatch_ == DispatchMode::Threaded) {
      p.predecode.set_fusion(superinstructions_);
      if (run_predecoded(p, kernel_, cycle_limit_) == EngineExit::CycleLimit) {
        res.cycle_limit_hit = true;
      }
    } else {
      while (p.running) {
        if (p.cycles > cycle_limit_) {
          res.cycle_limit_hit = true;
          break;
        }
        Cpu::step(p, kernel_);
      }
    }
    if (!res.cycle_limit_hit && p.violation == os::Violation::None &&
        p.violation_detail.empty()) {
      res.completed = true;
    }
  } catch (const GuestFault& f) {
    res.completed = false;
    res.violation_detail = std::string("guest fault: ") + f.what();
  }

  // Process teardown: the kernel must drop every verified record of this
  // pid (its address space -- the bytes the records vouch for -- dies with
  // it).
  kernel_.tier_table().end_process(p.pid);

  res.final_watch = p.mem.watch_stats();
  res.predecode = p.predecode.stats();
  // Teardown must leave zero watched ranges: a leak means an eviction path
  // (site record, shadow, or quarantine) kept a registration past the
  // process.
  assert(res.final_watch.live_ranges == 0 &&
         "process teardown left live watch ranges");

  res.exit_code = p.exit_code;
  res.violation = p.violation;
  if (res.violation_detail.empty()) res.violation_detail = p.violation_detail;
  res.stdout_data = std::move(p.stdout_data);
  res.stderr_data = std::move(p.stderr_data);
  res.cycles = p.cycles;
  res.instructions = p.instr_count;
  res.syscalls = p.syscall_count;
  spawn_depth_ = saved_depth;
  return res;
}

}  // namespace asc::vm
