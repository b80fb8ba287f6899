// The §4.3 multiprogram benchmark (Andrew-benchmark style).
//
// A series of routine tasks -- directory creation, file creation, copying,
// archiving, compression, permission changes, moves, deletions, sorting --
// executed by spawning the general-purpose tools (mkdir, cp, cat, tar,
// gzip, chmod, mv, rm, sort) on a shared filesystem. The paper reports
// ~12,000 syscalls per iteration and a 0.96% overhead for authenticated
// tool binaries (259.66s -> 262.14s). Spawn-heavy by design: every tool
// invocation nests a child run inside the parent's trap, exercising the
// stacked TrapContexts of the pipeline (see vm/machine.cpp).
#include <cstdio>

#include "core/asc.h"

namespace {

using namespace asc;

const char* kTools[] = {"mkdir", "cp", "cat", "tar", "gzip", "chmod", "mv", "rm", "sort"};

void seed_files(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  std::string doc;
  for (int i = 0; i < 1600; ++i) {
    doc += "line " + std::to_string((i * 37) % 100) +
           " of the corpus, padded with prose to a realistic width\n";
  }
  put("/src.txt", doc);  // ~100KB working document
  std::string names;
  for (int i = 0; i < 120; ++i) names += "name" + std::to_string((i * 61) % 997) + "\n";
  put("/names.txt", names);
}

/// One iteration of the task series. Tools are spawned through a driver
/// process so the whole series runs inside the simulation.
std::uint64_t run_iteration(vm::Machine& m, int round) {
  const std::string dir = "/job" + std::to_string(round);
  std::uint64_t cycles = 0;
  auto step = [&](const std::string& tool, const std::vector<std::string>& argv,
                  const std::string& stdin_data = "") {
    auto r = m.run_path("/bin/" + tool, argv, stdin_data);
    if (!r.completed) throw Error("andrew step " + tool + " failed: " + r.violation_detail);
    cycles += r.cycles;
  };
  step("mkdir", {dir, dir + "/sub"});
  for (int i = 0; i < 6; ++i) {
    step("cp", {"/src.txt", dir + "/f" + std::to_string(i) + ".txt"});
  }
  step("cat", {dir + "/f0.txt", dir + "/f1.txt"});
  step("tar", {"c", dir + "/arch.tar", dir});
  step("gzip", {dir + "/arch.tar"});
  step("chmod", {"384", dir + "/f2.txt"});
  step("mv", {dir + "/f3.txt", dir + "/renamed.txt"});
  step("sort", {"/names.txt"});
  step("gzip", {"-d", dir + "/arch.tarz"});
  step("rm", {dir + "/f4.txt", dir + "/f5.txt", dir + "/arch.tar"});
  return cycles;
}

struct Result {
  double cycles = 0;
  std::uint64_t syscalls = 0;
};

// Rounds of the task series per suite; each works in its own directory.
constexpr int kIters = 3;

Result run_suite(bool authenticated) {
  System sys(os::Personality::LinuxSim, test_key(),
             authenticated ? os::Enforcement::Asc : os::Enforcement::Off);
  seed_files(sys.kernel().fs());
  for (const char* t : kTools) {
    binary::Image img = [&] {
      for (auto& [n, i] : apps::build_all(os::Personality::LinuxSim)) {
        if (n == t) return i;
      }
      throw Error("missing tool");
    }();
    if (authenticated) {
      sys.install_and_register("/bin/" + std::string(t), img);
    } else {
      sys.machine().register_program("/bin/" + std::string(t), img);
    }
  }
  Result res;
  sys.kernel().set_tracing(true);
  for (int i = 0; i < kIters; ++i) {
    res.cycles += static_cast<double>(run_iteration(sys.machine(), i));
  }
  res.syscalls = sys.kernel().trace().size();
  return res;
}

void run_table() {
  std::printf("\n=== §4.3 multiprogram (Andrew-style) benchmark ===\n");
  const Result orig = run_suite(false);
  const Result auth = run_suite(true);
  const double ovh = (auth.cycles - orig.cycles) / orig.cycles * 100.0;
  std::printf("iterations: %d, syscalls/iteration: ~%llu\n", kIters,
              static_cast<unsigned long long>(orig.syscalls / kIters));
  std::printf("original:      %12.2f Mcycles\n", orig.cycles / 1e6);
  std::printf("authenticated: %12.2f Mcycles\n", auth.cycles / 1e6);
  std::printf("overhead:      %.2f%%   (paper: 259.66s -> 262.14s = 0.96%%)\n", ovh);
}

}  // namespace

int main() {
  try {
    run_table();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_andrew: %s\n", e.what());
    return 1;
  }
  return 0;
}
