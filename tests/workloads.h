// Shared workload definitions for tests and benches: per-program argv/stdin
// and the filesystem fixtures they expect.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/asc.h"

namespace asc::testing {

struct Workload {
  std::string program;               // name from apps::build_all
  std::vector<std::string> argv;
  std::string stdin_data;
};

/// gtest prints a case's parameter into the test name ctest lists; print the
/// command line rather than the struct's raw bytes, which hold heap pointers.
inline void PrintTo(const Workload& w, std::ostream* os) {
  *os << w.program;
  for (const auto& a : w.argv) *os << ' ' << a;
  if (!w.stdin_data.empty()) *os << " < " << w.stdin_data.size() << "-byte stdin";
}

/// Populate a fresh simulated FS with the files the standard workloads use.
inline void prepare_fs(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc,
                       0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  std::string gram;
  for (int i = 0; i < 40; ++i) gram += "rule" + std::to_string(i) + ": token EOL\n";
  put("/gram.y", gram);
  put("/in.c", "int main() { return 42; }\n// padding\n" + std::string(2000, 'x') + "\n");
  put("/f.txt", "aaaaaabbbbcccccccccddd\nmore text here\n" + std::string(512, 'q'));
  put("/lines.txt", "pear\napple\nmango\ncherry\nbanana\n");
  put("/etc/vuln.conf", "mode=list\n");
  (void)fs.mkdir("/", "/work", 0755);
  put("/work/one.txt", "first file body\n");
  put("/work/two.txt", "second, longer file body with more bytes\n");
  put("/work/three.txt", std::string(300, 'z') + "\n");
}

/// The standard run for each program (kept small so tests are fast; benches
/// scale the numeric arguments up).
inline std::vector<Workload> standard_workloads() {
  return {
      {"bison", {"/gram.y", "/out.tab.c", "-v"}, ""},
      {"calc",
       {},
       "add 3 4\nmul 6 7\nsub 10 2\ndiv 9 3\nmod 17 5\nsave\nload\nperm\nlink\ncd\n"
       "dir\ntime\nbig\nsys\ndupfd\npipe\nnet\nmk\ndel\n"},
      {"screen", {"main"}, ""},
      {"gzip-spec", {"4"}, ""},
      {"crafty", {"20000"}, ""},
      {"mcf", {"40"}, ""},
      {"vpr", {"20000"}, ""},
      {"twolf", {"20000"}, ""},
      {"gcc", {"/in.c", "/out.o"}, ""},
      {"vortex", {"3000"}, ""},
      {"pyramid", {"150"}, ""},
      {"gzip", {"/f.txt"}, ""},
      {"tar", {"c", "/arch.tar", "/work"}, ""},
      {"cat", {"/lines.txt", "/in.c"}, ""},
      {"cp", {"/lines.txt", "/copy.txt"}, ""},
      {"rm", {"/copy.txt", "/absent.txt"}, ""},
      {"mv", {"/lines.txt", "/moved.txt"}, ""},
      {"chmod", {"384", "/in.c"}, ""},
      {"mkdir", {"/newdir", "/newdir2"}, ""},
      {"sort", {"/lines.txt"}, ""},
      {"vuln_echo", {}, "/etc\n"},
  };
}

}  // namespace asc::testing
