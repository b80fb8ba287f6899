// Integration: every guest program runs under ASC enforcement with behavior
// byte-identical to an unmonitored run -- the paper's conservative-analysis
// guarantee (no false alarms), end to end.
#include <gtest/gtest.h>

#include <map>

#include "workloads.h"

namespace asc {
namespace {

using testing::prepare_fs;
using testing::standard_workloads;
using testing::Workload;

std::map<std::string, binary::Image> images_for(os::Personality p) {
  std::map<std::string, binary::Image> out;
  for (auto& [name, img] : apps::build_all(p)) out[name] = std::move(img);
  return out;
}

class AppIntegration : public ::testing::TestWithParam<Workload> {};

TEST_P(AppIntegration, AuthenticatedRunMatchesOriginal) {
  const Workload& w = GetParam();
  const auto pers = os::Personality::LinuxSim;
  static const auto images = images_for(pers);  // build once for the suite
  const binary::Image& img = images.at(w.program);

  // Baseline run, monitoring off.
  System base(pers, test_key(), os::Enforcement::Off);
  prepare_fs(base.kernel().fs());
  auto r0 = base.machine().run(img, w.argv, w.stdin_data);
  ASSERT_TRUE(r0.completed) << w.program << ": " << r0.violation_detail;

  // Authenticated run under enforcement.
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  auto inst = sys.install(img);
  EXPECT_TRUE(inst.warnings.empty()) << inst.warnings.front();
  auto r1 = sys.machine().run(inst.image, w.argv, w.stdin_data);
  EXPECT_TRUE(r1.completed) << w.program << ": " << os::violation_name(r1.violation) << " -- "
                            << r1.violation_detail;
  EXPECT_EQ(r1.violation, os::Violation::None);
  EXPECT_EQ(r1.exit_code, r0.exit_code) << w.program;
  EXPECT_EQ(r1.stdout_data, r0.stdout_data) << w.program;
  EXPECT_EQ(r1.syscalls, r0.syscalls) << w.program;
  // Authentication costs cycles; it must never be free (every program makes
  // at least the exit syscall).
  EXPECT_GT(r1.cycles, r0.cycles) << w.program;
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, AppIntegration,
                         ::testing::ValuesIn(standard_workloads()),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           std::string n = info.param.program;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(AppIntegrationBsd, PolicyGenerationWorksAndReportsOpaqueClose) {
  // The paper ported only POLICY GENERATION to OpenBSD; runtime checking
  // stayed Linux-only. Mirror that: analyze on BsdSim and check that the
  // undisassemblable close stub is reported.
  const auto pers = os::Personality::BsdSim;
  installer::Installer inst(test_key(), pers);
  auto gp = inst.analyze(apps::build_bison(pers));
  bool close_reported = false;
  for (const auto& wmsg : gp.warnings) {
    if (wmsg.find("sys_close") != std::string::npos) close_reported = true;
  }
  EXPECT_TRUE(close_reported) << "expected a PLTO-style report for the opaque close stub";
  // close must be MISSING from the BSD policy (Table 2, `close` row) ...
  bool has_close = false;
  bool has_indirect = false;
  for (const auto& pol : gp.policies) {
    if (pol.sys == os::SysId::Close) has_close = true;
    if (pol.sys == os::SysId::SyscallIndirect) has_indirect = true;
  }
  EXPECT_FALSE(has_close);
  // ... and mmap only reachable through __syscall with a constrained first
  // argument (Table 2, `__syscall` row).
  if (has_indirect) {
    for (const auto& pol : gp.policies) {
      if (pol.sys != os::SysId::SyscallIndirect) continue;
      ASSERT_GE(pol.arity, 1);
      EXPECT_EQ(pol.args[0].kind, policy::ArgPolicy::Kind::Const);
      EXPECT_EQ(pol.args[0].value, 71u);  // the mmap convention number
    }
  }
}

TEST(AppIntegrationBsd, AppsRunUnmonitoredOnBsd) {
  const auto pers = os::Personality::BsdSim;
  System sys(pers, test_key(), os::Enforcement::Off);
  prepare_fs(sys.kernel().fs());
  auto r = sys.machine().run(apps::build_bison(pers), {"/gram.y"});
  EXPECT_TRUE(r.completed) << r.violation_detail;
  // The opaque close stub must still EXECUTE correctly (the computed jump
  // skips the junk bytes at runtime).
  System sys2(pers, test_key(), os::Enforcement::Off);
  prepare_fs(sys2.kernel().fs());
  auto r2 = sys2.machine().run(apps::build_tool_cat(pers), {"/lines.txt"});
  EXPECT_TRUE(r2.completed) << r2.violation_detail;
  EXPECT_NE(r2.stdout_data.find("apple"), std::string::npos);
}

TEST(AppIntegration, SpawnedChildrenAreCheckedToo) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  // Register an authenticated /bin/ls stand-in (cat) and run vuln_echo; its
  // spawn must execute the child under enforcement.
  sys.install_and_register("/bin/ls", apps::build_tool_cat(pers));
  auto inst = sys.install(apps::build_vuln_echo(pers));
  auto r = sys.machine().run(inst.image, {}, "/lines.txt\n");
  EXPECT_TRUE(r.completed) << r.violation_detail;
  EXPECT_NE(r.stdout_data.find("apple"), std::string::npos);  // child output
  bool spawned = false;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.to_string().find("SPAWN /bin/ls") != std::string::npos) spawned = true;
  }
  EXPECT_TRUE(spawned);
}

}  // namespace
}  // namespace asc
