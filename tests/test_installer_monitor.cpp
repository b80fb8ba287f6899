// Installer output properties and the training/Systrace baseline monitors
// (the machinery behind Tables 1 and 2).
#include <gtest/gtest.h>

#include <set>

#include "apps/libtoy.h"
#include "monitor/ktable.h"
#include "monitor/systrace.h"
#include "monitor/training.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace asc {
namespace {

using testing::prepare_fs;

TEST(InstallerTest, OutputIsNonRelocatableAndAuthenticated) {
  System sys(os::Personality::LinuxSim);
  auto inst = sys.install(apps::build_tool_cat(os::Personality::LinuxSim));
  EXPECT_TRUE(inst.image.authenticated);
  EXPECT_FALSE(inst.image.relocatable);
  EXPECT_TRUE(inst.image.relocs.empty());
  EXPECT_NE(inst.image.program_id, 0);
  EXPECT_NE(inst.image.find_section(binary::SectionKind::AsData), nullptr);
}

TEST(InstallerTest, RefusesNonRelocatableInput) {
  System sys(os::Personality::LinuxSim);
  auto img = apps::build_tool_cat(os::Personality::LinuxSim);
  img.relocatable = false;
  EXPECT_THROW(sys.install(img), Error);
}

TEST(InstallerTest, ProgramIdsAreUniquePerInstaller) {
  System sys(os::Personality::LinuxSim);
  auto a = sys.install(apps::build_tool_rm(os::Personality::LinuxSim));
  auto b = sys.install(apps::build_tool_mv(os::Personality::LinuxSim));
  EXPECT_NE(a.image.program_id, b.image.program_id);
}

TEST(InstallerTest, EveryPolicyHasSiteAndPredecessors) {
  System sys(os::Personality::LinuxSim);
  auto inst = sys.install(apps::build_bison(os::Personality::LinuxSim));
  ASSERT_FALSE(inst.policies.empty());
  std::set<std::uint32_t> sites;
  for (const auto& p : inst.policies) {
    EXPECT_NE(p.call_site, 0u);
    EXPECT_TRUE(sites.insert(p.call_site).second) << "call sites must be distinct";
    EXPECT_TRUE(p.control_flow);
    EXPECT_FALSE(p.predecessors.empty()) << os::signature(p.sys).name;
    // Composed block ids carry the program id in the upper half (§5.5).
    EXPECT_EQ(p.block_id >> 16, inst.image.program_id);
  }
}

TEST(InstallerTest, StringArgumentsBecomeAuthenticatedStrings) {
  System sys(os::Personality::LinuxSim);
  auto inst = sys.install(apps::build_vuln_echo(os::Personality::LinuxSim));
  const policy::SyscallPolicy* spawn = nullptr;
  for (const auto& p : inst.policies) {
    if (p.sys == os::SysId::Spawn) spawn = &p;
  }
  ASSERT_NE(spawn, nullptr);
  EXPECT_EQ(spawn->args[0].kind, policy::ArgPolicy::Kind::String);
  EXPECT_EQ(spawn->args[0].str, "/bin/ls");
  // The descriptor must carry the AS bit so the kernel knows to check it.
  EXPECT_TRUE(spawn->descriptor().arg_is_authenticated_string(0));
}

// A path that reaches open() through a register copy: `lea r11,"/a.txt";
// mov r1,r11`. The scan traces the copy to the string, so the argument gets
// a String policy; the rewriter must retarget that LEA at the authenticated
// string, or the open fails its call MAC.
binary::Image build_copied_path_open(os::Personality pers) {
  tasm::Assembler a("copypath");
  using namespace apps;
  a.func("main");
  a.lea(R11, "cp_path");
  a.mov(R1, R11);
  a.movi(R2, O_RDONLY);
  a.movi(R3, 0);
  a.call("sys_open");
  a.mov(R1, R0);
  a.call("sys_close");
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("cp_path", "/a.txt");
  emit_libc(a, pers);
  return a.link();
}

TEST(InstallerTest, StringReachedThroughACopyIsAuthenticated) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);
  auto ino = sys.kernel().fs().open("/", "/a.txt", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  ASSERT_GE(ino, 0);
  auto inst = sys.install(build_copied_path_open(pers));
  const policy::SyscallPolicy* open = nullptr;
  for (const auto& p : inst.policies) {
    if (p.sys == os::SysId::Open) open = &p;
  }
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->args[0].kind, policy::ArgPolicy::Kind::String);
  EXPECT_EQ(open->args[0].str, "/a.txt");
  const auto r = sys.machine().run(inst.image);
  EXPECT_TRUE(r.completed) << os::violation_name(r.violation) << ": " << r.violation_detail;
}

TEST(InstallerTest, StringPolicyOnAnUntracedArgumentIsRejected) {
  const auto pers = os::Personality::LinuxSim;
  installer::Installer inst(test_key(), pers);
  const binary::Image img = apps::build_tool_cat(pers);
  installer::GeneratedPolicies gp = inst.analyze(img);
  // cat opens an argv-derived path: the scan resolved it to no string LEA,
  // so a hand-written string policy there has nothing to retarget.
  bool edited = false;
  for (auto& p : gp.policies) {
    if (p.sys != os::SysId::Open || p.args[0].kind == policy::ArgPolicy::Kind::String) continue;
    p.args[0].kind = policy::ArgPolicy::Kind::String;
    p.args[0].str = "/etc/passwd";
    edited = true;
    break;
  }
  ASSERT_TRUE(edited);
  EXPECT_THROW(inst.rewrite(img, std::move(gp)), Error);
}

TEST(InstallerTest, MetapolicyHolesBlockRewrite) {
  System sys(os::Personality::LinuxSim);
  installer::InstallOptions opts;
  opts.metapolicy = policy::Metapolicy::strict_paths();
  // cat opens argv-derived paths: no value derivable -> hole -> install fails.
  EXPECT_THROW(sys.install(apps::build_tool_cat(os::Personality::LinuxSim), opts), Error);
}

TEST(InstallerTest, CrossPersonalityPoliciesDisagree) {
  // Policies are OS-specific (Table 1's first two columns): both the
  // syscall numbers AND the syscall sets differ.
  installer::Installer lin(test_key(), os::Personality::LinuxSim);
  installer::Installer bsd(test_key(), os::Personality::BsdSim);
  auto gl = lin.analyze(apps::build_bison(os::Personality::LinuxSim));
  auto gb = bsd.analyze(apps::build_bison(os::Personality::BsdSim));
  std::set<std::string> lset, bset;
  for (const auto& p : gl.policies) lset.insert(os::signature(p.sys).name);
  for (const auto& p : gb.policies) bset.insert(os::signature(p.sys).name);
  EXPECT_NE(lset, bset);
  EXPECT_TRUE(lset.count("time") == 1);     // Linux libc uses time(2)
  EXPECT_TRUE(bset.count("time") == 0);     // BSD libc emulates via gettimeofday
  EXPECT_TRUE(bset.count("close") == 0);    // opaque stub on BSD
  EXPECT_TRUE(lset.count("close") == 1);
}

// ---- training / Systrace baselines ----

TEST(Training, PolicyContainsExactlyObservedCalls) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  prepare_fs(sys.kernel().fs());
  auto img = apps::build_calc(os::Personality::LinuxSim);
  // Train on arithmetic only.
  auto pol = monitor::train_policy(sys.machine(), img,
                                   {{{}, "add 1 2\nmul 3 4\n"}});
  const auto read_no = *os::syscall_number(os::Personality::LinuxSim, os::SysId::Read);
  const auto socket_no = *os::syscall_number(os::Personality::LinuxSim, os::SysId::Socket);
  EXPECT_EQ(pol.allowed.count(read_no), 1u);
  EXPECT_EQ(pol.allowed.count(socket_no), 0u) << "net path was never exercised";
}

TEST(Training, UntrainedFeatureCausesFalseAlarm) {
  // The paper's core point about training: a legitimate run that exercises
  // an untrained feature gets the process killed (false alarm) -- which the
  // static-analysis ASC policies never do.
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  prepare_fs(sys.kernel().fs());
  auto img = apps::build_calc(os::Personality::LinuxSim);
  auto pol = monitor::train_policy(sys.machine(), img, {{{}, "add 1 2\n"}});
  sys.kernel().set_monitor_policy("calc", pol);
  sys.kernel().set_enforcement(os::Enforcement::Daemon);
  // Legit arithmetic still passes...
  auto ok = sys.machine().run(img, {}, "add 5 6\n");
  EXPECT_TRUE(ok.completed) << ok.violation_detail;
  // ...but the (legitimate!) net feature is killed.
  auto killed = sys.machine().run(img, {}, "net\n");
  EXPECT_FALSE(killed.completed);
  EXPECT_EQ(killed.violation, os::Violation::MonitorDenied);
}

TEST(Training, AscPolicyHasNoFalseAlarmOnSameFeature) {
  System sys(os::Personality::LinuxSim);
  prepare_fs(sys.kernel().fs());
  auto inst = sys.install(apps::build_calc(os::Personality::LinuxSim));
  auto r = sys.machine().run(inst.image, {}, "net\n");
  EXPECT_TRUE(r.completed) << r.violation_detail;
}

TEST(Systrace, PublishedPolicyUsesAliases) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  prepare_fs(sys.kernel().fs());
  auto img = apps::build_bison(os::Personality::LinuxSim);
  auto trained = monitor::train_policy(sys.machine(), img, {{{"/gram.y"}, ""}});
  auto pub = monitor::make_published_policy(trained, os::Personality::LinuxSim);
  // bison stats its input -> fsread alias appears; the alias then PERMITS
  // calls bison never makes (Table 2's mkdir/readlink/rmdir/unlink rows).
  EXPECT_TRUE(pub.runtime.allow_fsread);
  EXPECT_TRUE(pub.runtime.allow_fswrite);
  EXPECT_EQ(pub.named.count("fsread"), 1u);
  EXPECT_EQ(pub.permitted.count("readlink"), 1u);
  EXPECT_EQ(pub.permitted.count("rmdir"), 1u);
  // And the alias hides the individually-trained fs calls from the named
  // list, shrinking the "policy size" the way published policies do.
  EXPECT_EQ(pub.named.count("stat"), 0u);
}

TEST(Systrace, TrainedPolicyMissesErrorPathCalls) {
  // Compare sets: static analysis (ASC) vs training (Systrace stand-in).
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  prepare_fs(sys.kernel().fs());
  auto img = apps::build_bison(os::Personality::LinuxSim);
  auto trained = monitor::train_policy(sys.machine(), img, {{{"/gram.y"}, ""}});
  auto pub = monitor::make_published_policy(trained, os::Personality::LinuxSim);

  installer::Installer inst(test_key(), os::Personality::LinuxSim);
  auto gp = inst.analyze(img);
  std::set<std::string> asc_names;
  for (const auto& p : gp.policies) asc_names.insert(os::signature(p.sys).name);

  // ASC finds the socket/sendto error path and the verbose-mode calls that
  // training cannot see.
  EXPECT_EQ(asc_names.count("socket"), 1u);
  EXPECT_EQ(asc_names.count("sendto"), 1u);
  EXPECT_EQ(asc_names.count("kill"), 1u);
  EXPECT_EQ(pub.permitted.count("socket"), 0u);
  EXPECT_EQ(pub.permitted.count("sendto"), 0u);
  // And the ASC set strictly contains more calls than training observed.
  std::set<std::string> trained_names;
  for (auto n : trained.allowed) {
    if (auto id = os::syscall_from_number(os::Personality::LinuxSim, n)) {
      trained_names.insert(os::signature(*id).name);
    }
  }
  for (const auto& n : trained_names) {
    EXPECT_EQ(asc_names.count(n), 1u) << "conservative analysis must cover " << n;
  }
  EXPECT_GT(asc_names.size(), trained_names.size());
}

TEST(KernelTableMonitor, EnforcesSameSetCheaply) {
  System sys(os::Personality::LinuxSim);
  prepare_fs(sys.kernel().fs());
  auto img = apps::build_tool_cat(os::Personality::LinuxSim);
  auto inst = sys.install(img);
  auto table = monitor::table_from_asc_policies(inst.policies);
  sys.kernel().set_monitor_policy("cat", table);
  sys.kernel().set_enforcement(os::Enforcement::KernelTable);
  auto r = sys.machine().run(img, {"/lines.txt"});
  EXPECT_TRUE(r.completed) << r.violation_detail;
  // A program with no policy in the table is denied on its first call.
  auto r2 = sys.machine().run(apps::build_tool_rm(os::Personality::LinuxSim), {"/x"});
  EXPECT_FALSE(r2.completed);
  EXPECT_EQ(r2.violation, os::Violation::MonitorDenied);
}

}  // namespace
}  // namespace asc
