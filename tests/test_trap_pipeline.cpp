// Tests for the staged trap pipeline: the golden-trace oracle (the refactor
// must reproduce the monolithic kernel byte for byte), the nested-spawn
// trap-context regression, Budgeted failure-mode boundaries, and the
// enforcement list (names, chains, training keeps the list).
#include <fstream>

#include <gtest/gtest.h>

#include "apps/libtoy.h"
#include "golden_dump.h"
#include "monitor/ktable.h"
#include "monitor/training.h"
#include "tasm/assembler.h"

#ifndef ASC_TESTS_DIR
#define ASC_TESTS_DIR "."
#endif

namespace asc {
namespace {

using testing::prepare_fs;

// ---------------------------------------------------------------------------
// Golden trace: the pipeline vs. the pre-refactor monolithic kernel.
// ---------------------------------------------------------------------------

TEST(TrapPipelineGolden, MatchesPreRefactorKernelByteForByte) {
  std::ifstream in(std::string(ASC_TESTS_DIR) + "/golden/trap_pipeline.golden",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file; regenerate with golden_trap_dump()";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const std::string now = testing::golden_trap_dump();
  // Guest stdout, exit status, violation, cycle/instruction/syscall counts,
  // and the full audit log, under all five mode configurations.
  EXPECT_EQ(golden, now);
}

// ---------------------------------------------------------------------------
// Nested spawn: post-spawn audit records must cite the parent's trap.
// ---------------------------------------------------------------------------

// A guest that spawns a child and THEN produces auditable events (a socket
// send and a signal). With per-call kernel-global trap state (the old
// cur_sysno_/cur_site_ fields) the child's traps -- its last one is exit()
// -- could leak into records the parent emits afterwards; with stacked
// TrapContexts that is impossible by construction.
binary::Image build_spawn_then_net(os::Personality pers) {
  tasm::Assembler a("spawnnet");
  using namespace apps;
  a.func("main");
  a.lea(R1, "sp_child");
  a.movi(R2, 0);
  a.call("sys_spawn");
  a.movi(R1, 2);
  a.movi(R2, 1);
  a.movi(R3, 0);
  a.call("sys_socket");
  a.mov(R1, R0);
  a.lea(R2, "sp_msg");
  a.movi(R3, 8);
  a.movi(R4, 0);
  a.movi(R5, 0);
  a.call("sys_sendto");
  a.movi(R1, 1);
  a.movi(R2, 15);
  a.call("sys_kill");
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("sp_child", "/bin/child");
  a.rodata_cstr("sp_msg", "netmsg!\n");
  emit_libc(a, pers);
  return a.link();
}

TEST(TrapPipelineSpawn, PostSpawnRecordsCiteTheParentsTrap) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  sys.install_and_register("/bin/child", apps::build_tool_cat(pers));
  auto inst = sys.install(build_spawn_then_net(pers));
  auto r = sys.machine().run(inst.image);
  ASSERT_TRUE(r.completed) << r.violation_detail;

  const auto& log = sys.kernel().audit_log();
  ASSERT_EQ(log.size(), 3u);  // SPAWN, NET, SIGNAL; the child (cat) is silent

  const auto num = [&](os::SysId id) { return *os::syscall_number(pers, id); };
  EXPECT_EQ(log[0].kind, os::AuditKind::Spawn);
  EXPECT_EQ(log[0].pid, 1);
  EXPECT_EQ(log[0].sysno, num(os::SysId::Spawn));
  EXPECT_EQ(log[0].detail, "/bin/child");

  // The records emitted AFTER the child ran to completion inside the
  // parent's Spawn trap: they must cite the parent's sendto/kill traps, not
  // the child's last trap (exit) or the enclosing spawn site.
  EXPECT_EQ(log[1].kind, os::AuditKind::Net);
  EXPECT_EQ(log[1].pid, 1);
  EXPECT_EQ(log[1].sysno, num(os::SysId::Sendto));
  EXPECT_NE(log[1].sysno, num(os::SysId::Exit));
  EXPECT_NE(log[1].call_site, log[0].call_site);

  EXPECT_EQ(log[2].kind, os::AuditKind::Signal);
  EXPECT_EQ(log[2].pid, 1);
  EXPECT_EQ(log[2].sysno, num(os::SysId::Kill));
  EXPECT_NE(log[2].call_site, log[0].call_site);
  EXPECT_NE(log[2].call_site, log[1].call_site);
}

// ---------------------------------------------------------------------------
// Budgeted failure-mode boundaries.
// ---------------------------------------------------------------------------

// A guest issuing `n` benign getpid() calls before exiting. Run RAW (not
// installed) under ASC enforcement, every trap is an unauthenticated call
// -- a deterministic violation generator.
binary::Image build_getpid_loop(os::Personality pers, int n) {
  tasm::Assembler a("viol");
  using namespace apps;
  a.func("main");
  for (int i = 0; i < n; ++i) a.call("sys_getpid");
  a.movi(R0, 0);
  a.ret();
  emit_libc(a, pers);
  return a.link();
}

struct BudgetRun {
  vm::RunResult result;
  std::vector<os::VerdictRecord> log;
};

BudgetRun run_with_mode(os::FailureMode mode, std::uint32_t budget) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);  // Asc enforcement, raw image below => violations
  sys.kernel().set_failure_mode(mode);
  sys.kernel().set_violation_budget(budget);
  BudgetRun out;
  out.result = sys.machine().run(build_getpid_loop(pers, 5));
  out.log = sys.kernel().audit_log();
  return out;
}

TEST(TrapPipelineBudget, BudgetNToleratesExactlyNAndKillsOnNPlusOne) {
  for (std::uint32_t budget : {1u, 2u, 4u}) {
    const BudgetRun r = run_with_mode(os::FailureMode::Budgeted, budget);
    EXPECT_FALSE(r.result.completed);
    EXPECT_EQ(r.result.violation, os::Violation::BadCallMac);
    // N tolerated records, then the (N+1)-th kills.
    ASSERT_EQ(r.log.size(), budget + 1) << "budget " << budget;
    for (std::uint32_t i = 0; i < budget; ++i) {
      EXPECT_FALSE(r.log[i].killed) << "budget " << budget << " record " << i;
    }
    EXPECT_TRUE(r.log.back().killed) << "budget " << budget;
  }
}

TEST(TrapPipelineBudget, BudgetZeroIsBitIdenticalToFailStop) {
  const BudgetRun stop = run_with_mode(os::FailureMode::FailStop, 0);
  const BudgetRun zero = run_with_mode(os::FailureMode::Budgeted, 0);

  // RunResult, field by field.
  EXPECT_EQ(stop.result.completed, zero.result.completed);
  EXPECT_EQ(stop.result.exit_code, zero.result.exit_code);
  EXPECT_EQ(stop.result.violation, zero.result.violation);
  EXPECT_EQ(stop.result.violation_detail, zero.result.violation_detail);
  EXPECT_EQ(stop.result.stdout_data, zero.result.stdout_data);
  EXPECT_EQ(stop.result.cycles, zero.result.cycles);
  EXPECT_EQ(stop.result.instructions, zero.result.instructions);
  EXPECT_EQ(stop.result.syscalls, zero.result.syscalls);

  // Audit log, record by record (including the formatted rendering).
  ASSERT_EQ(stop.log.size(), zero.log.size());
  for (std::size_t i = 0; i < stop.log.size(); ++i) {
    EXPECT_EQ(stop.log[i].to_string(), zero.log[i].to_string());
    EXPECT_EQ(stop.log[i].kind, zero.log[i].kind);
    EXPECT_EQ(stop.log[i].killed, zero.log[i].killed);
    EXPECT_EQ(stop.log[i].vtime_ns, zero.log[i].vtime_ns);
  }
}

TEST(TrapPipelineBudget, AuditOnlyRecordsEveryViolationAndNeverKills) {
  const BudgetRun r = run_with_mode(os::FailureMode::AuditOnly, 0);
  EXPECT_TRUE(r.result.completed);
  EXPECT_EQ(r.result.violation, os::Violation::None);
  // 5 getpid() calls + the final exit(), each an unauthenticated call.
  ASSERT_EQ(r.log.size(), 6u);
  for (const auto& rec : r.log) {
    EXPECT_FALSE(rec.killed);
    EXPECT_EQ(rec.violation, os::Violation::BadCallMac);
  }
}

// ---------------------------------------------------------------------------
// The enforcement list.
// ---------------------------------------------------------------------------

TEST(TrapPipelineMonitors, FactoryAndKernelAgreeOnNames) {
  System sys(os::Personality::LinuxSim);
  auto& k = sys.kernel();
  const std::pair<os::Enforcement, const char*> modes[] = {
      {os::Enforcement::Off, "off"},
      {os::Enforcement::Asc, "asc"},
      {os::Enforcement::Daemon, "daemon"},
      {os::Enforcement::KernelTable, "kernel-table"}};
  for (const auto& [e, name] : modes) {
    k.set_enforcement(e);
    EXPECT_EQ(k.enforcement(), std::vector<os::Enforcement>{e});
    EXPECT_EQ(os::enforcement_name(e), name);
    EXPECT_EQ(os::enforcement_name(k.enforcement()), name);
  }
}

TEST(TrapPipelineMonitors, ChainComposesAscWithKernelTable) {
  const auto pers = os::Personality::LinuxSim;

  // Baseline: ASC alone accepts the installed program.
  System asc_only(pers);
  prepare_fs(asc_only.kernel().fs());
  auto inst = asc_only.install(apps::build_tool_cat(pers));
  auto r0 = asc_only.machine().run(inst.image, {"/lines.txt"});
  ASSERT_TRUE(r0.completed) << r0.violation_detail;

  // Chain ASC + an in-kernel allowlist with the same policy content: both
  // links pass, output identical, and the table lookup is charged on top.
  System chained(pers);
  prepare_fs(chained.kernel().fs());
  auto& k = chained.kernel();
  k.set_monitor_policy("cat", monitor::table_from_asc_policies(inst.policies));
  k.set_enforcement({os::Enforcement::Asc, os::Enforcement::KernelTable});
  EXPECT_EQ(os::enforcement_name(k.enforcement()), "chain(asc+kernel-table)");

  auto inst2 = chained.install(apps::build_tool_cat(pers));
  auto r1 = chained.machine().run(inst2.image, {"/lines.txt"});
  ASSERT_TRUE(r1.completed) << r1.violation_detail;
  EXPECT_EQ(r0.stdout_data, r1.stdout_data);
  EXPECT_EQ(r1.cycles, r0.cycles + r1.syscalls * chained.kernel().cost().ktable_lookup);

  // Same chain, but no table policy loaded: the second link denies even
  // though the ASC link passes -- composition is first-violation-wins.
  System denied(pers);
  prepare_fs(denied.kernel().fs());
  auto& kd = denied.kernel();
  kd.set_enforcement({os::Enforcement::Asc, os::Enforcement::KernelTable});
  auto inst3 = denied.install(apps::build_tool_cat(pers));
  auto r2 = denied.machine().run(inst3.image, {"/lines.txt"});
  EXPECT_FALSE(r2.completed);
  EXPECT_EQ(r2.violation, os::Violation::MonitorDenied);
  EXPECT_NE(r2.violation_detail.find("no policy loaded"), std::string::npos);
}

TEST(TrapPipelineMonitors, EmptyChainAllowsEverything) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  sys.kernel().set_enforcement(std::vector<os::Enforcement>{});
  EXPECT_EQ(os::enforcement_name(sys.kernel().enforcement()), "chain()");
  // A raw, unauthenticated image runs: the empty chain enforces nothing.
  auto r = sys.machine().run(apps::build_tool_cat(pers), {"/lines.txt"});
  EXPECT_TRUE(r.completed) << r.violation_detail;
  EXPECT_TRUE(sys.kernel().audit_log().empty());
}

TEST(TrapPipelineMonitors, TrainingLeavesTheChainInPlace) {
  const auto pers = os::Personality::LinuxSim;
  System asc_only(pers);
  prepare_fs(asc_only.kernel().fs());
  auto inst = asc_only.install(apps::build_tool_cat(pers));
  auto r0 = asc_only.machine().run(inst.image, {"/lines.txt"});
  ASSERT_TRUE(r0.completed) << r0.violation_detail;

  // Training runs the raw program unmonitored and must then restore the
  // whole list it found.
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  auto& k = sys.kernel();
  k.set_monitor_policy("cat", monitor::table_from_asc_policies(inst.policies));
  const std::vector<os::Enforcement> chain = {os::Enforcement::Asc,
                                              os::Enforcement::KernelTable};
  k.set_enforcement(chain);
  const monitor::TrainingRun sample{{"/lines.txt"}, ""};
  (void)monitor::train_policy(sys.machine(), apps::build_tool_cat(pers), {sample});
  EXPECT_EQ(k.enforcement(), chain);

  // Every trap of a run after training still pays the table lookup.
  auto r1 = sys.machine().run(sys.install(apps::build_tool_cat(pers)).image, {"/lines.txt"});
  ASSERT_TRUE(r1.completed) << r1.violation_detail;
  EXPECT_EQ(r1.cycles, r0.cycles + r1.syscalls * k.cost().ktable_lookup);
}

// ---------------------------------------------------------------------------
// The audit layer: one coherent reset.
// ---------------------------------------------------------------------------

TEST(TrapPipelineAudit, ResetClearsBothViewsAndLeavesTheTraceAlone) {
  const auto pers = os::Personality::LinuxSim;
  System sys(pers);
  prepare_fs(sys.kernel().fs());
  sys.kernel().set_tracing(true);
  auto inst = sys.install(build_spawn_then_net(pers));
  sys.machine().register_program("/bin/child", apps::build_tool_cat(pers));
  (void)sys.machine().run(inst.image);

  auto& k = sys.kernel();
  ASSERT_FALSE(k.audit_log().empty());
  const std::size_t traced = k.trace().size();
  ASSERT_GT(traced, 0u);

  // clear_events() == AuditLog::reset(): the audit log goes, the trace
  // stays (training clears the trace separately between sample runs).
  k.clear_events();
  EXPECT_TRUE(k.audit_log().empty());
  EXPECT_EQ(k.trace().size(), traced);

  k.clear_trace();
  EXPECT_TRUE(k.trace().empty());
}

TEST(TrapPipelineAudit, AuditLogUnitAppendAndReset) {
  os::AuditLog log;
  os::VerdictRecord rec;
  rec.kind = os::AuditKind::Net;
  rec.pid = 7;
  rec.detail = "send 1 bytes";
  log.append(rec);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].to_string(), "NET send 1 bytes (pid=7 sysno=0 site=0x0)");
  log.reset();
  EXPECT_TRUE(log.records().empty());
}

}  // namespace
}  // namespace asc
