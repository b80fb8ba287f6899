// The fault-injection campaign (src/fault/): seeded mutations of the ASC
// verification surface must never crash the host, never silently bypass the
// policy, and always map to the Violation class the §3.4 checking order
// predicts -- under fail-stop, budgeted, and audit-only enforcement alike,
// and at every tier of the verification lattice.
#include <gtest/gtest.h>

#include <set>

#include "apps/libtoy.h"
#include "fault/campaign.h"
#include "isa/isa.h"
#include "policy/descriptor.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace asc {
namespace {

using fault::Campaign;
using fault::CampaignConfig;
using fault::CampaignResult;
using fault::FaultPoint;
using fault::FaultSpec;
using fault::GuestProgram;
using fault::Outcome;
using fault::Strike;
using os::Tier;

const auto kPers = os::Personality::LinuxSim;

GuestProgram cat_guest() {
  GuestProgram g;
  g.name = "cat";
  g.image = apps::build_tool_cat(kPers);
  g.argv = {"/lines.txt", "/in.c"};
  g.prepare_fs = testing::prepare_fs;
  return g;
}

GuestProgram vuln_echo_guest() {
  GuestProgram g;
  g.name = "vuln_echo";
  g.image = apps::build_vuln_echo(kPers);
  g.stdin_data = "/lines.txt\n";
  g.helpers.emplace_back("/bin/ls", apps::build_tool_cat(kPers));
  g.prepare_fs = testing::prepare_fs;
  return g;
}

crypto::Key128 wrong_key() {
  crypto::Key128 k = test_key();
  k[0] ^= 0x01;
  return k;
}

// ---- the tentpole invariant, at scale ----
// >= 500 mutated executions across every default point, two guest programs
// (one of them spawning a child, so faults land in child processes too).
TEST(FaultCampaign, InvariantHoldsAcrossFiveHundredMutations) {
  CampaignConfig cfg;
  cfg.seed = 20260806;
  cfg.runs_per_point = 28;  // 2 programs x 18 default points x 28 = 1008 executions
  Campaign campaign(cfg);
  const CampaignResult r = campaign.run_all({cat_guest(), vuln_echo_guest()});

  EXPECT_GE(static_cast<int>(r.verdicts.size()), 500);
  EXPECT_GE(static_cast<int>(r.matrix.size()), 6) << "point coverage too narrow";
  EXPECT_EQ(r.host_crash, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_EQ(r.wrong_verdict, 0) << r.summary();
  EXPECT_GE(r.total_applied(), 450) << r.summary();
  EXPECT_TRUE(r.invariant_holds());

  // Every point that applied at all was detected, and only with Violation
  // verdicts from its strike's expected set.
  for (const auto& [point, row] : r.matrix) {
    int applied = 0;
    for (const auto& [v, n] : row) {
      applied += n;
      if (v == os::Violation::None) continue;  // benign replays
      const auto& exp = fault::expected_violations(point.strike);
      EXPECT_NE(std::find(exp.begin(), exp.end(), v), exp.end())
          << fault::point_name(point) << " yielded unexpected verdict "
          << os::violation_name(v);
    }
    EXPECT_GT(applied, 0) << fault::point_name(point) << " never applied";
  }
}

// ---- the verified-call cache under attack ----
// TOCTOU against the MAC-verification fast path: corrupt the call MAC or the
// predecessor-set bytes at a call site the lattice serves from a verified
// site record (call-mac-flip@cached, pred-set-corrupt@cached), before the
// trap. A cache that trusted its entry without re-comparing the trap's
// actual bytes (or without write-watch eviction) would accept the corrupted
// call -- a silent bypass. Every applied mutation must instead fail-stop with
// the verdict full verification yields.
TEST(FaultCampaign, CacheToctouMutationsFailStop) {
  CampaignConfig cfg;
  cfg.seed = 987654;
  cfg.runs_per_point = 20;
  cfg.points = {{Strike::CallMacFlip, Tier::Cached}, {Strike::PredSetCorrupt, Tier::Cached}};
  cfg.stages = {os::TrapStage::Trap};
  const CampaignResult r = Campaign(cfg).run_all({cat_guest(), vuln_echo_guest()});

  EXPECT_TRUE(r.invariant_holds()) << r.summary();
  EXPECT_EQ(r.host_crash, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_GT(r.detected, 0) << "no TOCTOU mutation ever landed:\n" << r.summary();
  // Bit-flips in live MAC/pred-set bytes are never no-ops: each applied
  // mutation must surface as a verdict, not blend into a benign run.
  EXPECT_EQ(r.benign, 0) << r.summary();
}

// ---- the policy-state shadow under attack ----
// TOCTOU against the control-flow fast path: once a pid's {lastBlock, lbMAC}
// record is shadowed in the kernel, the guest copy lags behind (lazy
// write-back). The mutation strikes inside the invalidation window of a
// Shadowed site: a guest write into the watched range must FIRST write back
// the trusted record, and only then land -- after which the slow path
// re-verifies. Both attack shapes (policy-state-corrupt@shadowed, a bit-flip
// of the materialized record; cross-replay@shadowed, an authentic record
// carrying a stale nonce) must fail-stop in the memory checker. 2 programs
// x 2 points x 30 = 120 mutated executions.
TEST(FaultCampaign, ShadowToctouMutationsFailStop) {
  CampaignConfig cfg;
  cfg.seed = 424242;
  cfg.runs_per_point = 30;
  cfg.points = {{Strike::PolicyStateCorrupt, Tier::Shadowed},
                {Strike::CrossReplay, Tier::Shadowed}};
  cfg.stages = {os::TrapStage::Trap};
  const CampaignResult r = Campaign(cfg).run_all({cat_guest(), vuln_echo_guest()});

  EXPECT_TRUE(r.invariant_holds()) << r.summary();
  EXPECT_EQ(r.host_crash, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_EQ(r.wrong_verdict, 0) << r.summary();
  EXPECT_GE(r.detected, 100) << "shadow TOCTOU coverage too thin:\n" << r.summary();
  // The touch-then-tamper sequence guarantees divergence from the trusted
  // record: no applied mutation may blend into a benign run.
  EXPECT_EQ(r.benign, 0) << r.summary();
}

// ---- the Inline tier under attack ----
// TOCTOU against the promotion window of the tier lattice: the mutation
// strikes ONLY at a (pid, site) already promoted to trap-less execution,
// flipping either the call MAC (call-mac-flip@inline) or the policy-state
// record the probe's snapshot trusts (policy-state-corrupt@inline). The
// site's own write watch must demote it BEFORE the tamper lands, so the next
// call re-enters the full pipeline and fail-stops with the structure's
// verdict -- inline execution may never outlive a tamper. 2 loop guests x 2
// points x 30 = 120 mutated executions.

GuestProgram loop_guest(const std::string& name, const char* wrapper) {
  using namespace asc::apps;
  tasm::Assembler a(name);
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, 64);
  a.store(SP, 0, R11);
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  a.call(wrapper);
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  emit_libc(a, kPers);
  GuestProgram g;
  g.name = name;
  g.image = a.link();
  return g;
}

TEST(FaultCampaign, PromoToctouMutationsFailStop) {
  CampaignConfig cfg;
  cfg.seed = 80808;
  cfg.runs_per_point = 30;
  cfg.points = {{Strike::CallMacFlip, Tier::Inline}, {Strike::PolicyStateCorrupt, Tier::Inline}};
  cfg.stages = {os::TrapStage::Trap};
  // Every lifecycle kernel runs the inline tier at a low promotion
  // threshold, so sites promote early and most triggers land inside the
  // trap-less window. The clean run pins the shadow off, so its behavior
  // snapshots see no promotion at all.
  const CampaignResult r = Campaign(cfg).run_all(
      {loop_guest("pidloop", "sys_getpid"), loop_guest("uidloop", "sys_getuid")});

  EXPECT_EQ(static_cast<int>(r.verdicts.size()), 120);
  EXPECT_TRUE(r.invariant_holds()) << r.summary();
  EXPECT_EQ(r.host_crash, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_EQ(r.wrong_verdict, 0) << r.summary();
  EXPECT_GE(r.detected, 100) << "promo-toctou coverage too thin:\n" << r.summary();
  // The strike point guarantees a promoted site and the flip guarantees
  // divergence from the verified bytes: nothing may blend into benign.
  EXPECT_EQ(r.benign, 0) << r.summary();
  // Both attack shapes surfaced: the MAC flip as BadCallMac, the state
  // record flip as BadPolicyState.
  EXPECT_GT(r.matrix.at({Strike::CallMacFlip, Tier::Inline}).count(os::Violation::BadCallMac), 0u)
      << r.summary();
  EXPECT_GT(r.matrix.at({Strike::PolicyStateCorrupt, Tier::Inline})
                .count(os::Violation::BadPolicyState),
            0u)
      << r.summary();
}

// ---- the bounded enumeration ----
// Every (strike, tier, allowed stage) point at trigger 1, a few seeds each,
// on a guest whose sites reach every tier a site can hold: each of its 16
// iterations calls getpid (inline-eligible, so it climbs to Inline), then
// opens and closes a constant path (an authenticated-string argument, so it
// stays Shadowed).
GuestProgram two_site_guest() {
  using namespace asc::apps;
  tasm::Assembler a("twosite");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, 16);
  a.store(SP, 0, R11);
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  a.call("sys_getpid");
  a.lea(R1, "twosite_path");
  a.movi(R2, O_RDONLY);
  a.movi(R3, 0);
  a.call("sys_open");
  a.mov(R1, R0);
  a.call("sys_close");
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("twosite_path", "/lines.txt");
  emit_libc(a, kPers);
  GuestProgram g;
  g.name = "twosite";
  g.image = a.link();
  g.prepare_fs = testing::prepare_fs;
  return g;
}

TEST(FaultEnumeration, TwoSiteGuestReachesEveryTier) {
  // The tier each trap is served at, read at PreTrap: 4 first visits, the
  // open/close sites and getpid's warm-up Shadowed, getpid Inline after it.
  const auto pool = fault::install_pool({two_site_guest()});
  fault::Tenant tenant(pool.front());
  std::map<Tier, int> traps;
  int shadowed_with_string = 0;
  tenant.hook = [&](os::Process& p, os::TrapContext& ctx, os::TrapStage s) {
    if (s != os::TrapStage::PreTrap) return;
    const Tier t = tenant.kernel().tier_table().tier(p.pid, ctx.call_site);
    ++traps[t];
    const policy::Descriptor des(p.cpu.regs[isa::kRegPolicyDescriptor]);
    if (t == Tier::Shadowed && des.arg_is_authenticated_string(0)) ++shadowed_with_string;
  };
  const auto r = tenant.run("census");
  ASSERT_TRUE(r.has_value());
  tenant.expect_clean(*r, "census");
  EXPECT_TRUE(tenant.finish("").empty());
  EXPECT_EQ(traps[Tier::Eager], 4);
  EXPECT_EQ(traps[Tier::Shadowed], 32);
  EXPECT_EQ(traps[Tier::Inline], 13);
  EXPECT_EQ(traps.size(), 3u) << "no trap is served at the Cached tier";
  EXPECT_EQ(shadowed_with_string, 15);
}

TEST(FaultEnumeration, EveryPointHoldsTheInvariant) {
  CampaignConfig cfg;
  for (const FaultPoint point : fault::all_points()) {
    for (const auto stage : fault::all_trap_stages()) {
      if (!fault::stage_allowed(point.strike, stage)) continue;
      for (const std::uint64_t seed : {0x2aULL, 0x9e3779b97f4a7c15ULL, 0x51ed27a1c0ffeeULL}) {
        cfg.explicit_specs.push_back(FaultSpec{point, 1, seed, stage});
      }
    }
  }
  const CampaignResult r = Campaign(cfg).run(two_site_guest());
  ASSERT_EQ(r.verdicts.size(), cfg.explicit_specs.size());
  EXPECT_TRUE(r.invariant_holds()) << r.summary();
  EXPECT_EQ(r.wrong_verdict, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_EQ(r.host_crash, 0) << r.summary();

  // Points with no target on this guest. No inline-eligible site takes a
  // string argument; an event's trap-stage strike lands at the Trap
  // boundary, which an inline hit never reaches.
  const std::set<std::string> expected_not_applied = {
      "as-body-corrupt@inline:trap",
      "as-body-corrupt@inline:dispatch",
      "as-body-corrupt@inline:audit",
      "rotation-during-trap@inline:trap",
      "teardown-mid-verify@inline:trap",
      "double-invalidation@inline:trap",
      "rekey-toctou@inline:trap",
  };
  std::set<std::string> not_applied;
  std::set<std::string> applied;
  for (const auto& v : r.verdicts) {
    const std::string where =
        fault::point_name(v.spec.point) + ":" + os::trap_stage_name(v.spec.stage);
    (v.outcome == Outcome::NotApplied ? not_applied : applied).insert(where);
    if (v.outcome == Outcome::NotApplied) continue;
    switch (v.spec.point.strike) {
      case Strike::TeardownMidVerify:
      case Strike::DoubleInvalidation:
      case Strike::RekeyToctou:
        EXPECT_EQ(v.outcome, Outcome::Benign) << v.repro << ": " << v.detail;
        break;
      case Strike::RotationDuringTrap:
        EXPECT_TRUE(v.outcome == Outcome::Benign ||
                    (v.outcome == Outcome::Detected && v.violation == os::Violation::BadCallMac))
            << v.repro << ": " << v.detail;
        break;
      default:
        // A tamper before the trap is detected at every tier, with its
        // strike's verdict, and fail-stops the guest.
        if (v.spec.stage != os::TrapStage::Trap) break;
        EXPECT_EQ(v.outcome, Outcome::Detected) << v.repro << ": " << v.mutation;
        EXPECT_TRUE(v.guest_killed) << v.repro;
        const auto& exp = fault::expected_violations(v.spec.point.strike);
        EXPECT_NE(std::find(exp.begin(), exp.end(), v.violation), exp.end())
            << v.repro << ": " << os::violation_name(v.violation);
    }
  }
  EXPECT_EQ(not_applied, expected_not_applied);
  for (const auto& where : not_applied) {
    EXPECT_EQ(applied.count(where), 0u) << where << " applied for some seeds only";
  }
}

// ---- hooked runs stay on the threaded engine ----
// The injector strikes from the kernel's stage hook (PreTrap for a
// trap-stage tamper), so an armed run predecodes and fuses like any other,
// and its verdict and modeled cycles match the reference interpreter's.
TEST(FaultCampaign, ArmedInjectorRunsThreadedAndMatchesTheInterpreter) {
  const GuestProgram g = cat_guest();
  for (const char* repr : {"call-mac-flip:5:0x2a:trap", "policy-state-corrupt:4:0x99:dispatch",
                           "rotation-during-trap:3:0x7:enforce"}) {
    auto run = [&](vm::DispatchMode mode) {
      System sys(kPers);
      g.prepare_fs(sys.kernel().fs());
      const auto inst = sys.install(g.image);
      sys.machine().set_dispatch(mode);
      fault::FaultInjector inj(*fault::parse_spec(repr));
      inj.set_rotation_key(wrong_key());
      inj.arm(sys.kernel());
      const vm::RunResult r = sys.machine().run(inst.image, g.argv, g.stdin_data);
      EXPECT_TRUE(inj.applied()) << repr;
      return r;
    };
    const vm::RunResult threaded = run(vm::DispatchMode::Threaded);
    const vm::RunResult reference = run(vm::DispatchMode::Switch);
    EXPECT_GT(threaded.predecode.blocks, 0u) << repr << ": the hooked run left the engine";
    EXPECT_EQ(reference.predecode.blocks, 0u) << repr;
    EXPECT_NE(threaded.violation, os::Violation::None) << repr;
    EXPECT_EQ(threaded.violation, reference.violation) << repr;
    EXPECT_EQ(threaded.completed, reference.completed) << repr;
    EXPECT_EQ(threaded.cycles, reference.cycles) << repr;
    EXPECT_EQ(threaded.stdout_data, reference.stdout_data) << repr;
  }
}

TEST(FaultCampaign, IsDeterministicUnderASeed) {
  CampaignConfig cfg;
  cfg.seed = 77;
  cfg.runs_per_point = 3;
  const CampaignResult a = Campaign(cfg).run(cat_guest());
  const CampaignResult b = Campaign(cfg).run(cat_guest());
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].spec.trigger_call, b.verdicts[i].spec.trigger_call);
    EXPECT_EQ(a.verdicts[i].spec.seed, b.verdicts[i].spec.seed);
    EXPECT_EQ(a.verdicts[i].outcome, b.verdicts[i].outcome);
    EXPECT_EQ(a.verdicts[i].violation, b.verdicts[i].violation);
    EXPECT_EQ(a.verdicts[i].mutation, b.verdicts[i].mutation);
  }
}

// ---- graceful degradation: audit-only equivalence ----
// The same seeded mutations must yield the same FIRST verdict whether the
// kernel kills (fail-stop) or only records (audit-only); in audit-only mode
// the guest is never terminated by the monitor.
TEST(FaultCampaign, AuditOnlyYieldsSameVerdictsWithoutKilling) {
  CampaignConfig strict;
  strict.seed = 42;
  strict.runs_per_point = 4;
  CampaignConfig permissive = strict;
  permissive.mode = os::FailureMode::AuditOnly;

  const CampaignResult rs = Campaign(strict).run(vuln_echo_guest());
  const CampaignResult rp = Campaign(permissive).run(vuln_echo_guest());
  EXPECT_TRUE(rs.invariant_holds()) << rs.summary();
  EXPECT_TRUE(rp.invariant_holds()) << rp.summary();

  ASSERT_EQ(rs.verdicts.size(), rp.verdicts.size());
  int compared = 0;
  for (std::size_t i = 0; i < rs.verdicts.size(); ++i) {
    const auto& s = rs.verdicts[i];
    const auto& p = rp.verdicts[i];
    ASSERT_EQ(s.spec.seed, p.spec.seed);  // same mutation on both sides
    if (s.outcome != Outcome::Detected) continue;
    ++compared;
    EXPECT_EQ(p.outcome, Outcome::Detected);
    EXPECT_EQ(p.violation, s.violation)
        << fault::point_name(s.spec.point) << " verdict changed in audit-only mode";
    EXPECT_TRUE(s.guest_killed);
    EXPECT_FALSE(p.guest_killed) << "audit-only mode must never kill";
  }
  EXPECT_GT(compared, 0);
}

// ---- graceful degradation: kernel-level semantics ----

TEST(GracefulDegradation, AuditOnlyKernelRecordsButGuestCompletes) {
  // A kernel booted with the wrong key rejects every authenticated call;
  // in audit-only mode it must log each verdict yet let the guest run to
  // completion with its normal output.
  System clean(kPers);
  testing::prepare_fs(clean.kernel().fs());
  const auto inst = clean.install(apps::build_tool_cat(kPers));
  const auto r0 = clean.machine().run(inst.image, {"/lines.txt"});
  ASSERT_TRUE(r0.completed);

  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  sys.kernel().set_key(wrong_key());
  sys.kernel().set_failure_mode(os::FailureMode::AuditOnly);
  const auto r = sys.machine().run(inst.image, {"/lines.txt"});
  EXPECT_TRUE(r.completed) << r.violation_detail;
  EXPECT_EQ(r.exit_code, r0.exit_code);
  EXPECT_EQ(r.stdout_data, r0.stdout_data);

  int violations = 0;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind != os::AuditKind::Violation) continue;
    ++violations;
    EXPECT_FALSE(rec.killed);
    EXPECT_EQ(rec.violation, os::Violation::BadCallMac);
  }
  EXPECT_GT(violations, 2) << "every call should have been flagged";
}

TEST(GracefulDegradation, BudgetedKernelKillsAfterBudgetExceeded) {
  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(apps::build_tool_cat(kPers));
  sys.kernel().set_key(wrong_key());
  sys.kernel().set_failure_mode(os::FailureMode::Budgeted);
  sys.kernel().set_violation_budget(2);
  const auto r = sys.machine().run(inst.image, {"/lines.txt"});
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::BadCallMac);

  // Exactly budget+1 verdicts: two tolerated, the third kills.
  std::vector<bool> killed;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind == os::AuditKind::Violation) killed.push_back(rec.killed);
  }
  ASSERT_EQ(killed.size(), 3u);
  EXPECT_FALSE(killed[0]);
  EXPECT_FALSE(killed[1]);
  EXPECT_TRUE(killed[2]);
}

TEST(GracefulDegradation, ZeroBudgetMatchesFailStop) {
  auto run_mode = [&](os::FailureMode mode) {
    System sys(kPers);
    testing::prepare_fs(sys.kernel().fs());
    const auto inst = sys.install(apps::build_tool_cat(kPers));
    sys.kernel().set_key(wrong_key());
    sys.kernel().set_failure_mode(mode);
    return sys.machine().run(inst.image, {"/lines.txt"});
  };
  const auto strict = run_mode(os::FailureMode::FailStop);
  const auto budgeted = run_mode(os::FailureMode::Budgeted);  // budget = 0
  EXPECT_FALSE(strict.completed);
  EXPECT_FALSE(budgeted.completed);
  EXPECT_EQ(strict.violation, budgeted.violation);
  EXPECT_EQ(strict.violation_detail, budgeted.violation_detail);
}

// ---- structured audit records ----

TEST(AuditLog, RecordsCarryFullTrapContext) {
  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  sys.install_and_register("/bin/ls", apps::build_tool_cat(kPers));
  const auto inst = sys.install(apps::build_vuln_echo(kPers));
  const auto r = sys.machine().run(inst.image, {}, "/lines.txt\n");
  ASSERT_TRUE(r.completed) << r.violation_detail;

  const os::VerdictRecord* spawn = nullptr;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind == os::AuditKind::Spawn) spawn = &rec;
  }
  ASSERT_NE(spawn, nullptr);
  EXPECT_GT(spawn->pid, 0);
  EXPECT_FALSE(spawn->prog.empty());
  EXPECT_NE(spawn->call_site, 0u);
  EXPECT_EQ(spawn->sysno, *os::syscall_number(kPers, os::SysId::Spawn));
  EXPECT_EQ(spawn->violation, os::Violation::None);
  EXPECT_GT(spawn->vtime_ns, 0u);
  EXPECT_NE(spawn->detail.find("/bin/ls"), std::string::npos);

  // The one-line rendering still carries the historical prefixes.
  EXPECT_NE(spawn->to_string().find("SPAWN /bin/ls"), std::string::npos);
}

TEST(AuditLog, ViolationRecordMatchesProcessVerdict) {
  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(apps::build_tool_cat(kPers));
  sys.kernel().set_key(wrong_key());
  const auto r = sys.machine().run(inst.image, {"/lines.txt"});
  ASSERT_FALSE(r.completed);

  ASSERT_FALSE(sys.kernel().audit_log().empty());
  const auto& rec = sys.kernel().audit_log().front();
  EXPECT_EQ(rec.kind, os::AuditKind::Violation);
  EXPECT_EQ(rec.violation, r.violation);
  EXPECT_EQ(rec.detail, r.violation_detail);
  EXPECT_TRUE(rec.killed);
  EXPECT_GT(rec.pid, 0);
  EXPECT_NE(rec.call_site, 0u);
  EXPECT_NE(rec.to_string().find("ALERT"), std::string::npos);
  EXPECT_NE(rec.to_string().find(os::violation_name(rec.violation)),
            std::string::npos);
}

}  // namespace
}  // namespace asc
