// The per-pid health machine (os/health.h) and the chaos-engine surface
// (src/fault/chaos.h): internal inconsistencies must degrade a pid onto
// slower-but-sound verification paths -- never fail-stop it, never touch its
// violation budget -- and re-promotion must be earned with exponential
// backoff. Fixture names carry "ChaosEngine" so CI can select the suite.
#include <gtest/gtest.h>

#include "fault/campaign.h"
#include "fault/chaos.h"
#include "workloads.h"

namespace asc {
namespace {

using fault::FaultSpec;
using fault::GuestProgram;
using fault::MutationClass;
using fault::Outcome;
using os::HealthState;

const auto kPers = os::Personality::LinuxSim;

GuestProgram cat_guest() {
  GuestProgram g;
  g.name = "cat";
  g.image = apps::build_tool_cat(kPers);
  g.argv = {"/lines.txt", "/in.c"};
  g.prepare_fs = testing::prepare_fs;
  return g;
}

/// Clean reference behavior of cat_guest() under default enforcement.
vm::RunResult clean_reference() {
  const GuestProgram g = cat_guest();
  System sys(kPers);
  g.prepare_fs(sys.kernel().fs());
  return sys.machine().run(sys.install(g.image).image, g.argv, g.stdin_data);
}

int count_kind(System& sys, os::AuditKind kind) {
  int n = 0;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind == kind) ++n;
  }
  return n;
}

// Driver: run cat once with a per-call PreTrap hook; the hook sees the
// kernel BEFORE each trap is verified, giving a deterministic cycle model
// of the health machine (call index = time).
struct HookedRun {
  System sys{kPers};
  GuestProgram guest = cat_guest();
  binary::Image installed;
  int calls = 0;

  HookedRun() {
    guest.prepare_fs(sys.kernel().fs());
    installed = sys.install(guest.image).image;
  }

  vm::RunResult run(const std::function<void(os::Process&, int)>& at_call) {
    testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
      at_call(p, ++calls);
    });
    return sys.machine().run(installed, guest.argv, guest.stdin_data);
  }
};

// ---- the degradation lattice, one transition at a time ----

TEST(ChaosEngineHealth, InternalFaultDegradesThenRecoveryIsEarned) {
  const vm::RunResult ref = clean_reference();
  HookedRun h;
  h.sys.kernel().tier_table().set_health_promote_threshold(2);
  std::map<int, HealthState> seen;
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    seen[call] = h.sys.kernel().tier_table().health(p.pid);
    if (call == 2) h.sys.kernel().report_internal_fault(p, "test fault");
  });

  ASSERT_GT(h.calls, 5) << "guest too short to observe recovery";
  // The fault lands before call 2's verification: Degraded by call 3, and
  // two clean verifications (calls 2, 3) earn Healthy back by call 4.
  EXPECT_EQ(seen[1], HealthState::Healthy);
  EXPECT_EQ(seen[3], HealthState::Degraded);
  EXPECT_EQ(seen[4], HealthState::Healthy);

  // The guest never noticed: identical behavior, no Violation verdict.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.stdout_data, ref.stdout_data);
  EXPECT_EQ(r.exit_code, ref.exit_code);
  EXPECT_EQ(count_kind(h.sys, os::AuditKind::Violation), 0);
  EXPECT_EQ(count_kind(h.sys, os::AuditKind::InternalFault), 1);

  const auto& hs = h.sys.kernel().tier_table().health_stats();
  EXPECT_EQ(hs.internal_faults, 1u);
  EXPECT_EQ(hs.degradations, 1u);
  EXPECT_EQ(hs.quarantines, 0u);
  EXPECT_EQ(hs.recoveries, 1u);
  // end_process erased the pid's record.
  EXPECT_EQ(h.sys.kernel().tier_table().pids(), 0u);
}

TEST(ChaosEngineHealth, ShadowNonceDesyncCaughtBySelfCheck) {
  const vm::RunResult ref = clean_reference();
  HookedRun h;
  h.sys.kernel().tier_table().set_health_promote_threshold(100);  // stay Degraded
  bool injected = false;
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    if (call >= 3 && !injected && h.sys.kernel().tier_table().shadow(p.pid) != nullptr) {
      ++p.asc_counter;  // desync the kernel's own nonce copy
      injected = true;
    }
  });

  ASSERT_TRUE(injected) << "shadow never installed; nothing was tested";
  // The per-trap self-check must catch the desync, quarantine the fast
  // paths (resynced under the authoritative counter), and keep the guest
  // running clean -- this is a monitor-side defect, not guest tamper.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.stdout_data, ref.stdout_data);
  EXPECT_EQ(count_kind(h.sys, os::AuditKind::Violation), 0);
  const auto& hs = h.sys.kernel().tier_table().health_stats();
  EXPECT_EQ(hs.internal_faults, 1u);
  EXPECT_EQ(hs.degradations, 1u);
}

TEST(ChaosEngineHealth, RepeatedFaultsQuarantineWithExponentialBackoff) {
  HookedRun h;
  h.sys.kernel().tier_table().set_health_promote_threshold(2);
  h.sys.kernel().tier_table().set_health_backoff_cap(4);
  struct Snap {
    HealthState state;
    std::uint32_t promote_after;
    std::uint32_t quarantines;
  };
  std::map<int, Snap> snaps;
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    if (call >= 2 && call <= 5) {
      h.sys.kernel().report_internal_fault(p, "repeated fault");
      const os::HealthRecord* rec = h.sys.kernel().tier_table().health_record(p.pid);
      ASSERT_NE(rec, nullptr);
      snaps[call] = {rec->state, rec->promote_after, rec->quarantines};
    }
  });
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(snaps.size(), 4u);

  // Healthy -> Degraded -> Quarantined, then each re-entry doubles the
  // promotion streak until the cap: 2, 4, 4(capped).
  EXPECT_EQ(snaps[2].state, HealthState::Degraded);
  EXPECT_EQ(snaps[3].state, HealthState::Quarantined);
  EXPECT_EQ(snaps[3].promote_after, 2u);
  EXPECT_EQ(snaps[3].quarantines, 1u);
  EXPECT_EQ(snaps[4].promote_after, 4u);
  EXPECT_EQ(snaps[4].quarantines, 2u);
  EXPECT_EQ(snaps[5].promote_after, 4u) << "backoff must cap";
  EXPECT_EQ(snaps[5].quarantines, 3u);

  const auto& hs = h.sys.kernel().tier_table().health_stats();
  EXPECT_EQ(hs.internal_faults, 4u);
  EXPECT_EQ(hs.quarantines, 3u);
}

TEST(ChaosEngineHealth, QuarantineEvictsEveryFastPath) {
  HookedRun h;
  h.sys.kernel().tier_table().set_health_promote_threshold(100);  // no re-promotion
  bool checked = false;
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    if (call == 4 || call == 5) {
      h.sys.kernel().report_internal_fault(p, "fault");
    }
    if (call == 6) {
      EXPECT_EQ(h.sys.kernel().tier_table().health(p.pid), HealthState::Quarantined);
      EXPECT_FALSE(h.sys.kernel().tier_table().serves_cache(p.pid));
      EXPECT_FALSE(h.sys.kernel().tier_table().serves_shadow(p.pid));
      EXPECT_EQ(h.sys.kernel().tier_table().shadow(p.pid), nullptr);
      EXPECT_EQ(h.sys.kernel().tier_table().sites(p.pid), 0u);
      checked = true;
    }
  });
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(checked) << "guest too short";
}

TEST(ChaosEngineHealth, QuarantinedPidRepromotesAfterCleanEagerStreak) {
  HookedRun h;
  h.sys.kernel().tier_table().set_health_promote_threshold(1);
  std::map<int, HealthState> seen;
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    seen[call] = h.sys.kernel().tier_table().health(p.pid);
    if (call == 2) {
      // Back-to-back faults with no verification in between: straight
      // through Degraded into Quarantined.
      h.sys.kernel().report_internal_fault(p, "fault");
      h.sys.kernel().report_internal_fault(p, "fault");
      EXPECT_EQ(h.sys.kernel().tier_table().health(p.pid), HealthState::Quarantined);
    }
  });
  ASSERT_TRUE(r.completed);
  ASSERT_GT(h.calls, 4);
  // Call 2's own eager verification is clean, which with promote_after == 1
  // re-promotes to Degraded; call 3's clean verification earns Healthy.
  EXPECT_EQ(seen[3], HealthState::Degraded);
  EXPECT_EQ(seen[4], HealthState::Healthy);
  const auto& hs = h.sys.kernel().tier_table().health_stats();
  EXPECT_EQ(hs.repromotions, 1u);
  EXPECT_EQ(hs.recoveries, 1u);
}

// ---- FailureMode x health-state interaction (satellite) ----

TEST(ChaosEngineHealth, BudgetedModeNeverChargesInternalFaults) {
  // A budget of 1 would kill on the second Violation. Three internal faults
  // plus every quarantine-triggered eager re-verification must charge
  // NOTHING against it.
  const vm::RunResult ref = clean_reference();
  HookedRun h;
  h.sys.kernel().set_failure_mode(os::FailureMode::Budgeted);
  h.sys.kernel().set_violation_budget(1);
  h.sys.kernel().tier_table().set_health_promote_threshold(1);
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    if (call == 2) {
      h.sys.kernel().report_internal_fault(p, "fault");
      h.sys.kernel().report_internal_fault(p, "fault");  // -> Quarantined
    }
    if (call == 4) h.sys.kernel().report_internal_fault(p, "fault");
  });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.stdout_data, ref.stdout_data);
  EXPECT_EQ(r.exit_code, ref.exit_code);
  EXPECT_EQ(count_kind(h.sys, os::AuditKind::Violation), 0);
  EXPECT_EQ(count_kind(h.sys, os::AuditKind::InternalFault), 3);
}

TEST(ChaosEngineHealth, AuditOnlyModeStillRecordsTransitions) {
  HookedRun h;
  h.sys.kernel().set_failure_mode(os::FailureMode::AuditOnly);
  h.sys.kernel().tier_table().set_health_promote_threshold(100);
  const vm::RunResult r = h.run([&](os::Process& p, int call) {
    if (call == 2 || call == 3) h.sys.kernel().report_internal_fault(p, "fault");
  });
  ASSERT_TRUE(r.completed);
  bool saw_degraded = false;
  bool saw_quarantined = false;
  for (const auto& rec : h.sys.kernel().audit_log()) {
    if (rec.kind != os::AuditKind::Health) continue;
    saw_degraded |= rec.detail.find("healthy -> degraded") != std::string::npos;
    saw_quarantined |= rec.detail.find("degraded -> quarantined") != std::string::npos;
  }
  EXPECT_TRUE(saw_degraded) << "AuditOnly must still record Healthy -> Degraded";
  EXPECT_TRUE(saw_quarantined) << "AuditOnly must still record Degraded -> Quarantined";
}

// ---- reproducer spec grammar (satellite) ----

TEST(ChaosEngineSpec, ReprRoundTripsForEveryClassAndStage) {
  for (const auto cls : fault::all_mutation_classes()) {
    for (const auto stage : fault::all_trap_stages()) {
      if (!fault::stage_allowed(cls, stage)) continue;
      FaultSpec spec;
      spec.cls = cls;
      spec.trigger_call = 7;
      spec.seed = 0xdeadbeefcafeULL;
      spec.stage = stage;
      const auto back = fault::parse_spec(fault::spec_repr(spec));
      ASSERT_TRUE(back.has_value()) << fault::spec_repr(spec);
      EXPECT_EQ(back->cls, spec.cls);
      EXPECT_EQ(back->trigger_call, spec.trigger_call);
      EXPECT_EQ(back->seed, spec.seed);
      EXPECT_EQ(back->stage, spec.stage);
    }
  }
}

TEST(ChaosEngineSpec, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(fault::parse_spec("").has_value());
  EXPECT_FALSE(fault::parse_spec("garbage").has_value());
  EXPECT_FALSE(fault::parse_spec("call-mac-flip:1").has_value());
  EXPECT_FALSE(fault::parse_spec("call-mac-flip:0:0x1").has_value());
  EXPECT_FALSE(fault::parse_spec("no-such-class:1:0x1").has_value());
  EXPECT_FALSE(fault::parse_spec("call-mac-flip:1:0x1:bogus-stage").has_value());
  // Three-part form defaults to the classic Trap strike point.
  const auto spec = fault::parse_spec("call-mac-flip:3:0x2a");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->stage, os::TrapStage::Trap);
}

TEST(ChaosEngineSpec, StageEligibilityMatchesThreatModel) {
  // Register/TOCTOU/environmental classes are only coherent at trap entry.
  EXPECT_FALSE(fault::stage_allowed(MutationClass::RegisterSwap, os::TrapStage::Dispatch));
  EXPECT_FALSE(fault::stage_allowed(MutationClass::KeyMismatch, os::TrapStage::Audit));
  // AS-body flips between verify and dispatch are a single-trap double-fetch
  // TOCTOU outside the ASC threat model.
  EXPECT_FALSE(fault::stage_allowed(MutationClass::AsBodyCorrupt, os::TrapStage::Enforce));
  EXPECT_TRUE(fault::stage_allowed(MutationClass::AsBodyCorrupt, os::TrapStage::Audit));
  // Lifecycle classes strike at any boundary.
  for (const auto s : fault::all_trap_stages()) {
    EXPECT_TRUE(fault::stage_allowed(MutationClass::TeardownMidVerify, s));
    EXPECT_TRUE(fault::stage_allowed(MutationClass::RotationDuringTrap, s));
  }
}

// ---- lifecycle mutation classes through the campaign ----

TEST(ChaosEngineLifecycle, LifecycleClassesMeetExpectations) {
  fault::CampaignConfig cfg;
  cfg.seed = 20260808;
  cfg.runs_per_class = 6;
  cfg.classes = {MutationClass::RotationDuringTrap, MutationClass::TeardownMidVerify,
                 MutationClass::DoubleInvalidation};
  fault::Campaign campaign(cfg);
  const fault::CampaignResult r = campaign.run(cat_guest());

  EXPECT_TRUE(r.invariant_holds()) << r.summary();
  int rotation_detected = 0;
  for (const auto& v : r.verdicts) {
    if (v.spec.cls == MutationClass::RotationDuringTrap) {
      // A mid-trap rotation stales every signed byte: the next verified
      // call fail-stops with BadCallMac (Benign only when the rotation
      // landed after the guest's last verification).
      EXPECT_TRUE(v.outcome == Outcome::Detected || v.outcome == Outcome::Benign)
          << v.repro << ": " << v.detail;
      if (v.outcome == Outcome::Detected) {
        ++rotation_detected;
        EXPECT_EQ(v.violation, os::Violation::BadCallMac) << v.repro;
        EXPECT_TRUE(v.guest_killed) << v.repro;
      }
    } else {
      // Teardown storms and double invalidation are idempotent bookkeeping:
      // eager verification resumes coherently, behavior never diverges.
      EXPECT_EQ(v.outcome, Outcome::Benign) << v.repro << ": " << v.detail;
    }
  }
  EXPECT_GT(rotation_detected, 0);
}

TEST(ChaosEngineLifecycle, ExplicitSpecsReplayVerdictsExactly) {
  fault::CampaignConfig cfg;
  cfg.seed = 99;
  cfg.runs_per_class = 4;
  cfg.classes = {MutationClass::CallMacFlip, MutationClass::PolicyStateCorrupt};
  const fault::CampaignResult first = fault::Campaign(cfg).run(cat_guest());
  ASSERT_FALSE(first.verdicts.empty());

  fault::CampaignConfig replay_cfg = cfg;
  for (const auto& v : first.verdicts) {
    const auto spec = fault::parse_spec(v.repro);
    ASSERT_TRUE(spec.has_value()) << v.repro;
    replay_cfg.explicit_specs.push_back(*spec);
  }
  const fault::CampaignResult replay = fault::Campaign(replay_cfg).run(cat_guest());

  ASSERT_EQ(replay.verdicts.size(), first.verdicts.size());
  for (std::size_t i = 0; i < first.verdicts.size(); ++i) {
    EXPECT_EQ(replay.verdicts[i].outcome, first.verdicts[i].outcome)
        << first.verdicts[i].repro;
    EXPECT_EQ(replay.verdicts[i].violation, first.verdicts[i].violation)
        << first.verdicts[i].repro;
    EXPECT_EQ(replay.verdicts[i].repro, first.verdicts[i].repro);
  }
}

// ---- the chaos engine end to end (small; the 200-tenant storm is the
// `slow`-labeled soak in test_chaos_soak.cpp) ----

TEST(ChaosEngineRun, SmallStormIsSoundAndDeterministic) {
  fault::ChaosConfig cfg;
  cfg.seed = 424242;
  cfg.tenants = 10;
  const fault::ChaosResult a = fault::ChaosEngine(cfg).run();
  const fault::ChaosResult b = fault::ChaosEngine(cfg).run();

  EXPECT_TRUE(a.ok()) << a.summary();
  ASSERT_EQ(a.lifecycles.size(), 10u);
  EXPECT_EQ(a.clean_plans + a.tamper_plans + a.internal_plans, 10);
  EXPECT_EQ(a.verdict_trace, b.verdict_trace) << "chaos run is not deterministic";
  // Internal plans must have driven the health machine without a single
  // violation verdict (their lifecycles would have tripped otherwise).
  if (a.internal_plans > 0) EXPECT_GT(a.health.internal_faults, 0u);
}

TEST(ChaosEngineRun, InlineTierStormIsSoundAndStreamsStayLegacyCompatible) {
  // Every tenant kernel runs the Inline tier and promotes eligible sites,
  // the Tamper pool includes promo-toctou, and the pool includes the
  // pidloop guest -- and the run must still be sound: the post-run oracles
  // assert zero inline sites survive between runs, so teardown demotion
  // works under churn.
  fault::ChaosConfig cfg;
  cfg.seed = 424242;
  cfg.tenants = 16;
  const fault::ChaosResult a = fault::ChaosEngine(cfg).run();
  const fault::ChaosResult b = fault::ChaosEngine(cfg).run();
  EXPECT_TRUE(a.ok()) << a.summary();
  ASSERT_EQ(a.lifecycles.size(), 16u);
  EXPECT_EQ(a.verdict_trace, b.verdict_trace) << "inline chaos run is not deterministic";
}

TEST(ChaosEngineRun, WatchStatsBalanceAcrossLifecycles) {
  // Direct probe of the satellite: a full run's final_watch must balance.
  const GuestProgram g = cat_guest();
  System sys(kPers);
  g.prepare_fs(sys.kernel().fs());
  const vm::RunResult r = sys.machine().run(sys.install(g.image).image, g.argv, "");
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.final_watch.live_ranges, 0u);
  EXPECT_EQ(r.final_watch.live_refs, 0u);
  EXPECT_EQ(r.final_watch.registered, r.final_watch.released);
  EXPECT_GT(r.final_watch.registered, 0u) << "shadow/cache never watched anything";
  EXPECT_GE(r.final_watch.peak_ranges, 1u);
}

}  // namespace
}  // namespace asc
