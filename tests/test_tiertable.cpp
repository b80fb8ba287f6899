// The tiered verification lattice (os/tiertable.h): the Inline tier must buy
// cycles without buying trust. Promotion is earned by N consecutive clean
// Shadowed-tier verifications; demotion is driven by exactly the events that
// already invalidate the cache and the shadow (guest write, key rotation,
// teardown, health demotion, monitor swap); any tamper at a promoted site
// still fail-stops through the full pipeline.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "isa/isa.h"
#include "os/tiertable.h"
#include "policy/policy.h"
#include "tasm/assembler.h"
#include "workloads.h"

namespace asc {
namespace {

using os::DemotionCause;
using os::HealthState;

const auto kPers = os::Personality::LinuxSim;
constexpr std::uint32_t kIters = 2000;

// The paper's Table 4 microbenchmark shape: a tight getpid loop, the
// workload the inline tier exists for.
binary::Image build_pidloop() {
  using namespace asc::apps;
  tasm::Assembler a("pidloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, kIters);
  a.store(SP, 0, R11);
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  a.call("sys_getpid");
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  emit_libc(a, kPers);
  return a.link();
}

struct LoopRun {
  vm::RunResult result;
  os::TierStats stats;
  std::vector<os::TraceEntry> trace;
};

LoopRun run_pidloop(bool inline_on, std::uint32_t threshold = 4,
                    std::function<void(System&)> prep = {},
                    std::function<void(System&, os::Process&, std::uint32_t)> hook = {}) {
  System sys(kPers, test_key(), os::Enforcement::Asc);
  sys.kernel().set_inline_tier(inline_on);
  sys.kernel().tier_table().set_inline_threshold(threshold);
  if (prep) prep(sys);
  if (hook) {
    testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t site) {
      hook(sys, p, site);
    });
  }
  const auto inst = sys.install(build_pidloop());
  LoopRun lr;
  lr.result = sys.machine().run(inst.image);
  lr.stats = sys.kernel().tier_stats();
  lr.trace = sys.kernel().trace();
  return lr;
}

// ---- unit surface ----

TEST(TierTableUnit, EligibilityIsSideEffectLight) {
  using os::SysId;
  EXPECT_TRUE(os::inline_eligible(SysId::Getpid));
  EXPECT_TRUE(os::inline_eligible(SysId::Getuid));
  EXPECT_TRUE(os::inline_eligible(SysId::Gettimeofday));
  EXPECT_TRUE(os::inline_eligible(SysId::Time));
  // Umask RETURNS cheaply but mutates kernel state; anything touching fds,
  // the fs, or the memory map stays on the full pipeline forever.
  EXPECT_FALSE(os::inline_eligible(SysId::Umask));
  EXPECT_FALSE(os::inline_eligible(SysId::Open));
  EXPECT_FALSE(os::inline_eligible(SysId::Write));
  EXPECT_FALSE(os::inline_eligible(SysId::Brk));
  EXPECT_FALSE(os::inline_eligible(SysId::Spawn));
}

TEST(TierTableUnit, NamesAndThresholdClamp) {
  EXPECT_EQ(os::tier_name(os::Tier::Inline), "inline");
  EXPECT_EQ(os::tier_name(os::Tier::Eager), "eager");
  EXPECT_EQ(os::demotion_cause_name(DemotionCause::GuestWrite), "guest-write");
  EXPECT_EQ(os::demotion_cause_name(DemotionCause::ProbeMismatch), "probe-mismatch");
  const std::optional<crypto::MacKey> key;
  const os::CostModel cost;
  os::TierTable t(key, cost);
  t.set_inline_threshold(0);
  EXPECT_EQ(t.inline_threshold(), 1u);  // 0 would promote on no evidence
}

// ---- end-to-end: the trap-less tier on a real guest ----

TEST(TierTableRun, GetpidLoopPromotesAndBehaviorIsIdentical) {
  const LoopRun off = run_pidloop(false);
  ASSERT_TRUE(off.result.completed) << off.result.violation_detail;
  EXPECT_EQ(off.stats.inline_hits, 0u);
  EXPECT_EQ(off.stats.promotions, 0u);

  const LoopRun on = run_pidloop(true);
  ASSERT_TRUE(on.result.completed) << on.result.violation_detail;
  EXPECT_EQ(on.stats.promotions, 1u) << "one getpid site, one promotion";
  EXPECT_GT(on.stats.inline_hits, kIters / 2u)
      << "after warm-up virtually every call must be served trap-less";

  // The inline tier may change cycle accounting, nothing else.
  EXPECT_EQ(on.result.exit_code, off.result.exit_code);
  EXPECT_EQ(on.result.stdout_data, off.result.stdout_data);
  EXPECT_EQ(on.result.syscalls, off.result.syscalls);
  EXPECT_LT(on.result.cycles, off.result.cycles)
      << "the probe must charge strictly less than the shadowed pipeline";
}

// One record per site: the trap that promotes it registers no watch of its
// own, and at steady state every watched range holds exactly one reference
// (call MAC and pred set from the site record, state record from the
// shadow).
TEST(TierTableRun, PromotionRegistersNoWatch) {
  bool was_promoted = false;
  std::uint64_t registered_at_last_trap = 0;
  std::optional<std::uint64_t> promoting_delta;
  vm::Memory::WatchStats steady{};
  int calls = 0;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/4, {},
      [&](System& sys, os::Process& p, std::uint32_t site) {
        const vm::Memory::WatchStats w = p.mem.watch_stats();
        const bool promoted = sys.kernel().tier_table().inline_site_promoted(p.pid, site);
        if (promoted && !was_promoted && !promoting_delta) {
          promoting_delta = w.registered - registered_at_last_trap;
        }
        was_promoted = promoted;
        registered_at_last_trap = w.registered;
        if (++calls == 1000) steady = w;
      });
  ASSERT_TRUE(lr.result.completed) << lr.result.violation_detail;
  ASSERT_TRUE(promoting_delta.has_value()) << "the getpid site never promoted";
  EXPECT_EQ(promoting_delta.value(), 0u) << "the promoting trap registered watches";
  ASSERT_GT(calls, 1000);
  EXPECT_GT(steady.live_ranges, 0u);
  EXPECT_EQ(steady.live_refs, steady.live_ranges) << "a range is watched twice";
}

// Inline hits share the full pipeline's dispatch tail: the trace a promoted
// site leaves is the one the full pipeline leaves, entry for entry.
TEST(TierTableRun, InlineHitTracesLikeTheFullPipeline) {
  auto traced = [](System& sys) { sys.kernel().set_tracing(true); };
  const LoopRun off = run_pidloop(false, 4, traced);
  const LoopRun on = run_pidloop(true, 4, traced);
  ASSERT_TRUE(off.result.completed) << off.result.violation_detail;
  ASSERT_TRUE(on.result.completed) << on.result.violation_detail;
  ASSERT_GT(on.stats.inline_hits, kIters / 2u);
  ASSERT_EQ(on.trace.size(), off.trace.size());
  for (std::size_t i = 0; i < on.trace.size(); ++i) {
    const os::TraceEntry& a = on.trace[i];
    const os::TraceEntry& b = off.trace[i];
    EXPECT_EQ(a.id, b.id) << "entry " << i;
    EXPECT_EQ(a.sysno, b.sysno) << "entry " << i;
    EXPECT_EQ(a.call_site, b.call_site) << "entry " << i;
    EXPECT_EQ(a.args, b.args) << "entry " << i;
    EXPECT_EQ(a.ret, b.ret) << "entry " << i;
    EXPECT_EQ(a.path, b.path) << "entry " << i;
  }
}

// PreTrap fires on every trap, inline hits included; an inline hit fires no
// Trap..Audit stage, which is how a stage tracer tells the two apart.
TEST(TierTableRun, PreTrapFiresOnEveryTrapAndInlineHitsFireNoOtherStage) {
  std::array<std::uint64_t, 5> fired{};
  const LoopRun on = run_pidloop(true, 4, [&](System& sys) {
    sys.kernel().set_stage_hook([&](os::Process&, os::TrapContext&, os::TrapStage s) {
      ++fired[static_cast<std::size_t>(s)];
    });
  });
  ASSERT_TRUE(on.result.completed) << on.result.violation_detail;
  ASSERT_GT(on.stats.inline_hits, kIters / 2u);
  auto count = [&](os::TrapStage s) { return fired[static_cast<std::size_t>(s)]; };
  EXPECT_EQ(count(os::TrapStage::PreTrap), on.result.syscalls);
  EXPECT_EQ(count(os::TrapStage::Trap), on.result.syscalls - on.stats.inline_hits);
  EXPECT_EQ(count(os::TrapStage::Enforce), count(os::TrapStage::Trap));
  EXPECT_EQ(count(os::TrapStage::Audit), count(os::TrapStage::Trap));
}

TEST(TierTableRun, InlineTierIsOffByDefault) {
  System sys(kPers, test_key(), os::Enforcement::Asc);
  EXPECT_FALSE(sys.kernel().tier_table().inline_enabled());
  const auto inst = sys.install(build_pidloop());
  const auto r = sys.machine().run(inst.image);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_EQ(sys.kernel().tier_stats().inline_hits, 0u);
  EXPECT_EQ(sys.kernel().tier_stats().promotions, 0u);
}

// The ISSUE's Table 4 target: getpid overhead at the inline tier within 5%
// of the unauthenticated baseline (from ~25.7% at the shadow tier).
TEST(TierTableRun, InlineOverheadWithinFivePercentOfBaseline) {
  System base_sys(kPers, test_key(), os::Enforcement::Off);
  const auto rb = base_sys.machine().run(build_pidloop());
  ASSERT_TRUE(rb.completed) << rb.violation_detail;

  const LoopRun on = run_pidloop(true);
  ASSERT_TRUE(on.result.completed) << on.result.violation_detail;

  const double base = static_cast<double>(rb.cycles);
  const double auth = static_cast<double>(on.result.cycles);
  const double overhead_pct = (auth - base) / base * 100.0;
  EXPECT_LE(overhead_pct, 5.0) << "inline getpid overhead " << overhead_pct << "%";
}

TEST(TierTableRun, QuarantinedPidNeverHoldsAnInlineSiteAndRepromotionIsEarned) {
  int calls = 0;
  std::size_t sites_at_fault = ~std::size_t{0};
  std::size_t sites_in_quarantine = ~std::size_t{0};
  HealthState state_after_faults = HealthState::Healthy;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/3,
      [](System& sys) { sys.kernel().tier_table().set_health_promote_threshold(3); },
      [&](System& sys, os::Process& p, std::uint32_t) {
        ++calls;
        if (calls == 40) {
          EXPECT_GT(sys.kernel().tier_table().inline_sites(), 0u)
              << "site never promoted before the fault";
          // Two internal faults: Healthy -> Degraded -> Quarantined. The
          // demotion must revoke every promotion of the pid immediately.
          sys.kernel().report_internal_fault(p, "oracle: planted fault one");
          sys.kernel().report_internal_fault(p, "oracle: planted fault two");
          sites_at_fault = sys.kernel().tier_table().inline_sites();
          state_after_faults = sys.kernel().tier_table().health(p.pid);
        }
        if (calls == 41) sites_in_quarantine = sys.kernel().tier_table().inline_sites();
      });
  ASSERT_TRUE(lr.result.completed) << lr.result.violation_detail;
  EXPECT_EQ(state_after_faults, HealthState::Quarantined);
  EXPECT_EQ(sites_at_fault, 0u) << "a demoted pid held on to an inline site";
  EXPECT_EQ(sites_in_quarantine, 0u) << "a quarantined pid re-acquired an inline site";
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::HealthDemotion)], 1u);
  // Recovery is earned, not granted: Quarantined -> Degraded -> Healthy via
  // clean-streak re-promotion, then the shadow refills, then the inline
  // streak is re-earned from zero -- so the loop's tail promotes AGAIN.
  EXPECT_GE(lr.stats.promotions, 2u)
      << "site did not re-earn promotion after health recovery";
  EXPECT_GT(lr.stats.inline_hits, 0u);
}

// A benign same-value write into the policy-state record of a promoted site:
// the spine must write back the shadow under the authoritative kernel
// counter BEFORE the write lands, demote the site, and let the eager §3.2
// protocol resume coherently -- so the run completes and the site re-earns
// promotion afterwards.
TEST(TierTableRun, DemotionResyncsGuestStateUnderAuthoritativeCounter) {
  int touched = 0;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/3, {},
      [&](System& sys, os::Process& p, std::uint32_t site) {
        if (touched > 0 || !sys.kernel().tier_table().inline_site_promoted(p.pid, site)) return;
        const std::uint32_t lb = p.cpu.regs[isa::kRegStatePtr];
        ASSERT_TRUE(p.mem.in_range(lb, policy::kPolicyStateSize));
        p.mem.w8(lb, p.mem.r8(lb));  // same value; the watch keys on the write
        ++touched;
        EXPECT_FALSE(sys.kernel().tier_table().inline_site_promoted(p.pid, site))
            << "write into the state record left the promotion alive";
      });
  ASSERT_TRUE(lr.result.completed)
      << "resync failed: " << lr.result.violation_detail;
  EXPECT_EQ(touched, 1);
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::GuestWrite)], 1u);
  EXPECT_GE(lr.stats.promotions, 2u) << "site did not re-earn promotion after the resync";
}

// Genuine tamper at an already-promoted site (the promo-toctou shape): a bit
// flip in the call MAC demotes the site via the write watch, the next call
// re-enters the full pipeline, and verification fail-stops. Inline execution
// never outlives the tamper.
TEST(TierTableRun, TamperAtPromotedSiteFailStops) {
  int flipped = 0;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/3, {},
      [&](System& sys, os::Process& p, std::uint32_t site) {
        if (flipped > 0 || !sys.kernel().tier_table().inline_site_promoted(p.pid, site)) return;
        const std::uint32_t mac_ptr = p.cpu.regs[isa::kRegCallMac];
        ASSERT_TRUE(p.mem.in_range(mac_ptr, 16));
        p.mem.w8(mac_ptr, p.mem.r8(mac_ptr) ^ 0x01);
        ++flipped;
      });
  EXPECT_EQ(flipped, 1);
  EXPECT_FALSE(lr.result.completed) << "tampered call MAC survived at a promoted site";
  EXPECT_EQ(lr.result.violation, os::Violation::BadCallMac);
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::GuestWrite)], 1u);
}

TEST(TierTableRun, KeyRotationAndMonitorSwapDemote) {
  int rotated = 0;
  int swapped = 0;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/3, {},
      [&](System& sys, os::Process& p, std::uint32_t site) {
        if (rotated == 0 && sys.kernel().tier_table().inline_site_promoted(p.pid, site)) {
          // test_key() is deterministic, so this re-installs the same key:
          // verification keeps succeeding, but the rotation itself must
          // revoke every promotion (old-key verifications are void).
          sys.kernel().set_key(test_key());
          ++rotated;
          EXPECT_EQ(sys.kernel().tier_table().inline_sites(), 0u);
          return;
        }
        if (rotated == 1 && swapped == 0 &&
            sys.kernel().tier_table().inline_site_promoted(p.pid, site)) {
          sys.kernel().set_enforcement(os::Enforcement::Asc);  // monitor replaced
          ++swapped;
          EXPECT_EQ(sys.kernel().tier_table().inline_sites(), 0u);
        }
      });
  ASSERT_TRUE(lr.result.completed) << lr.result.violation_detail;
  EXPECT_EQ(rotated, 1);
  EXPECT_EQ(swapped, 1);
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::KeyRotation)], 1u);
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::MonitorSwap)], 1u);
  EXPECT_GE(lr.stats.promotions, 3u) << "promotion must be re-earned after each revocation";
}

TEST(TierTableRun, TeardownLeavesNoSitesAndBalancedWatchAccounting) {
  System sys(kPers, test_key(), os::Enforcement::Asc);
  sys.kernel().set_inline_tier(true);
  sys.kernel().tier_table().set_inline_threshold(3);
  const auto inst = sys.install(build_pidloop());
  const auto r = sys.machine().run(inst.image);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_GT(sys.kernel().tier_stats().inline_hits, 0u);
  EXPECT_EQ(sys.kernel().tier_table().inline_sites(), 0u) << "teardown must demote every site";
  EXPECT_GE(sys.kernel().tier_stats()
                .demotions[static_cast<std::size_t>(DemotionCause::Teardown)],
            1u);
  // The site's own refcounted watches all returned: the process ended with
  // balanced watch accounting (the chaos oracles assert the same).
  EXPECT_EQ(r.final_watch.live_ranges, 0u);
  EXPECT_EQ(r.final_watch.live_refs, 0u);
  EXPECT_EQ(r.final_watch.registered, r.final_watch.released);
}

TEST(TierTableRun, GatingOffAFastPathDemotesInsteadOfOrphaning) {
  int gated = 0;
  const LoopRun lr = run_pidloop(
      true, /*threshold=*/3, {},
      [&](System& sys, os::Process& p, std::uint32_t site) {
        if (gated > 0 || !sys.kernel().tier_table().inline_site_promoted(p.pid, site)) return;
        // The probe depends on the shadow nonce; switching the shadow off
        // must revoke the promotion through the same table, not leave an
        // inline site probing a mechanism that no longer exists.
        sys.kernel().set_policy_shadow(false);
        ++gated;
        EXPECT_EQ(sys.kernel().tier_table().inline_sites(), 0u);
        sys.kernel().set_policy_shadow(true);  // and the tail re-earns it
      });
  ASSERT_TRUE(lr.result.completed) << lr.result.violation_detail;
  EXPECT_EQ(gated, 1);
  EXPECT_GE(lr.stats.demotions[static_cast<std::size_t>(DemotionCause::Disabled)], 1u);
  EXPECT_GE(lr.stats.promotions, 2u);
}

}  // namespace
}  // namespace asc
