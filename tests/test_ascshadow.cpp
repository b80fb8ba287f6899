// The Shadowed tier of the lattice (os/tiertable.h): the control-flow fast
// path must skip the per-call state MACs without weakening the §3.2 online
// memory checker. A shadow exists only after a full slow-path verification;
// any guest write into the watched record writes the trusted bytes back
// FIRST and drops the shadow; key rotation, teardown, and runtime disabling
// all flush; one process's shadow can never serve another.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "fault/campaign.h"
#include "isa/isa.h"
#include "os/tiertable.h"
#include "policy/policy.h"
#include "tasm/assembler.h"
#include "util/executor.h"
#include "workloads.h"

namespace asc {
namespace {

using os::TierTable;

const auto kPers = os::Personality::LinuxSim;
constexpr std::uint32_t kStateSize = policy::kPolicyStateSize;
constexpr std::uint32_t kState = binary::kAddressSpaceBase + 0x1000;

// A lattice bound to a real key and cost model; the processes whose address
// spaces it watches are declared by each test.
struct Lattice {
  std::optional<crypto::MacKey> key{crypto::MacKey(test_key())};
  os::CostModel cost;
  TierTable table{key, cost};

  /// The record a write-back of {last_block, counter} leaves in memory.
  std::vector<std::uint8_t> materialized(std::uint32_t last_block, std::uint64_t counter) const {
    std::vector<std::uint8_t> out(4);
    for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(last_block >> (8 * i));
    const crypto::Mac mac = key.value().mac(policy::encode_policy_state(last_block, counter));
    out.insert(out.end(), mac.begin(), mac.end());
    return out;
  }
  std::uint64_t write_back_cycles() const {
    return cost.mac_cost(policy::encode_policy_state(0, 0).size());
  }
};

os::Process process(int pid) {
  os::Process p;
  p.pid = pid;
  return p;
}

/// Advance `pid`'s shadow at kState exactly as a Shadowed-tier hit would.
void hit(TierTable& t, int pid, std::uint32_t last_block, std::uint64_t counter) {
  TierTable::Shadow* sh = t.find_shadow(pid, kState);
  ASSERT_NE(sh, nullptr);
  sh->last_block = last_block;
  sh->counter = counter;
  sh->dirty = true;
}

// ---- pure shadow semantics ----

TEST(AscShadowUnit, FindRequiresTheExactStatePointer) {
  Lattice l;
  os::Process p = process(1);
  EXPECT_EQ(l.table.find_shadow(1, kState), nullptr);  // cold: miss
  l.table.install_shadow(p, kState, 7, 3);
  TierTable::Shadow* e = l.table.find_shadow(1, kState);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->last_block, 7u);
  EXPECT_EQ(e->counter, 3u);
  EXPECT_FALSE(e->dirty);
  // A repointed lbPtr must never be served by the old record.
  EXPECT_EQ(l.table.find_shadow(1, kState + 0x100), nullptr);
  EXPECT_EQ(l.table.stats().shadowed, 1u);
  EXPECT_EQ(l.table.stats().shadow_misses, 2u);
  EXPECT_EQ(p.mem.watch_stats().live_refs, 1u);
}

TEST(AscShadowUnit, EntriesArePidIsolated) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.install_shadow(a, kState, 7, 3);
  // Identical state pointer, different process: serving pid 1's verified
  // control-flow state to pid 2 would let pid 2 ride on pid 1's history.
  EXPECT_EQ(l.table.find_shadow(2, kState), nullptr);
  // A write at the same address in pid 2's address space drops pid 2's own
  // shadow and leaves pid 1's alone.
  l.table.install_shadow(b, kState, 9, 5);
  b.mem.w32(kState, 0);
  EXPECT_EQ(l.table.shadow(2), nullptr);
  EXPECT_NE(l.table.find_shadow(1, kState), nullptr);
  EXPECT_EQ(a.mem.watch_stats().live_refs, 1u);
}

TEST(AscShadowUnit, InvalidationUnwatchesBeforeWritingBackDirtyEntries) {
  Lattice l;
  os::Process p = process(1);
  l.table.install_shadow(p, kState, 7, 3);
  hit(l.table, 1, 9, 4);  // the guest record is now stale (dirty)

  // The exec-watch channel fires on every store into the record before the
  // bytes change, independent of the data watches: it shows how many data
  // watches are live at each store.
  std::vector<std::size_t> live_at_store;
  p.mem.set_exec_watch(
      [&](std::uint32_t, std::uint32_t) { live_at_store.push_back(p.mem.watch_count()); });
  p.mem.expand_exec_envelope(kState, kState + kStateSize);

  p.mem.w8(kState + kStateSize - 1, 0xee);  // last byte overlaps
  EXPECT_EQ(l.table.shadow(1), nullptr);
  EXPECT_EQ(l.table.stats().write_backs, 1u);
  // The guest store, then the write-back's two stores: the range is
  // unwatched BEFORE the write-back runs, so its own stores cannot re-enter
  // the invalidation path.
  ASSERT_EQ(live_at_store.size(), 3u);
  EXPECT_EQ(live_at_store[0], 1u);
  EXPECT_EQ(live_at_store[1], 0u);
  EXPECT_EQ(live_at_store[2], 0u);
  // The ADVANCED record was materialized, and the guest byte landed on top.
  std::vector<std::uint8_t> expect = l.materialized(9, 4);
  expect.back() = 0xee;
  EXPECT_EQ(p.mem.read_bytes(kState, kStateSize), expect);
  EXPECT_EQ(p.cycles, l.write_back_cycles());
}

TEST(AscShadowUnit, CleanEntriesDropWithoutWriteBack) {
  Lattice l;
  os::Process p = process(1);
  l.table.install_shadow(p, kState, 7, 3);  // dirty = false: shadow and guest agree
  p.mem.w32(kState, 0);
  EXPECT_EQ(l.table.shadow(1), nullptr);
  EXPECT_EQ(l.table.stats().write_backs, 0u) << "clean record owes no CMAC";
  EXPECT_EQ(p.cycles, 0u);
  EXPECT_EQ(p.mem.watch_stats().live_refs, 0u);
}

TEST(AscShadowUnit, NonOverlappingWritesAreIgnored) {
  Lattice l;
  os::Process p = process(1);
  l.table.install_shadow(p, kState, 7, 3);
  p.mem.w32(kState - 4, 0);  // ends exactly at the record
  p.mem.write_bytes(kState + kStateSize, std::vector<std::uint8_t>(8));  // starts just past it
  EXPECT_NE(l.table.shadow(1), nullptr);
  EXPECT_EQ(p.mem.watch_stats().live_refs, 1u);
}

TEST(AscShadowUnit, InstallReplacesThePriorEntryThroughTheFullDropPath) {
  Lattice l;
  os::Process p = process(1);
  const std::uint32_t moved = kState + 0x100;
  l.table.install_shadow(p, kState, 7, 3);
  hit(l.table, 1, 7, 3);
  // Repointed lbPtr: the old record must be unwatched and written back, or
  // the guest keeps a stale un-MACed record plus a leaked watch range.
  l.table.install_shadow(p, moved, 8, 4);
  EXPECT_EQ(l.table.find_shadow(1, kState), nullptr);
  EXPECT_NE(l.table.find_shadow(1, moved), nullptr);
  EXPECT_EQ(l.table.stats().write_backs, 1u);
  EXPECT_EQ(p.mem.read_bytes(kState, kStateSize), l.materialized(7, 3));
  const vm::Memory::WatchStats w = p.mem.watch_stats();
  EXPECT_EQ(w.live_refs, 1u);
  EXPECT_EQ(w.registered, 2u);
  EXPECT_EQ(w.released, 1u);
}

TEST(AscShadowUnit, FlushAllWritesBackAndKeepsHooks) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.install_shadow(a, kState, 7, 3);
  l.table.install_shadow(b, kState + 0x100, 9, 5);
  hit(l.table, 1, 7, 3);

  l.table.set_shadow_enabled(false);  // runtime disable (key rotation alike)
  EXPECT_EQ(l.table.shadow(1), nullptr);
  EXPECT_EQ(l.table.shadow(2), nullptr);
  EXPECT_EQ(l.table.stats().write_backs, 1u) << "only pid 1 was dirty";
  EXPECT_EQ(a.cycles, l.write_back_cycles());
  EXPECT_EQ(b.cycles, 0u);
  EXPECT_EQ(a.mem.watch_stats().live_refs, 0u);
  EXPECT_EQ(b.mem.watch_stats().live_refs, 0u);
  // The processes are still alive: their records (and memory handles)
  // survive, so a re-install needs no re-wiring and guest writes still
  // reach the spine.
  EXPECT_EQ(l.table.pids(), 2u);
  l.table.set_shadow_enabled(true);
  l.table.install_shadow(a, kState, 7, 3);
  a.mem.w8(kState, 7);
  EXPECT_EQ(l.table.shadow(1), nullptr);
}

TEST(AscShadowUnit, FlushPidDropsEntryAndHooks) {
  Lattice l;
  os::Process p = process(1);
  l.table.install_shadow(p, kState, 7, 3);
  hit(l.table, 1, 8, 4);
  l.table.end_process(1);  // teardown: the Memory reference dies with the pid
  EXPECT_EQ(l.table.shadow(1), nullptr);
  EXPECT_EQ(l.table.pids(), 0u);
  EXPECT_EQ(l.table.stats().write_backs, 1u);
  EXPECT_EQ(p.mem.read_bytes(kState, kStateSize), l.materialized(8, 4));
  EXPECT_EQ(p.mem.watch_stats().live_refs, 0u);
  l.table.end_process(1);  // idempotent on an absent pid
  EXPECT_EQ(l.table.stats().write_backs, 1u);
}

// ---- end-to-end: the fast path on real guests ----

vm::RunResult run_cat(System& sys) {
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(apps::build_tool_cat(kPers));
  return sys.machine().run(inst.image, {"/lines.txt", "/in.c"});
}

TEST(AscShadowRun, RepeatedCallsHitAndBehaviorIsIdentical) {
  System shadowed(kPers);
  const auto rs = run_cat(shadowed);
  ASSERT_TRUE(rs.completed) << rs.violation_detail;
  const os::TierStats st = shadowed.kernel().tier_stats();
  EXPECT_GT(st.shadowed, 0u) << "cat's loop repeats control-flow checks; they must hit";
  EXPECT_GT(st.shadow_misses, 0u) << "the first check misses and installs the shadow";
  // Teardown flushed the pid: no shadow survives the run.
  EXPECT_EQ(shadowed.kernel().tier_table().pids(), 0u);
  EXPECT_GE(st.write_backs, 1u) << "the dirty record owes a write-back at teardown";

  System eager(kPers);
  eager.kernel().set_policy_shadow(false);
  const auto re = run_cat(eager);
  ASSERT_TRUE(re.completed) << re.violation_detail;

  // The shadow may change cycle accounting, nothing else.
  EXPECT_EQ(rs.exit_code, re.exit_code);
  EXPECT_EQ(rs.stdout_data, re.stdout_data);
  EXPECT_EQ(rs.stderr_data, re.stderr_data);
  EXPECT_EQ(rs.syscalls, re.syscalls);
  EXPECT_LT(rs.cycles, re.cycles) << "shadow hits must charge less than two CMACs";
  EXPECT_EQ(eager.kernel().tier_stats().shadowed, 0u);
  EXPECT_EQ(eager.kernel().tier_stats().shadow_misses, 0u);
}

TEST(AscShadowRun, GuestRecordLagsUntilAWriteForcesWriteBack) {
  System sys(kPers);
  int calls = 0;
  bool saw_dirty = false;
  std::size_t watches_before = 0;
  std::size_t watches_after = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++calls != 8) return;
    const std::uint32_t lb = p.cpu.regs[isa::kRegStatePtr];
    if (!p.mem.in_range(lb, kStateSize)) return;
    const TierTable::Shadow* e = sys.kernel().tier_table().shadow(p.pid);
    ASSERT_NE(e, nullptr) << "seven verified calls in, the pid must be shadowed";
    saw_dirty = e->dirty;
    const std::uint32_t trusted_block = e->last_block;
    // Same-value touch: the write watch fires BEFORE the byte changes, so
    // the trusted record is materialized first and the (stale) byte lands
    // on top of it.
    watches_before = p.mem.watch_count();
    p.mem.w8(lb, p.mem.r8(lb));
    watches_after = p.mem.watch_count();
    // Repair the one touched byte with the kernel's trusted lastBlock: the
    // record is now exactly what the eager protocol would have left, so the
    // slow path re-verifies it and the run completes.
    p.mem.w32(lb, trusted_block);
    EXPECT_EQ(sys.kernel().tier_table().shadow(p.pid), nullptr) << "the write must drop it";
  });
  const auto r = run_cat(sys);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_TRUE(saw_dirty) << "hits alone must leave the guest record stale";
  EXPECT_LT(watches_after, watches_before) << "the dropped entry must return its range";
  EXPECT_GE(sys.kernel().tier_stats().write_backs, 1u);
}

TEST(AscShadowRun, KeyRotationFlushesTheShadowMidRun) {
  System sys(kPers);
  int calls = 0;
  bool rotated = false;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++calls != 8 || sys.kernel().tier_table().shadow(p.pid) == nullptr) return;
    const std::size_t watches = p.mem.watch_count();
    // Rotation writes dirty records back under the OLD key before the new
    // key lands; rotating to the same key keeps the guest images valid, so
    // the run must continue -- through the slow path, record re-verified.
    sys.kernel().set_key(test_key());
    rotated = true;
    EXPECT_EQ(sys.kernel().tier_table().shadow(p.pid), nullptr);
    EXPECT_LT(p.mem.watch_count(), watches) << "flushed state must unwatch";
    EXPECT_EQ(sys.kernel().tier_table().sites(), 0u) << "rotation drops the site records too";
  });
  const auto r = run_cat(sys);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_TRUE(rotated);
  EXPECT_GE(sys.kernel().tier_stats().write_backs, 1u);
}

TEST(AscShadowRun, DisablingMidRunResumesTheEagerProtocolCoherently) {
  System sys(kPers);
  int calls = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++calls != 8 || !sys.kernel().tier_table().shadow_enabled()) return;
    sys.kernel().set_policy_shadow(false);
    EXPECT_EQ(sys.kernel().tier_table().shadow(p.pid), nullptr);
  });
  const auto r = run_cat(sys);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  const os::TierStats st = sys.kernel().tier_stats();
  EXPECT_GT(st.shadowed, 0u) << "the fast path ran before the switch";
  EXPECT_GE(st.write_backs, 1u) << "disabling must materialize the dirty record";
}

// The paper's Table 4 getpid shape: with the verified-call cache AND the
// shadow, the residual per-call work is a cache byte-compare plus a shadow
// transition -- no CMAC at all -- so the authenticated overhead must land
// well under the ISSUE's 60% bar (the cached-only checker sits at ~114%).
TEST(AscShadowRun, GetpidOverheadDropsUnderSixtyPercent) {
  constexpr std::uint32_t kIters = 2000;
  auto build_loop = [&]() {
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
  };

  auto cycles = [&](os::Enforcement mode, bool shadow_on) -> double {
    System sys(kPers, test_key(), mode);
    sys.kernel().set_policy_shadow(shadow_on);
    binary::Image img = build_loop();
    if (mode == os::Enforcement::Asc) img = sys.install(img).image;
    const auto r = sys.machine().run(img);
    EXPECT_TRUE(r.completed) << r.violation_detail;
    return static_cast<double>(r.cycles);
  };

  const double base = cycles(os::Enforcement::Off, false);
  const double auth_cached = cycles(os::Enforcement::Asc, false);
  const double auth_shadow = cycles(os::Enforcement::Asc, true);
  ASSERT_GT(base, 0.0);
  const double pct_cached = (auth_cached - base) / base * 100.0;
  const double pct_shadow = (auth_shadow - base) / base * 100.0;
  EXPECT_LT(pct_shadow, 60.0) << "cached-only " << pct_cached << "%, with shadow "
                              << pct_shadow << "%";
  EXPECT_LT(pct_shadow, pct_cached) << "the shadow must strictly improve on the cache";
}

// ---- parallel campaign determinism with shadows on ----
// Mutated campaign executions run with the shadow at its default (on); the
// verdict stream -- including modeled cycles, which now contain lazy
// write-back charges -- must be byte-identical at any job count.
TEST(AscShadowRun, CampaignVerdictsAreIdenticalAcrossJobCounts) {
  fault::GuestProgram g;
  g.name = "cat";
  g.image = apps::build_tool_cat(kPers);
  g.argv = {"/lines.txt", "/in.c"};
  g.prepare_fs = testing::prepare_fs;

  auto run_with_jobs = [&](int jobs) {
    util::Executor ex(jobs);
    fault::CampaignConfig cfg;
    cfg.seed = 31337;
    cfg.runs_per_class = 4;
    cfg.classes = {fault::MutationClass::PolicyStateCorrupt, fault::MutationClass::CrossReplay,
                   fault::MutationClass::ShadowToctou};
    cfg.executor = &ex;
    return fault::Campaign(cfg).run(g);
  };

  const fault::CampaignResult r1 = run_with_jobs(1);
  const fault::CampaignResult r2 = run_with_jobs(2);
  const fault::CampaignResult r8 = run_with_jobs(8);
  EXPECT_GT(r1.detected, 0);
  for (const fault::CampaignResult* other : {&r2, &r8}) {
    ASSERT_EQ(r1.verdicts.size(), other->verdicts.size());
    for (std::size_t i = 0; i < r1.verdicts.size(); ++i) {
      const auto& a = r1.verdicts[i];
      const auto& b = other->verdicts[i];
      EXPECT_EQ(a.spec.trigger_call, b.spec.trigger_call);
      EXPECT_EQ(a.spec.seed, b.spec.seed);
      EXPECT_EQ(a.outcome, b.outcome);
      EXPECT_EQ(a.violation, b.violation);
      EXPECT_EQ(a.mutation, b.mutation);
      EXPECT_EQ(a.cycles, b.cycles) << "write-back cycle charges diverged at " << i;
      EXPECT_EQ(a.detail, b.detail);
    }
  }
}

}  // namespace
}  // namespace asc
