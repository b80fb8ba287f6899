// The Cached tier of the lattice (os/tiertable.h): a site record must buy
// cycles without buying trust. Hits require byte-identical static material;
// records die on guest writes into their backing ranges, on key rotation,
// and on process teardown, returning their watches on every path; one
// process's verified record can never serve another.
#include <gtest/gtest.h>

#include <optional>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "isa/isa.h"
#include "os/tiertable.h"
#include "tasm/assembler.h"
#include "vm/memory.h"
#include "workloads.h"

namespace asc {
namespace {

using os::TierTable;

const auto kPers = os::Personality::LinuxSim;

using Bytes = std::vector<std::uint8_t>;
using Ranges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

constexpr std::uint32_t kBase = binary::kAddressSpaceBase + 0x1000;

TierTable::SiteRecord record_with(Bytes material, Ranges ranges = {}) {
  TierTable::SiteRecord r;
  r.material = std::move(material);
  r.ranges = std::move(ranges);
  return r;
}

// A lattice bound to a real key and cost model; the processes whose address
// spaces it watches are declared by each test.
struct Lattice {
  explicit Lattice(std::size_t capacity = 4096) : table(key, cost, capacity) {}
  std::optional<crypto::MacKey> key{crypto::MacKey(test_key())};
  os::CostModel cost;
  TierTable table;
};

os::Process process(int pid) {
  os::Process p;
  p.pid = pid;
  return p;
}

std::uint64_t live_refs(const os::Process& p) { return p.mem.watch_stats().live_refs; }

// ---- pure record semantics ----

TEST(AscCacheUnit, LookupRequiresByteIdenticalMaterial) {
  Lattice l;
  os::Process p = process(1);
  EXPECT_EQ(l.table.lookup(1, 0x100, Bytes{42}), nullptr);  // cold
  l.table.insert(p, 0x100, record_with({42}));
  EXPECT_NE(l.table.lookup(1, 0x100, Bytes{42}), nullptr);
  // Same site, different bytes behind it: must be a miss, never a stale hit.
  EXPECT_EQ(l.table.lookup(1, 0x100, Bytes{43}), nullptr);
  EXPECT_EQ(l.table.stats().cached, 1u);
  EXPECT_EQ(l.table.stats().cache_misses, 2u);
  EXPECT_EQ(l.table.sites(), 1u);
}

// The hit check is an exact comparison of the verified bytes, not a hash: a
// guest that engineers same-length material with a colliding digest (FNV-1a
// and friends are invertible) must still miss. Any pair of distinct
// equal-length byte strings stands in for such a collision here.
TEST(AscCacheUnit, SameLengthDifferentBytesNeverHit) {
  Lattice l;
  os::Process p = process(1);
  const Bytes verified{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77};
  l.table.insert(p, 0x100, record_with(verified));
  for (std::size_t byte = 0; byte < verified.size(); ++byte) {
    Bytes forged = verified;
    forged[byte] ^= 0x01;
    EXPECT_EQ(l.table.lookup(1, 0x100, forged), nullptr)
        << "byte " << byte << " differs but the record served a hit";
  }
  // Prefix/extension of the verified bytes must miss too.
  EXPECT_EQ(l.table.lookup(1, 0x100, Bytes(verified.begin(), verified.end() - 1)), nullptr);
  Bytes extended = verified;
  extended.push_back(0x00);
  EXPECT_EQ(l.table.lookup(1, 0x100, extended), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x100, verified), nullptr);
}

TEST(AscCacheUnit, EntriesArePidIsolated) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_with({42}, {{kBase, 16}}));
  // Identical site and identical material -- but a different process.
  // Serving A's verification to B would let B ride on A's policy.
  EXPECT_EQ(l.table.lookup(2, 0x100, Bytes{42}), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x100, Bytes{42}), nullptr);
  EXPECT_EQ(l.table.sites(1), 1u);
  EXPECT_EQ(l.table.sites(2), 0u);
  // The record watches A's address space only.
  EXPECT_EQ(live_refs(a), 1u);
  EXPECT_EQ(live_refs(b), 0u);
}

TEST(AscCacheUnit, InvalidateWriteEvictsOnlyOverlappingEntries) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_with({1}, {{kBase, 16}}));
  l.table.insert(a, 0x200, record_with({2}, {{kBase + 0x100, 16}}));
  l.table.insert(b, 0x200, record_with({3}, {{kBase + 0x100, 16}}));
  a.mem.w32(kBase + 8, 0);  // inside the first record's range only
  EXPECT_EQ(l.table.lookup(1, 0x100, Bytes{1}), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x200, Bytes{2}), nullptr);
  // The same address written in another pid's address space touches
  // nothing of pid 1.
  b.mem.w8(kBase + 0x100, 0);
  EXPECT_NE(l.table.lookup(1, 0x200, Bytes{2}), nullptr);
  EXPECT_EQ(l.table.lookup(2, 0x200, Bytes{3}), nullptr);
  EXPECT_EQ(l.table.sites(), 1u);
}

TEST(AscCacheUnit, EvictPidAndClear) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_with({1}, {{kBase, 16}}));
  l.table.insert(a, 0x200, record_with({2}, {{kBase + 0x20, 16}}));
  l.table.insert(b, 0x100, record_with({3}, {{kBase, 16}}));
  l.table.end_process(1);
  EXPECT_EQ(l.table.sites(), 1u);
  EXPECT_EQ(l.table.sites(2), 1u);
  l.table.on_key_rotation();
  EXPECT_EQ(l.table.sites(), 0u);
  EXPECT_EQ(live_refs(a), 0u);
  EXPECT_EQ(live_refs(b), 0u);
}

// Every path that drops a record must return its watch ranges to the
// process's Memory; otherwise it accumulates stale ranges (and O(n)
// invalidation scans) for its whole lifetime.
TEST(AscCacheUnit, EveryEvictionPathUnwatchesItsRanges) {
  Lattice l;
  os::Process p = process(1);

  // insert registers each range once; a guest-write drop unregisters.
  l.table.insert(p, 0x100, record_with({1}, {{kBase, 16}, {kBase + 0x100, 32}}));
  EXPECT_EQ(live_refs(p), 2u);
  p.mem.w8(kBase, 0);
  EXPECT_EQ(live_refs(p), 0u);

  // Replacement on insert unregisters the stale record's ranges.
  l.table.insert(p, 0x100, record_with({1}, {{kBase, 16}}));
  l.table.insert(p, 0x100, record_with({2}, {{kBase + 0x200, 16}}));
  EXPECT_EQ(live_refs(p), 1u);
  p.mem.w8(kBase, 0);  // the stale range no longer guards anything
  EXPECT_EQ(l.table.sites(), 1u);

  // Key rotation unregisters everything.
  l.table.on_key_rotation();
  EXPECT_EQ(live_refs(p), 0u);

  // Health eviction and the fast-path flush unregister the pid's ranges.
  l.table.insert(p, 0x100, record_with({1}, {{kBase, 16}}));
  l.table.evict_pid(1);
  EXPECT_EQ(live_refs(p), 0u);
  l.table.insert(p, 0x100, record_with({1}, {{kBase, 16}}));
  l.table.flush_pid(1, os::DemotionCause::Disabled);
  EXPECT_EQ(live_refs(p), 0u);

  // Capacity eviction unregisters the victim's ranges.
  Lattice tiny(2);
  os::Process q = process(1);
  tiny.table.insert(q, 0x100, record_with({1}, {{kBase, 16}}));
  tiny.table.insert(q, 0x200, record_with({2}, {{kBase + 0x100, 16}}));
  tiny.table.insert(q, 0x300, record_with({3}, {{kBase + 0x200, 16}}));
  EXPECT_EQ(tiny.table.sites(), 2u);
  EXPECT_EQ(live_refs(q), 2u);

  // Teardown unregisters, then forgets the pid.
  tiny.table.end_process(1);
  EXPECT_EQ(live_refs(q), 0u);
  EXPECT_EQ(tiny.table.pids(), 0u);
  const vm::Memory::WatchStats w = q.mem.watch_stats();
  EXPECT_EQ(w.registered, w.released);
}

// At capacity the victim is the least-hit record (ties broken by a rotating
// cursor), not blindly the lowest (pid, site) key -- a full table must not
// permanently zero out one process's low-address sites.
TEST(AscCacheUnit, CapacityEvictionPrefersColdEntriesOverLowKeys) {
  Lattice l(4);
  os::Process a = process(1);
  os::Process b = process(2);
  for (std::uint32_t site = 1; site <= 4; ++site) {
    l.table.insert(a, site, record_with({static_cast<std::uint8_t>(site)}));
  }
  // Heat up the three lowest keys; site 4 stays cold.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t site = 1; site <= 3; ++site) {
      EXPECT_NE(l.table.lookup(1, site, Bytes{static_cast<std::uint8_t>(site)}), nullptr);
    }
  }
  l.table.insert(b, 0x500, record_with({5}));
  EXPECT_EQ(l.table.sites(), 4u);
  // The cold record went; the hot low-key records survived.
  EXPECT_EQ(l.table.lookup(1, 4, Bytes{4}), nullptr);
  for (std::uint32_t site = 1; site <= 3; ++site) {
    EXPECT_NE(l.table.lookup(1, site, Bytes{static_cast<std::uint8_t>(site)}), nullptr)
        << "hot site " << site << " was victimized while a cold record existed";
  }
}

// vm::Memory watch ranges are refcounted: nested watch/unwatch of the same
// range keeps it firing until the last registration is gone, and a removed
// range stops firing (and shrinks the envelope) instead of lingering.
TEST(AscCacheUnit, MemoryWatchRefcounting) {
  vm::Memory mem;
  const std::uint32_t addr = binary::kAddressSpaceBase + 0x100;
  int fires = 0;
  mem.set_write_watch([&](std::uint32_t, std::uint32_t) { ++fires; });

  mem.watch(addr, 16);
  mem.watch(addr, 16);  // second registration of the identical range
  EXPECT_EQ(mem.watch_count(), 1u);
  mem.w8(addr, 1);
  EXPECT_EQ(fires, 1);

  mem.unwatch(addr, 16);  // one registration remains
  EXPECT_EQ(mem.watch_count(), 1u);
  mem.w8(addr, 2);
  EXPECT_EQ(fires, 2);

  mem.unwatch(addr, 16);  // last registration gone: range stops firing
  EXPECT_EQ(mem.watch_count(), 0u);
  mem.w8(addr, 3);
  EXPECT_EQ(fires, 2);

  // Unwatching a range that was never watched is a harmless no-op.
  mem.unwatch(addr + 0x100, 4);
  EXPECT_EQ(mem.watch_count(), 0u);
}

// ---- end-to-end: the fast path on real guests ----

vm::RunResult run_cat(System& sys) {
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(apps::build_tool_cat(kPers));
  return sys.machine().run(inst.image, {"/lines.txt", "/in.c"});
}

TEST(AscCacheRun, RepeatedSitesHitAndBehaviorIsIdentical) {
  System cached(kPers);
  const auto rc = run_cat(cached);
  ASSERT_TRUE(rc.completed) << rc.violation_detail;
  const os::TierStats st = cached.kernel().tier_stats();
  EXPECT_GT(st.cached, 0u) << "cat's read/write loop repeats sites; they must hit";
  EXPECT_GT(st.cache_misses, 0u) << "first visit of each site is a miss";

  System uncached(kPers);
  uncached.kernel().set_verified_call_cache(false);
  const auto ru = run_cat(uncached);
  ASSERT_TRUE(ru.completed) << ru.violation_detail;

  // The cache may change cycle accounting, nothing else.
  EXPECT_EQ(rc.exit_code, ru.exit_code);
  EXPECT_EQ(rc.stdout_data, ru.stdout_data);
  EXPECT_EQ(rc.stderr_data, ru.stderr_data);
  EXPECT_EQ(rc.syscalls, ru.syscalls);
  EXPECT_LT(rc.cycles, ru.cycles) << "hits must charge strictly less than full verification";
  EXPECT_EQ(uncached.kernel().tier_stats().cached, 0u);
  EXPECT_EQ(uncached.kernel().tier_stats().cache_misses, 0u);
}

// A tight getpid loop (the paper's Table 4 microbenchmark shape): after the
// first trap every call is a hit, so the authenticated per-call overhead
// must drop by at least 30% vs the uncached checker (the PR's acceptance
// bar; in practice the reduction is larger).
TEST(AscCacheRun, CachedOverheadAtLeastThirtyPercentLower) {
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

  auto cycles = [&](os::Enforcement mode, bool cache_on) -> double {
    System sys(kPers, test_key(), mode);
    sys.kernel().set_verified_call_cache(cache_on);
    binary::Image img = build_loop();
    if (mode == os::Enforcement::Asc) img = sys.install(img).image;
    const auto r = sys.machine().run(img);
    EXPECT_TRUE(r.completed) << r.violation_detail;
    return static_cast<double>(r.cycles);
  };

  const double base = cycles(os::Enforcement::Off, false);
  const double auth = cycles(os::Enforcement::Asc, false);
  const double auth_cached = cycles(os::Enforcement::Asc, true);
  const double ovh = (auth - base) / kIters;
  const double ovh_cached = (auth_cached - base) / kIters;
  ASSERT_GT(ovh, 0.0);
  const double reduction = (ovh - ovh_cached) / ovh;
  EXPECT_GE(reduction, 0.30) << "per-call overhead: uncached " << ovh << " cycles, cached "
                             << ovh_cached << " cycles";
}

TEST(AscCacheRun, GuestWriteIntoCachedRangeEvicts) {
  System sys(kPers);
  // At the 6th trap, rewrite one byte of the presented call MAC with its own
  // value. The bytes do not change, but the write watch must still fire and
  // drop the record -- eviction is keyed on the write, not on the value --
  // and the subsequent full re-verification succeeds, so the run completes.
  int calls = 0;
  std::size_t watches_before = 0;
  std::size_t watches_after = 0;
  std::size_t sites_before = 0;
  std::size_t sites_after = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++calls != 6) return;
    const std::uint32_t mac_ptr = p.cpu.regs[isa::kRegCallMac];
    if (p.mem.in_range(mac_ptr, 16)) {
      watches_before = p.mem.watch_count();
      sites_before = sys.kernel().tier_table().sites(p.pid);
      p.mem.w8(mac_ptr, p.mem.r8(mac_ptr));
      watches_after = p.mem.watch_count();
      sites_after = sys.kernel().tier_table().sites(p.pid);
    }
  });
  const auto r = run_cat(sys);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_LT(sites_after, sites_before) << "watched write did not drop the record";
  // The dropped record returned its ranges: the Memory watch set shrank
  // rather than accumulating stale ranges for the life of the process.
  EXPECT_LT(watches_after, watches_before);
}

TEST(AscCacheRun, KeyRotationClearsTheCache) {
  System sys(kPers);
  os::Process p = process(1);
  sys.kernel().tier_table().insert(p, 0x100, record_with({42}, {{kBase, 16}}));
  ASSERT_EQ(sys.kernel().tier_table().sites(), 1u);
  sys.kernel().set_key(test_key());  // rotation: old verifications are void
  EXPECT_EQ(sys.kernel().tier_table().sites(), 0u);
  EXPECT_EQ(live_refs(p), 0u);
  sys.kernel().tier_table().end_process(p.pid);
}

TEST(AscCacheRun, ProcessTeardownEvictsItsEntries) {
  System sys(kPers);
  std::size_t live_during_run = 0;
  int calls = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process&, std::uint32_t) {
    if (++calls == 8) live_during_run = sys.kernel().tier_table().sites();
  });
  const auto r = run_cat(sys);
  ASSERT_TRUE(r.completed) << r.violation_detail;
  EXPECT_GT(live_during_run, 0u) << "no record populated while the process ran";
  EXPECT_EQ(sys.kernel().tier_table().sites(), 0u)
      << "teardown must drop every record of the dead pid";
}

}  // namespace
}  // namespace asc
