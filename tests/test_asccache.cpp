// The Cached tier of the lattice (os/tiertable.h): a site record must buy
// cycles without buying trust. Hits require byte-identical static material;
// records die on guest writes into their backing ranges, on key rotation,
// and on process teardown, returning their watches on every path; one
// process's verified record can never serve another.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <ostream>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "isa/isa.h"
#include "os/tiertable.h"
#include "tasm/assembler.h"
#include "util/hex.h"
#include "vm/memory.h"
#include "workloads.h"

namespace asc {
namespace {

using os::TierTable;

const auto kPers = os::Personality::LinuxSim;

using Bytes = std::vector<std::uint8_t>;
using Ranges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

constexpr std::uint32_t kBase = binary::kAddressSpaceBase + 0x1000;

const crypto::Mac kClaimedMac{0xc0, 0xde};

// A trap's material as the checker describes it, with `call` standing in for
// the encoded call under a fixed claimed MAC: no string arguments, no pred
// set. Lookups take it through the production in-place comparison.
TierTable::Material material(const os::Process& p, const Bytes& call) {
  return {p.mem, call, kClaimedMac};
}

// A record whose material is the production stored form of `call`'s.
TierTable::SiteRecord record_with(const os::Process& p, const Bytes& call, Ranges ranges = {}) {
  TierTable::SiteRecord r;
  r.material = material(p, call).bytes();
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
  EXPECT_EQ(l.table.lookup(1, 0x100, material(p, Bytes{42})), nullptr);  // cold
  l.table.insert(p, 0x100, record_with(p, {42}));
  EXPECT_NE(l.table.lookup(1, 0x100, material(p, Bytes{42})), nullptr);
  // Same site, different bytes behind it: must be a miss, never a stale hit.
  EXPECT_EQ(l.table.lookup(1, 0x100, material(p, Bytes{43})), nullptr);
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
  l.table.insert(p, 0x100, record_with(p, verified));
  for (std::size_t byte = 0; byte < verified.size(); ++byte) {
    Bytes forged = verified;
    forged[byte] ^= 0x01;
    EXPECT_EQ(l.table.lookup(1, 0x100, material(p, forged)), nullptr)
        << "byte " << byte << " differs but the record served a hit";
  }
  // Prefix/extension of the verified bytes must miss too.
  const Bytes prefix(verified.begin(), verified.end() - 1);
  EXPECT_EQ(l.table.lookup(1, 0x100, material(p, prefix)), nullptr);
  Bytes extended = verified;
  extended.push_back(0x00);
  EXPECT_EQ(l.table.lookup(1, 0x100, material(p, extended)), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x100, material(p, verified)), nullptr);
}

// ---- the in-place material comparison ----
// TierTable::Material describes a trap's material where it lives -- host
// buffers for the encoded call and the call MAC, guest ranges for the string
// bodies and the pred-set blob -- and compares a record's stored form against
// it field by field. These cases pin the stored layout and every way a stored
// form can differ from the live material.

constexpr std::uint32_t kString0 = kBase + 0x40;
constexpr std::uint32_t kString1 = kBase + 0x80;
constexpr std::uint32_t kPredBlob = kBase + 0xc0;

// A material with every kind of field: two string bodies and a pred-set blob
// in `p`'s guest memory, the encoded call and the claimed MAC on the host.
struct LiveMaterial {
  explicit LiveMaterial(os::Process& p) : proc(p) {
    p.mem.write_bytes(kString0, strings[0]);
    p.mem.write_bytes(kString1, strings[1]);
    p.mem.write_bytes(kPredBlob, pred);
  }
  TierTable::Material describe(bool control_flow = true) const {
    TierTable::Material m(proc.mem, call, mac);
    m.add_string(kString0, static_cast<std::uint32_t>(strings[0].size()));
    m.add_string(kString1, static_cast<std::uint32_t>(strings[1].size()));
    if (control_flow) m.set_pred_set(kPredBlob, static_cast<std::uint32_t>(pred.size()));
    return m;
  }
  os::Process& proc;
  Bytes call{0x05, 0x00, 0x0b, 0x01, 0x00, 0x00, 0x04, 0x80};
  crypto::Mac mac{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 1, 2, 3, 4, 5, 6, 7, 8};
  std::array<Bytes, 2> strings{Bytes{'/', 'e', 't', 'c'}, Bytes{'x', 'y'}};
  Bytes pred{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0};
};

// The documented stored form, built independently of the production writer.
Bytes join_fields(const std::vector<Bytes>& fields) {
  Bytes out;
  for (const Bytes& f : fields) {
    util::put_u32(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

std::vector<Bytes> split_fields(const Bytes& stored) {
  std::vector<Bytes> fields;
  for (std::size_t off = 0; off < stored.size();) {
    const std::uint32_t len = util::get_u32(stored, off);
    const auto body = stored.begin() + static_cast<std::ptrdiff_t>(off + 4);
    fields.emplace_back(body, body + len);
    off += 4 + len;
  }
  return fields;
}

TEST(AscCacheUnit, MaterialStoredFormIsTheLengthPrefixedLayout) {
  os::Process p = process(1);
  const LiveMaterial live(p);
  const Bytes mac(live.mac.begin(), live.mac.end());
  const Bytes with_cf = join_fields({live.call, mac, live.strings[0], live.strings[1], live.pred});
  const TierTable::Material m = live.describe();
  EXPECT_EQ(m.bytes(), with_cf);
  EXPECT_EQ(m.size(), with_cf.size());
  EXPECT_TRUE(m.matches(with_cf));
  // No control flow: the pred-set field stays, empty -- a bare zero prefix.
  const Bytes without_cf = join_fields({live.call, mac, live.strings[0], live.strings[1], {}});
  EXPECT_EQ(live.describe(false).bytes(), without_cf);
  EXPECT_TRUE(live.describe(false).matches(without_cf));
}

TEST(AscCacheUnit, MaterialRejectsAnyFlippedByteOfAnyField) {
  os::Process p = process(1);
  LiveMaterial live(p);
  const Bytes stored = live.describe().bytes();
  // The stored side: every prefix and body byte.
  for (std::size_t i = 0; i < stored.size(); ++i) {
    Bytes forged = stored;
    forged[i] ^= 0x01;
    EXPECT_FALSE(live.describe().matches(forged)) << "stored byte " << i;
  }
  // The live side: every guest byte behind a string or the pred-set blob...
  const Ranges guest = {{kString0, static_cast<std::uint32_t>(live.strings[0].size())},
                        {kString1, static_cast<std::uint32_t>(live.strings[1].size())},
                        {kPredBlob, static_cast<std::uint32_t>(live.pred.size())}};
  for (const auto& [addr, len] : guest) {
    for (std::uint32_t a = addr; a < addr + len; ++a) {
      const std::uint8_t b = p.mem.r8(a);
      p.mem.w8(a, b ^ 0x01);
      EXPECT_FALSE(live.describe().matches(stored)) << "guest byte 0x" << std::hex << a;
      p.mem.w8(a, b);
    }
  }
  // ...and every host byte of the encoded call and the claimed MAC.
  for (std::size_t i = 0; i < live.call.size(); ++i) {
    live.call[i] ^= 0x01;
    EXPECT_FALSE(live.describe().matches(stored)) << "encoded-call byte " << i;
    live.call[i] ^= 0x01;
  }
  for (std::size_t i = 0; i < live.mac.size(); ++i) {
    live.mac[i] ^= 0x01;
    EXPECT_FALSE(live.describe().matches(stored)) << "call-MAC byte " << i;
    live.mac[i] ^= 0x01;
  }
  EXPECT_TRUE(live.describe().matches(stored));
}

// Same total length, same concatenated bytes, one field boundary moved:
// only the length prefixes tell the two apart, and they must.
TEST(AscCacheUnit, MaterialRejectsALengthPrefixMovedBetweenFields) {
  os::Process p = process(1);
  const LiveMaterial live(p);
  const Bytes stored = live.describe().bytes();
  const std::vector<Bytes> fields = split_fields(stored);
  ASSERT_EQ(fields.size(), 5u);
  int forgeries = 0;
  for (std::size_t k = 0; k + 1 < fields.size(); ++k) {
    if (!fields[k + 1].empty()) {  // first byte of field k+1 joins field k
      std::vector<Bytes> moved = fields;
      moved[k].push_back(moved[k + 1].front());
      moved[k + 1].erase(moved[k + 1].begin());
      const Bytes forged = join_fields(moved);
      ASSERT_EQ(forged.size(), stored.size());
      EXPECT_FALSE(live.describe().matches(forged)) << "boundary " << k << " moved right";
      ++forgeries;
    }
    if (!fields[k].empty()) {  // last byte of field k joins field k+1
      std::vector<Bytes> moved = fields;
      moved[k + 1].insert(moved[k + 1].begin(), moved[k].back());
      moved[k].pop_back();
      EXPECT_FALSE(live.describe().matches(join_fields(moved)))
          << "boundary " << k << " moved left";
      ++forgeries;
    }
  }
  EXPECT_EQ(forgeries, 8);
}

TEST(AscCacheUnit, MaterialRejectsATruncatedOrExtendedRecord) {
  os::Process p = process(1);
  const LiveMaterial live(p);
  const Bytes stored = live.describe().bytes();
  for (std::size_t cut = 0; cut < stored.size(); ++cut) {
    const Bytes truncated(stored.begin(), stored.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(live.describe().matches(truncated)) << "cut at " << cut;
  }
  Bytes extended = stored;
  extended.push_back(0x00);
  EXPECT_FALSE(live.describe().matches(extended));
  // A trailing extra empty field: well formed, one field too many.
  Bytes extra_field = stored;
  extra_field.insert(extra_field.end(), 4, 0x00);
  EXPECT_FALSE(live.describe().matches(extra_field));
}

TEST(AscCacheUnit, MaterialWithoutControlFlowRequiresTheZeroPrefix) {
  os::Process p = process(1);
  const LiveMaterial live(p);
  const Bytes stored = live.describe(false).bytes();
  ASSERT_GE(stored.size(), 4u);
  EXPECT_EQ(Bytes(stored.end() - 4, stored.end()), Bytes(4, 0x00));
  EXPECT_TRUE(live.describe(false).matches(stored));
  const Bytes missing(stored.begin(), stored.end() - 4);
  EXPECT_FALSE(live.describe(false).matches(missing));
  // Neither form serves the other descriptor.
  EXPECT_FALSE(live.describe(true).matches(stored));
  EXPECT_FALSE(live.describe(false).matches(live.describe(true).bytes()));
}

TEST(AscCacheUnit, EntriesArePidIsolated) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_with(a, {42}, {{kBase, 16}}));
  // Identical site and identical material -- but a different process.
  // Serving A's verification to B would let B ride on A's policy.
  EXPECT_EQ(l.table.lookup(2, 0x100, material(b, Bytes{42})), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x100, material(a, Bytes{42})), nullptr);
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
  l.table.insert(a, 0x100, record_with(a, {1}, {{kBase, 16}}));
  l.table.insert(a, 0x200, record_with(a, {2}, {{kBase + 0x100, 16}}));
  l.table.insert(b, 0x200, record_with(b, {3}, {{kBase + 0x100, 16}}));
  a.mem.w32(kBase + 8, 0);  // inside the first record's range only
  EXPECT_EQ(l.table.lookup(1, 0x100, material(a, Bytes{1})), nullptr);
  EXPECT_NE(l.table.lookup(1, 0x200, material(a, Bytes{2})), nullptr);
  // The same address written in another pid's address space touches
  // nothing of pid 1.
  b.mem.w8(kBase + 0x100, 0);
  EXPECT_NE(l.table.lookup(1, 0x200, material(a, Bytes{2})), nullptr);
  EXPECT_EQ(l.table.lookup(2, 0x200, material(b, Bytes{3})), nullptr);
  EXPECT_EQ(l.table.sites(), 1u);
}

TEST(AscCacheUnit, EvictPidAndClear) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_with(a, {1}, {{kBase, 16}}));
  l.table.insert(a, 0x200, record_with(a, {2}, {{kBase + 0x20, 16}}));
  l.table.insert(b, 0x100, record_with(b, {3}, {{kBase, 16}}));
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
  l.table.insert(p, 0x100, record_with(p, {1}, {{kBase, 16}, {kBase + 0x100, 32}}));
  EXPECT_EQ(live_refs(p), 2u);
  p.mem.w8(kBase, 0);
  EXPECT_EQ(live_refs(p), 0u);

  // Replacement on insert unregisters the stale record's ranges.
  l.table.insert(p, 0x100, record_with(p, {1}, {{kBase, 16}}));
  l.table.insert(p, 0x100, record_with(p, {2}, {{kBase + 0x200, 16}}));
  EXPECT_EQ(live_refs(p), 1u);
  p.mem.w8(kBase, 0);  // the stale range no longer guards anything
  EXPECT_EQ(l.table.sites(), 1u);

  // Key rotation unregisters everything.
  l.table.on_key_rotation();
  EXPECT_EQ(live_refs(p), 0u);

  // Health eviction and the fast-path flush unregister the pid's ranges.
  l.table.insert(p, 0x100, record_with(p, {1}, {{kBase, 16}}));
  l.table.evict_pid(1);
  EXPECT_EQ(live_refs(p), 0u);
  l.table.insert(p, 0x100, record_with(p, {1}, {{kBase, 16}}));
  l.table.flush_pid(1, os::DemotionCause::Disabled);
  EXPECT_EQ(live_refs(p), 0u);

  // Capacity eviction unregisters the victim's ranges.
  Lattice tiny(2);
  os::Process q = process(1);
  tiny.table.insert(q, 0x100, record_with(q, {1}, {{kBase, 16}}));
  tiny.table.insert(q, 0x200, record_with(q, {2}, {{kBase + 0x100, 16}}));
  tiny.table.insert(q, 0x300, record_with(q, {3}, {{kBase + 0x200, 16}}));
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
    l.table.insert(a, site, record_with(a, {static_cast<std::uint8_t>(site)}));
  }
  // Heat up the three lowest keys; site 4 stays cold.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t site = 1; site <= 3; ++site) {
      const Bytes call{static_cast<std::uint8_t>(site)};
      EXPECT_NE(l.table.lookup(1, site, material(a, call)), nullptr);
    }
  }
  l.table.insert(b, 0x500, record_with(b, {5}));
  EXPECT_EQ(l.table.sites(), 4u);
  // The cold record went; the hot low-key records survived.
  EXPECT_EQ(l.table.lookup(1, 4, material(a, Bytes{4})), nullptr);
  for (std::uint32_t site = 1; site <= 3; ++site) {
    const Bytes call{static_cast<std::uint8_t>(site)};
    EXPECT_NE(l.table.lookup(1, site, material(a, call)), nullptr)
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
  sys.kernel().tier_table().insert(p, 0x100, record_with(p, {42}, {{kBase, 16}}));
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

// ---- tamper behind the watches: the in-place compare is the last line ----
// The write watches drop a record before any guest write lands in its bytes.
// Here a PreTrap hook clears every watch first, so a flipped byte reaches a
// live record unannounced: only the probe's byte comparison stands between
// the flip and a stale hit. The flip must turn the trap into a miss, and the
// full verification behind it must fail-stop with the field's violation.

/// `iters` rounds of open(kOpenPath, O_RDONLY) + close(fd). The open site's
/// policy constrains its path to a constant, so its record carries an
/// authenticated-string argument as well as the pred set.
binary::Image build_open_loop(std::uint32_t iters) {
  using namespace asc::apps;
  tasm::Assembler a("openloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, iters);
  a.store(SP, 0, R11);
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  a.lea(R1, "open_path");
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
  a.rodata_cstr("open_path", "/lines.txt");
  emit_libc(a, kPers);
  return a.link();
}

enum class Flip { CallMac, StringBody, PredSetBody };

struct FlipCase {
  const char* name;
  Flip target;
  os::Violation expected;
};

/// ctest lists a case under its printed parameter: print the name, not the
/// struct's bytes (which hold a pointer).
void PrintTo(const FlipCase& fc, std::ostream* os) {
  *os << fc.name;
}

/// The guest address of the byte `f` flips: the first byte of the call-MAC
/// slot, of the path string's body, or of the pred-set blob.
std::uint32_t flip_address(const os::Process& p, Flip f) {
  switch (f) {
    case Flip::CallMac: return p.cpu.regs[isa::kRegCallMac];
    case Flip::StringBody: return p.cpu.regs[1];
    case Flip::PredSetBody: return p.cpu.regs[isa::kRegPredSet];
  }
  return 0;
}

class AscCacheFlip : public ::testing::TestWithParam<FlipCase> {};

TEST_P(AscCacheFlip, UnwatchedFlipMissesAndFailStops) {
  const FlipCase& fc = GetParam();
  constexpr int kFlipAtOpen = 4;
  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(build_open_loop(8));
  const std::uint16_t open_no = apps::sysno(kPers, os::SysId::Open);

  int opens = 0;
  bool flipped = false;
  bool string_arg = false;
  os::Tier tier_at_flip = os::Tier::Eager;
  std::uint64_t misses_before = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t site) {
    const auto& regs = p.cpu.regs;
    if (regs[0] != open_no || ++opens != kFlipAtOpen) return;
    const policy::Descriptor des(regs[isa::kRegPolicyDescriptor]);
    string_arg = des.arg_is_authenticated_string(0);
    tier_at_flip = sys.kernel().tier_table().tier(p.pid, site);
    misses_before = sys.kernel().tier_stats().cache_misses;
    const std::uint32_t addr = flip_address(p, fc.target);
    p.mem.clear_watches();  // the flip below fires no watch: the record stays live
    p.mem.w8(addr, static_cast<std::uint8_t>(p.mem.r8(addr) ^ 0x01));
    flipped = true;
  });
  const auto r = sys.machine().run(inst.image);

  ASSERT_TRUE(flipped) << "the loop never reached open #" << kFlipAtOpen;
  ASSERT_TRUE(string_arg) << "the open site carries no authenticated-string argument";
  EXPECT_EQ(tier_at_flip, os::Tier::Shadowed) << "the flip must strike a live record";
  EXPECT_EQ(sys.kernel().tier_stats().cache_misses, misses_before + 1)
      << "the flipped material must miss exactly once";
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.violation, fc.expected) << r.violation_detail;
  int alerts = 0;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind != os::AuditKind::Violation) continue;
    ++alerts;
    EXPECT_EQ(rec.violation, fc.expected);
    EXPECT_TRUE(rec.killed);
    EXPECT_EQ(rec.sysno, open_no);
  }
  EXPECT_EQ(alerts, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, AscCacheFlip,
    ::testing::Values(FlipCase{"call_mac", Flip::CallMac, os::Violation::BadCallMac},
                      FlipCase{"string_body", Flip::StringBody, os::Violation::BadStringArg},
                      FlipCase{"pred_set_body", Flip::PredSetBody, os::Violation::BadStringArg}),
    [](const ::testing::TestParamInfo<FlipCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace asc
