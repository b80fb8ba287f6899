// The Cached tier of the lattice (os/tiertable.h): a site record must buy
// cycles without buying trust. Hits require the verifying trap's registers
// and byte-identical watched bytes; records die on guest writes into their
// backing ranges, on key rotation, and on process teardown, returning their
// watches on every path; one process's verified record can never serve
// another.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <optional>
#include <ostream>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "isa/isa.h"
#include "os/checker.h"
#include "os/tiertable.h"
#include "policy/authstring.h"
#include "policy/policy.h"
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

// The trap `p` presents, reduced to a block id and a call-MAC pointer: the
// stand-in for a whole operand set in the record-semantics tests (no
// arguments, no control flow).
os::Process& at(os::Process& p, std::uint32_t block, std::uint32_t mac_ptr = kBase) {
  p.cpu.regs[isa::kRegBlockId] = block;
  p.cpu.regs[isa::kRegCallMac] = mac_ptr;
  return p;
}

// The record the checker keeps for the trap `p` presents: the snapshot of its
// registers and the bytes of `ranges`, the first being the call-MAC slot.
TierTable::SiteRecord record_of(const os::Process& p, const Ranges& ranges = {},
                                int arity = 0) {
  TierTable::SiteRecord r;
  r.snapshot = TierTable::Snapshot::of(p.cpu.regs, arity);
  for (const auto& [addr, len] : ranges) r.keep(p.mem, addr, len);
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
  EXPECT_EQ(l.table.lookup(at(p, 42), 0x100), nullptr);  // cold
  l.table.insert(p, 0x100, record_of(at(p, 42)));
  EXPECT_NE(l.table.lookup(at(p, 42), 0x100), nullptr);
  // Same site, another operand behind it: must be a miss, never a stale hit.
  EXPECT_EQ(l.table.lookup(at(p, 43), 0x100), nullptr);
  EXPECT_EQ(l.table.stats().cached, 1u);
  // The checker counts a miss once the trap's headers proved readable.
  EXPECT_EQ(l.table.stats().cache_misses, 0u);
  EXPECT_EQ(l.table.sites(), 1u);
}

// The hit check is an exact comparison of the verified bytes, not a hash: a
// guest that engineers same-length bytes with a colliding digest (FNV-1a and
// friends are invertible) must still miss. Any pair of distinct equal-length
// byte strings stands in for such a collision here.
TEST(AscCacheUnit, SameLengthDifferentBytesNeverHit) {
  Lattice l;
  os::Process p = process(1);
  const Bytes verified{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77};
  const std::uint32_t body = kBase + 0x40;
  p.mem.write_bytes(body, verified);
  l.table.insert(p, 0x100, record_of(at(p, 7), {{kBase, 16}, {body, 8}}));
  p.mem.clear_watches();  // the forgeries below must reach the record unannounced
  for (const auto& [addr, len] : Ranges{{kBase, 16}, {body, 8}}) {
    for (std::uint32_t a = addr; a < addr + len; ++a) {
      const std::uint8_t b = p.mem.r8(a);
      p.mem.w8(a, b ^ 0x01);
      EXPECT_EQ(l.table.lookup(p, 0x100), nullptr)
          << "byte 0x" << std::hex << a << " differs but the record served a hit";
      p.mem.w8(a, b);
    }
  }
  EXPECT_NE(l.table.lookup(p, 0x100), nullptr);
}

// ---- the in-place record comparison ----
// A record keeps the registers the encoded call is built from and the bytes
// of every range the trap's MACs cover, and compares both with the live trap
// in place. These cases pin what the record keeps, what a hit is charged,
// and every way a trap can differ from the one that was verified.

constexpr std::uint32_t kSite = 0x00401230;
constexpr std::uint32_t kMacSlot = kBase;
constexpr std::uint32_t kMacCopy = kBase + 0x20;
constexpr std::uint32_t kString0 = kBase + 0x60;
constexpr std::uint32_t kString1 = kBase + 0xa0;
constexpr std::uint32_t kPredBlob = kBase + 0xe0;
constexpr std::uint32_t kState = kBase + 0x120;
constexpr std::uint32_t kBlock = 0x77;
constexpr std::uint32_t kHdr = policy::kAsHeaderSize;

// A genuine trap with every kind of range: two authenticated-string
// arguments, one constrained argument (the descriptor, not the syscall,
// decides which arguments enter the encoded call), and a control-flow
// descriptor with a pred set, its call MAC signed under `key`. The checker
// verifies it and keeps the ranges record() keeps.
struct LiveTrap {
  LiveTrap(os::Process& p, const crypto::MacKey& key, bool control_flow = true) : proc(p) {
    policy::Descriptor des;
    des.set_site();
    des.set_arg_authenticated_string(0);
    des.set_arg_authenticated_string(1);
    des.set_arg_constrained(2);
    if (control_flow) des.set_control_flow();
    const std::array<std::uint32_t, 2> bodies{kString0, kString1};
    policy::EncodedPolicyInputs in;
    in.sysno = apps::sysno(kPers, os::SysId::Open);
    in.descriptor = des;
    in.call_site = kSite;
    in.block_id = kBlock;
    in.arity = sig().arity;
    for (std::size_t i = 0; i < 2; ++i) {
      in.as_args[i] = put_string(key, bodies[i], strings[i]);
      p.cpu.regs[1 + i] = bodies[i];
    }
    in.const_values[2] = 0x41;
    p.cpu.regs[3] = 0x41;
    if (control_flow) {
      in.pred_set = put_string(key, kPredBlob, pred);
      in.lb_ptr = kState;
      p.mem.w32(kState, policy::kStartBlockLocal);
      p.mem.write_bytes(kState + 4, key.mac(policy::encode_policy_state(
                                        policy::kStartBlockLocal, p.asc_counter)));
    }
    encoded = policy::encode_policy(in);
    const crypto::Mac mac = key.mac(encoded);
    p.mem.write_bytes(kMacSlot, mac);
    p.mem.write_bytes(kMacCopy, mac);
    auto& regs = p.cpu.regs;
    regs[0] = in.sysno;
    regs[isa::kRegPolicyDescriptor] = des.bits();
    regs[isa::kRegBlockId] = kBlock;
    regs[isa::kRegPredSet] = kPredBlob;
    regs[isa::kRegStatePtr] = kState;
    regs[isa::kRegCallMac] = kMacSlot;
    regs[4] = 0x1234;  // unconstrained: in no encoded call
  }
  static const os::SyscallSig& sig() { return os::signature(os::SysId::Open); }
  // Write `body` at `addr` behind its {len, MAC} header.
  policy::AsRef put_string(const crypto::MacKey& key, std::uint32_t addr, const Bytes& body) {
    const policy::AsRef as{addr, static_cast<std::uint32_t>(body.size()), key.mac(body)};
    proc.mem.w32(addr - kHdr, as.len);
    proc.mem.write_bytes(addr - kHdr + 4, as.mac);
    proc.mem.write_bytes(addr, body);
    return as;
  }
  // The ranges a record of this trap watches, in the record's order.
  Ranges ranges() const {
    Ranges r{{kMacSlot, 16},
             {kString0 - kHdr, kHdr + static_cast<std::uint32_t>(strings[0].size())},
             {kString1 - kHdr, kHdr + static_cast<std::uint32_t>(strings[1].size())}};
    if (control_flow()) {
      r.emplace_back(kPredBlob - kHdr, kHdr + static_cast<std::uint32_t>(pred.size()));
    }
    return r;
  }
  bool control_flow() const {
    return policy::Descriptor(proc.cpu.regs[isa::kRegPolicyDescriptor]).control_flow_constrained();
  }
  TierTable::SiteRecord record() const { return record_of(proc, ranges(), sig().arity); }
  os::CheckResult check(TierTable& t, const crypto::MacKey& key, const os::CostModel& cost) {
    return os::check_authenticated_call(proc, kSite, static_cast<std::uint16_t>(proc.cpu.regs[0]),
                                        os::SysId::Open, sig(), key, cost, t, t.find_pid(proc.pid));
  }
  os::Process& proc;
  std::array<Bytes, 2> strings{Bytes{'/', 'e', 't', 'c'}, Bytes{'x', 'y'}};
  Bytes pred = policy::encode_pred_set({policy::kStartBlockLocal, kBlock}, {});
  Bytes encoded;
};

// The MAC inputs a hit skips, each length-prefixed, built independently: the
// modeled compare length a hit is charged on is this string's length.
Bytes join_fields(const std::vector<Bytes>& fields) {
  Bytes out;
  for (const Bytes& f : fields) {
    util::put_u32(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

// The checker's record keeps the watched ranges in order -- call MAC, each AS
// header and body, the pred-set header and body -- and their bytes, and a hit
// is charged on the length of the skipped MAC inputs, each length-prefixed
// (without control flow the pred-set field is a bare zero prefix).
TEST(AscCacheUnit, MaterialStoredFormIsTheLengthPrefixedLayout) {
  Lattice l;
  os::Process p = process(1);
  LiveTrap live(p, *l.key);
  const os::CheckResult first = live.check(l.table, *l.key, l.cost);
  ASSERT_EQ(first.violation, os::Violation::None) << first.detail;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(l.table.stats().cache_misses, 1u);

  const TierTable::SiteRecord* rec = l.table.lookup(p, kSite);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->ranges, live.ranges());
  Bytes kept;
  for (const auto& [addr, len] : live.ranges()) {
    const Bytes range = p.mem.read_bytes(addr, len);
    kept.insert(kept.end(), range.begin(), range.end());
  }
  EXPECT_EQ(rec->bytes, kept);
  EXPECT_EQ(rec->snapshot.value, live.record().snapshot.value);
  EXPECT_EQ(rec->snapshot.mask, live.record().snapshot.mask);
  EXPECT_EQ(rec->snapshot.mac_ptr, kMacSlot);
  const Bytes mac = p.mem.read_bytes(kMacSlot, 16);
  const Bytes stored =
      join_fields({live.encoded, mac, live.strings[0], live.strings[1], live.pred});
  EXPECT_EQ(rec->material_len, stored.size());
  EXPECT_EQ(rec->as_args, 2u);

  const os::CheckResult hit = live.check(l.table, *l.key, l.cost);
  ASSERT_EQ(hit.violation, os::Violation::None) << hit.detail;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.shadow_hit);
  EXPECT_EQ(hit.cycles, l.cost.cache_hit_cost(stored.size()) + 2 * l.cost.check_per_as_arg +
                            l.cost.shadow_hit_cost());
  // No control flow: the pred-set field stays, empty -- a bare zero prefix.
  os::Process q = process(2);
  LiveTrap flat(q, *l.key, /*control_flow=*/false);
  ASSERT_EQ(flat.check(l.table, *l.key, l.cost).violation, os::Violation::None);
  const TierTable::SiteRecord* flat_rec = l.table.lookup(q, kSite);
  ASSERT_NE(flat_rec, nullptr);
  EXPECT_EQ(flat_rec->ranges, flat.ranges());
  EXPECT_EQ(flat_rec->material_len,
            join_fields({flat.encoded, mac, flat.strings[0], flat.strings[1], {}}).size());
}

TEST(AscCacheUnit, MaterialRejectsAnyFlippedByteOfAnyField) {
  os::Process p = process(1);
  const crypto::MacKey key(test_key());
  LiveTrap live(p, key);
  const TierTable::SiteRecord rec = live.record();
  ASSERT_TRUE(rec.matches(p.cpu.regs, p.mem));
  // Every guest byte of every kept range: call MAC, AS headers and bodies,
  // pred-set header and body.
  for (const auto& [addr, len] : live.ranges()) {
    for (std::uint32_t a = addr; a < addr + len; ++a) {
      const std::uint8_t b = p.mem.r8(a);
      p.mem.w8(a, b ^ 0x01);
      EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "guest byte 0x" << std::hex << a;
      p.mem.w8(a, b);
    }
  }
  // Every bit of every register the encoded call is built from: the
  // trapping number, both string pointers, the constrained argument, the
  // descriptor, the block id, the pred-set and state pointers.
  using RegList = std::initializer_list<std::size_t>;
  for (const std::size_t r : RegList{0, 1, 2, 3, isa::kRegPolicyDescriptor, isa::kRegBlockId,
                                  isa::kRegPredSet, isa::kRegStatePtr}) {
    const int bits = r == 0 ? 16 : 32;
    for (int bit = 0; bit < bits; ++bit) {
      p.cpu.regs[r] ^= 1u << bit;
      EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "r" << r << " bit " << bit;
      p.cpu.regs[r] ^= 1u << bit;
    }
  }
  // What no encoded call holds never decides a hit: r0's high half, an
  // unconstrained argument, the registers past the state pointer.
  for (const std::size_t r : RegList{4, 5, isa::kRegHintPtr}) {
    p.cpu.regs[r] ^= 0xffffffffu;
    EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem)) << "r" << r;
    p.cpu.regs[r] ^= 0xffffffffu;
  }
  p.cpu.regs[0] ^= 0xffff0000u;
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem)) << "r0 high half";
  p.cpu.regs[0] ^= 0xffff0000u;
  // The call MAC is compared where the trap points: an identical copy hits,
  // a copy one bit off misses.
  p.cpu.regs[isa::kRegCallMac] = kMacCopy;
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem));
  p.mem.w8(kMacCopy + 15, p.mem.r8(kMacCopy + 15) ^ 0x80);
  EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem));
  p.cpu.regs[isa::kRegCallMac] = kMacSlot;
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem));
}

// Bytes cannot migrate between fields: a string header whose length moved
// the boundary between body and the bytes behind it, or two string pointers
// swapped, present another trap.
TEST(AscCacheUnit, MaterialRejectsALengthPrefixMovedBetweenFields) {
  os::Process p = process(1);
  const crypto::MacKey key(test_key());
  LiveTrap live(p, key);
  const TierTable::SiteRecord rec = live.record();
  int forgeries = 0;
  for (const std::uint32_t body : {kString0, kString1, kPredBlob}) {
    const std::uint32_t len = p.mem.r32(body - kHdr);
    for (const std::uint32_t moved : {len - 1, len + 1}) {
      p.mem.w32(body - kHdr, moved);
      EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "body 0x" << std::hex << body;
      ++forgeries;
    }
    p.mem.w32(body - kHdr, len);
  }
  std::swap(p.cpu.regs[1], p.cpu.regs[2]);
  EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "strings swapped";
  std::swap(p.cpu.regs[1], p.cpu.regs[2]);
  EXPECT_EQ(forgeries, 6);
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem));
}

// A string truncated or extended in place (its header length shortened or
// grown, the body bytes kept) misses, and so does a call-MAC pointer whose
// 16 bytes run off the end of the address space -- without faulting.
TEST(AscCacheUnit, MaterialRejectsATruncatedOrExtendedRecord) {
  os::Process p = process(1);
  const crypto::MacKey key(test_key());
  LiveTrap live(p, key);
  const TierTable::SiteRecord rec = live.record();
  const std::uint32_t len = p.mem.r32(kPredBlob - kHdr);
  for (std::uint32_t cut = 0; cut < len; ++cut) {
    p.mem.w32(kPredBlob - kHdr, cut);
    EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "pred set cut to " << cut;
  }
  p.mem.w32(kPredBlob - kHdr, len + 4);
  EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "pred set extended";
  p.mem.w32(kPredBlob - kHdr, len);
  for (const std::uint32_t off : {16u, 15u, 1u}) {
    p.cpu.regs[isa::kRegCallMac] = binary::kAddressSpaceEnd - off;
    EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem)) << "MAC slot " << off << " bytes from the end";
  }
  p.cpu.regs[isa::kRegCallMac] = 0;  // below the address space
  EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem));
  p.cpu.regs[isa::kRegCallMac] = kMacSlot;
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem));
}

// A descriptor without control flow puts neither the pred-set nor the state
// pointer in the encoded call, so its record ignores both; and neither
// descriptor's record serves the other.
TEST(AscCacheUnit, MaterialWithoutControlFlowRequiresTheZeroPrefix) {
  os::Process p = process(1);
  const crypto::MacKey key(test_key());
  LiveTrap flat(p, key, /*control_flow=*/false);
  const TierTable::SiteRecord rec = flat.record();
  EXPECT_EQ(rec.ranges.size(), 3u) << "no pred-set range";
  EXPECT_EQ(rec.snapshot.mask[isa::kRegPredSet], 0u);
  EXPECT_EQ(rec.snapshot.mask[isa::kRegStatePtr], 0u);
  p.cpu.regs[isa::kRegPredSet] ^= 0x10;
  p.cpu.regs[isa::kRegStatePtr] ^= 0x10;
  EXPECT_TRUE(rec.matches(p.cpu.regs, p.mem));
  p.cpu.regs[isa::kRegPredSet] ^= 0x10;
  p.cpu.regs[isa::kRegStatePtr] ^= 0x10;

  os::Process q = process(2);
  LiveTrap cf(q, key);
  const TierTable::SiteRecord cf_rec = cf.record();
  // Each trap under the other's descriptor bits.
  p.cpu.regs[isa::kRegPolicyDescriptor] = q.cpu.regs[isa::kRegPolicyDescriptor];
  EXPECT_FALSE(rec.matches(p.cpu.regs, p.mem));
  q.cpu.regs[isa::kRegPolicyDescriptor] ^= 2u;  // control flow off
  EXPECT_FALSE(cf_rec.matches(q.cpu.regs, q.mem));
}

TEST(AscCacheUnit, EntriesArePidIsolated) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_of(at(a, 42), {{kBase, 16}}));
  // Identical site and identical trap -- but a different process. Serving
  // A's verification to B would let B ride on A's policy.
  EXPECT_EQ(l.table.lookup(at(b, 42), 0x100), nullptr);
  EXPECT_NE(l.table.lookup(at(a, 42), 0x100), nullptr);
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
  l.table.insert(a, 0x100, record_of(at(a, 1), {{kBase, 16}}));
  l.table.insert(a, 0x200, record_of(at(a, 2, kBase + 0x100), {{kBase + 0x100, 16}}));
  l.table.insert(b, 0x200, record_of(at(b, 3, kBase + 0x100), {{kBase + 0x100, 16}}));
  a.mem.w32(kBase + 8, 0);  // inside the first record's range only
  EXPECT_EQ(l.table.lookup(at(a, 1), 0x100), nullptr);
  EXPECT_NE(l.table.lookup(at(a, 2, kBase + 0x100), 0x200), nullptr);
  // The same address written in another pid's address space touches
  // nothing of pid 1.
  b.mem.w8(kBase + 0x100, 0);
  EXPECT_NE(l.table.lookup(at(a, 2, kBase + 0x100), 0x200), nullptr);
  EXPECT_EQ(l.table.lookup(at(b, 3, kBase + 0x100), 0x200), nullptr);
  EXPECT_EQ(l.table.sites(), 1u);
}

TEST(AscCacheUnit, EvictPidAndClear) {
  Lattice l;
  os::Process a = process(1);
  os::Process b = process(2);
  l.table.insert(a, 0x100, record_of(at(a, 1), {{kBase, 16}}));
  l.table.insert(a, 0x200, record_of(at(a, 2, kBase + 0x20), {{kBase + 0x20, 16}}));
  l.table.insert(b, 0x100, record_of(at(b, 3), {{kBase, 16}}));
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
  l.table.insert(p, 0x100, record_of(at(p, 1), {{kBase, 16}, {kBase + 0x100, 32}}));
  EXPECT_EQ(live_refs(p), 2u);
  p.mem.w8(kBase, 0);
  EXPECT_EQ(live_refs(p), 0u);

  // Replacement on insert unregisters the stale record's ranges.
  l.table.insert(p, 0x100, record_of(at(p, 1), {{kBase, 16}}));
  l.table.insert(p, 0x100, record_of(at(p, 2, kBase + 0x200), {{kBase + 0x200, 16}}));
  EXPECT_EQ(live_refs(p), 1u);
  p.mem.w8(kBase, 0);  // the stale range no longer guards anything
  EXPECT_EQ(l.table.sites(), 1u);

  // Key rotation unregisters everything.
  l.table.on_key_rotation();
  EXPECT_EQ(live_refs(p), 0u);

  // Health eviction and the fast-path flush unregister the pid's ranges.
  l.table.insert(p, 0x100, record_of(at(p, 1), {{kBase, 16}}));
  l.table.evict_pid(1);
  EXPECT_EQ(live_refs(p), 0u);
  l.table.insert(p, 0x100, record_of(at(p, 1), {{kBase, 16}}));
  l.table.flush_pid(1, os::DemotionCause::Disabled);
  EXPECT_EQ(live_refs(p), 0u);

  // Capacity eviction unregisters the victim's ranges.
  Lattice tiny(2);
  os::Process q = process(1);
  tiny.table.insert(q, 0x100, record_of(at(q, 1), {{kBase, 16}}));
  tiny.table.insert(q, 0x200, record_of(at(q, 2, kBase + 0x100), {{kBase + 0x100, 16}}));
  tiny.table.insert(q, 0x300, record_of(at(q, 3, kBase + 0x200), {{kBase + 0x200, 16}}));
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
    l.table.insert(a, site, record_of(at(a, site)));
  }
  // Heat up the three lowest keys; site 4 stays cold.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t site = 1; site <= 3; ++site) {
      EXPECT_NE(l.table.lookup(at(a, site), site), nullptr);
    }
  }
  l.table.insert(b, 0x500, record_of(at(b, 5)));
  EXPECT_EQ(l.table.sites(), 4u);
  // The cold record went; the hot low-key records survived.
  EXPECT_EQ(l.table.lookup(at(a, 4), 4), nullptr);
  for (std::uint32_t site = 1; site <= 3; ++site) {
    EXPECT_NE(l.table.lookup(at(a, site), site), nullptr)
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
  sys.kernel().tier_table().insert(p, 0x100, record_of(at(p, 42), {{kBase, 16}}));
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
// Here a PreTrap hook strikes where no watch fires: it clears every watch
// before flipping a guest byte, or flips a register, which nothing watches.
// Only the record compare stands between the strike and a stale hit. The
// strike must turn the trap into a miss, and the full verification behind
// it must fail-stop with the verdict an Eager-only run gives the same strike.

/// `iters` rounds of open(kOpenPath, O_RDONLY) + close(fd). The open site's
/// policy constrains its path to a constant and its flags to O_RDONLY, so
/// its record carries an authenticated-string argument, a constrained
/// argument and the pred set.
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

enum class Flip {
  CallMac,
  StringBody,
  PredSetBody,  // guest bytes, behind cleared watches
  Descriptor,
  BlockId,
  ConstArg,
  PredPtr,
  StatePtr,  // registers
};

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

/// The guest address of the byte a memory strike flips -- the first byte of
/// the call-MAC slot, of the path string's body, or of the pred-set blob --
/// or the register a register strike flips.
std::uint32_t flip_address(const os::Process& p, Flip f) {
  switch (f) {
    case Flip::CallMac: return p.cpu.regs[isa::kRegCallMac];
    case Flip::StringBody: return p.cpu.regs[1];
    case Flip::PredSetBody: return p.cpu.regs[isa::kRegPredSet];
    default: return 0;
  }
}

bool flip_address_is_memory(Flip f) {
  return f == Flip::CallMac || f == Flip::StringBody || f == Flip::PredSetBody;
}

std::size_t flip_register(Flip f) {
  switch (f) {
    case Flip::Descriptor: return isa::kRegPolicyDescriptor;
    case Flip::BlockId: return isa::kRegBlockId;
    case Flip::ConstArg: return 2;  // open's flags
    case Flip::PredPtr: return isa::kRegPredSet;
    case Flip::StatePtr: return isa::kRegStatePtr;
    default: return 0;
  }
}

struct Struck {
  vm::RunResult result;
  os::TierStats before;  // at the struck trap's PreTrap
  os::TierStats after;
  os::Tier tier_at_flip = os::Tier::Eager;
  bool flipped = false;
  bool operands_constrained = false;
  std::vector<os::VerdictRecord> audit;
};

/// The open loop with `f` struck at the 4th open; `eager` turns the cache
/// and the shadow off.
Struck strike_open(Flip f, bool eager) {
  constexpr int kFlipAtOpen = 4;
  System sys(kPers);
  if (eager) {
    sys.kernel().set_verified_call_cache(false);
    sys.kernel().set_policy_shadow(false);
  }
  testing::prepare_fs(sys.kernel().fs());
  const auto inst = sys.install(build_open_loop(8));
  const std::uint16_t open_no = apps::sysno(kPers, os::SysId::Open);

  Struck st;
  int opens = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t site) {
    auto& regs = p.cpu.regs;
    if (regs[0] != open_no || ++opens != kFlipAtOpen) return;
    const policy::Descriptor des(regs[isa::kRegPolicyDescriptor]);
    st.operands_constrained = des.arg_is_authenticated_string(0) && des.arg_constrained(1) &&
                              des.control_flow_constrained();
    st.tier_at_flip = sys.kernel().tier_table().tier(p.pid, site);
    st.before = sys.kernel().tier_stats();
    if (flip_address_is_memory(f)) {
      const std::uint32_t addr = flip_address(p, f);
      p.mem.clear_watches();  // the flip below fires no watch: the record stays live
      p.mem.w8(addr, static_cast<std::uint8_t>(p.mem.r8(addr) ^ 0x01));
    } else {
      regs[flip_register(f)] ^= 0x4;
    }
    st.flipped = true;
  });
  st.result = sys.machine().run(inst.image);
  st.after = sys.kernel().tier_stats();
  st.audit = sys.kernel().audit_log();
  return st;
}

class AscCacheFlip : public ::testing::TestWithParam<FlipCase> {};

TEST_P(AscCacheFlip, UnwatchedFlipMissesAndFailStops) {
  const FlipCase& fc = GetParam();
  const std::uint16_t open_no = apps::sysno(kPers, os::SysId::Open);
  const Struck st = strike_open(fc.target, /*eager=*/false);

  ASSERT_TRUE(st.flipped) << "the loop never reached the struck open";
  ASSERT_TRUE(st.operands_constrained)
      << "the open site's policy lacks a string argument, constrained flags or a pred set";
  EXPECT_EQ(st.tier_at_flip, os::Tier::Shadowed) << "the flip must strike a live record";
  EXPECT_EQ(st.after.cached, st.before.cached) << "the struck trap was served a hit";
  if (flip_address_is_memory(fc.target)) {
    EXPECT_EQ(st.after.cache_misses, st.before.cache_misses + 1)
        << "the flipped bytes must miss exactly once";
  }
  EXPECT_FALSE(st.result.completed);
  EXPECT_EQ(st.result.violation, fc.expected) << st.result.violation_detail;
  int alerts = 0;
  for (const auto& rec : st.audit) {
    if (rec.kind != os::AuditKind::Violation) continue;
    ++alerts;
    EXPECT_EQ(rec.violation, fc.expected);
    EXPECT_TRUE(rec.killed);
    EXPECT_EQ(rec.sysno, open_no);
  }
  EXPECT_EQ(alerts, 1);

  // The verdict is the one full verification gives without any fast path.
  const Struck eager = strike_open(fc.target, /*eager=*/true);
  EXPECT_EQ(eager.after.cached, 0u);
  EXPECT_EQ(st.result.violation, eager.result.violation);
  EXPECT_EQ(st.result.violation_detail, eager.result.violation_detail);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, AscCacheFlip,
    ::testing::Values(FlipCase{"call_mac", Flip::CallMac, os::Violation::BadCallMac},
                      FlipCase{"string_body", Flip::StringBody, os::Violation::BadStringArg},
                      FlipCase{"pred_set_body", Flip::PredSetBody, os::Violation::BadStringArg},
                      FlipCase{"descriptor", Flip::Descriptor, os::Violation::BadCallMac},
                      FlipCase{"block_id", Flip::BlockId, os::Violation::BadCallMac},
                      FlipCase{"const_arg", Flip::ConstArg, os::Violation::BadCallMac},
                      FlipCase{"pred_ptr", Flip::PredPtr, os::Violation::BadCallMac},
                      FlipCase{"state_ptr", Flip::StatePtr, os::Violation::BadCallMac}),
    [](const ::testing::TestParamInfo<FlipCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace asc
