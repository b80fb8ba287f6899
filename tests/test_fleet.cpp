// Fleet driver and aggregated audit pipeline: determinism, tenant isolation,
// and churn bookkeeping. These suites are in the TSan CI leg (they fan
// tenant lifecycles out over the executor and hammer the sharded CMAC
// schedule memo from many workers at once).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "crypto/cmac.h"
#include "fleet/fleet.h"
#include "util/executor.h"
#include "util/hex.h"

namespace asc {
namespace {

fleet::FleetResult run_fleet(fleet::FleetConfig cfg, int jobs) {
  util::Executor exec(jobs);
  cfg.executor = &exec;
  return fleet::Driver(cfg).run();
}

// ---- the aggregated audit pipeline in isolation ----

os::VerdictRecord rec(int pid, const std::string& detail) {
  os::VerdictRecord r;
  r.kind = os::AuditKind::Spawn;
  r.pid = pid;
  r.prog = "unit";
  r.detail = detail;
  return r;
}

TEST(FleetAuditPipeline, MergesInAscendingTenantOrderRegardlessOfStreamOrder) {
  fleet::AuditPipeline a(5);
  fleet::AuditPipeline b(5);
  // Stream the same slots in opposite orders (as racing workers would).
  a.stream(4, "g4", {rec(1, "four")});
  a.stream(0, "g0", {rec(1, "zero-a"), rec(2, "zero-b")});
  a.stream(2, "g2", {rec(1, "two")});
  b.stream(2, "g2", {rec(1, "two")});
  b.stream(0, "g0", {rec(1, "zero-a"), rec(2, "zero-b")});
  b.stream(4, "g4", {rec(1, "four")});

  const auto ma = a.merge();
  const auto mb = b.merge();
  EXPECT_EQ(ma.lines, mb.lines);
  EXPECT_EQ(ma.digest, mb.digest);
  ASSERT_EQ(ma.records.size(), 4u);
  EXPECT_EQ(ma.tenants_with_records, 3u);
  // Tenant order, then log order within a tenant.
  EXPECT_EQ(ma.records[0].detail, "zero-a");
  EXPECT_EQ(ma.records[1].detail, "zero-b");
  EXPECT_EQ(ma.records[2].detail, "two");
  EXPECT_EQ(ma.records[3].detail, "four");
  ASSERT_EQ(ma.lines.size(), 4u);
  EXPECT_EQ(ma.lines[0].rfind("[t00000 g0] ", 0), 0u) << ma.lines[0];
  EXPECT_EQ(ma.lines[3].rfind("[t00004 g4] ", 0), 0u) << ma.lines[3];
}

TEST(FleetAuditPipeline, DigestChangesWhenAnyRecordChanges) {
  fleet::AuditPipeline a(2);
  fleet::AuditPipeline b(2);
  a.stream(0, "g", {rec(1, "same")});
  b.stream(0, "g", {rec(1, "tampered")});
  EXPECT_NE(a.merge().digest, b.merge().digest);
}

// ---- fleet determinism across executor widths ----

TEST(FleetDriver, ByteIdenticalAtJobs128) {
  fleet::FleetConfig cfg;
  cfg.seed = 42;
  cfg.tenants = 48;
  cfg.tamper_tenants = {5, 23};

  std::vector<fleet::FleetResult> results;
  for (const int jobs : {1, 2, 8}) {
    results.push_back(run_fleet(cfg, jobs));
    const fleet::FleetResult& r = results.back();
    EXPECT_TRUE(r.ok()) << "jobs=" << jobs << "\n" << r.summary();
    ASSERT_EQ(r.tenants.size(), 48u);
  }
  // jobs=1 is the executor's exact serial reference; wider runs must agree
  // byte for byte on both determinism surfaces: the per-tenant verdict
  // trace and the aggregated audit stream.
  EXPECT_EQ(results[0].verdict_trace, results[1].verdict_trace);
  EXPECT_EQ(results[0].verdict_trace, results[2].verdict_trace);
  EXPECT_EQ(results[0].audit.lines, results[1].audit.lines);
  EXPECT_EQ(results[0].audit.lines, results[2].audit.lines);
  EXPECT_EQ(results[0].audit.digest, results[1].audit.digest);
  EXPECT_EQ(results[0].audit.digest, results[2].audit.digest);
}

// ---- per-tenant keys ----
// Every tenant rekeys the shared installed template to its own derived key
// (one install, N Rekeyer passes): lifecycles must stay clean -- including
// the genuine mid-run rotations and respawn churn -- and the determinism
// surfaces must stay byte-identical at any executor width.
TEST(FleetDriver, PerTenantKeysAreByteDeterministicAtJobs128) {
  fleet::FleetConfig cfg;
  cfg.seed = 42;
  cfg.tenants = 48;
  cfg.tamper_tenants = {5, 23};

  std::vector<fleet::FleetResult> results;
  for (const int jobs : {1, 2, 8}) {
    results.push_back(run_fleet(cfg, jobs));
    const fleet::FleetResult& r = results.back();
    EXPECT_TRUE(r.ok()) << "jobs=" << jobs << "\n" << r.summary();
    ASSERT_EQ(r.tenants.size(), 48u);
    EXPECT_EQ(r.tampered, 2);
    EXPECT_EQ(r.tamper_detected, 2);
    EXPECT_GT(r.rotations, 0);
  }
  EXPECT_EQ(results[0].verdict_trace, results[1].verdict_trace);
  EXPECT_EQ(results[0].verdict_trace, results[2].verdict_trace);
  EXPECT_EQ(results[0].audit.lines, results[1].audit.lines);
  EXPECT_EQ(results[0].audit.digest, results[1].audit.digest);
  EXPECT_EQ(results[0].audit.digest, results[2].audit.digest);
}

// ---- tenant isolation ----

TEST(FleetDriver, TamperInOneTenantNeverPerturbsTheOthers) {
  fleet::FleetConfig clean_cfg;
  clean_cfg.seed = 7;
  clean_cfg.tenants = 24;
  fleet::FleetConfig tampered_cfg = clean_cfg;
  tampered_cfg.tamper_tenants = {3};

  const fleet::FleetResult rc = run_fleet(clean_cfg, 4);
  const fleet::FleetResult rt = run_fleet(tampered_cfg, 4);
  EXPECT_TRUE(rc.ok()) << rc.summary();
  EXPECT_TRUE(rt.ok()) << rt.summary();

  // The tampered tenant fail-stopped with a verdict...
  EXPECT_TRUE(rt.tenants[3].tampered);
  EXPECT_NE(rt.tenants[3].violation, os::Violation::None);
  EXPECT_EQ(rt.tamper_detected, 1);
  EXPECT_NE(rc.verdict_trace[3], rt.verdict_trace[3]);

  // ...and every OTHER tenant's verdict line is byte-identical to the run
  // where no tamper existed anywhere: shards are disjoint, and substreams
  // are keyed by (seed, tenant), so nothing leaks across tenants.
  for (int t = 0; t < 24; ++t) {
    if (t == 3) continue;
    EXPECT_EQ(rc.verdict_trace[static_cast<std::size_t>(t)],
              rt.verdict_trace[static_cast<std::size_t>(t)])
        << "tenant " << t << " was perturbed by tenant 3's tamper";
  }
  // Same for the aggregated audit stream, minus tenant 3's lines.
  auto without_t3 = [](const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const auto& l : lines) {
      if (l.rfind("[t00003 ", 0) != 0) out.push_back(l);
    }
    return out;
  };
  EXPECT_EQ(without_t3(rc.audit.lines), without_t3(rt.audit.lines));
}

// ---- churn leaves every shard's accounting balanced ----

TEST(FleetDriver, HeavyChurnKeepsShardBookkeepingBalanced) {
  fleet::FleetConfig cfg;
  cfg.seed = 11;
  cfg.tenants = 30;
  cfg.rotate_every = 2;   // half the fleet rotates its key mid-run
  cfg.swap_every = 2;     // half the fleet swaps its monitor between runs
  cfg.respawn_every = 1;  // EVERY tenant tears down and respawns

  const fleet::FleetResult r = run_fleet(cfg, 4);
  // Zero oracle trips = every run's watch accounting balanced and every
  // shard's cache/shadow/health maps were empty after teardown.
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.respawns, 30);
  EXPECT_EQ(r.swaps, 15);
  // rotate cadence 2 minus the tenants whose lifecycle skipped rotation:
  // none are tampered here, so exactly the cadence.
  EXPECT_EQ(r.rotations, 15);
  for (const auto& tv : r.tenants) {
    EXPECT_EQ(tv.runs, 2) << "tenant " << tv.tenant;
    EXPECT_GT(tv.shard_bytes, 0u);
    EXPECT_GT(tv.syscalls, 0u);
  }
  EXPECT_GT(r.total_syscalls, 0u);
  EXPECT_GT(r.total_cycles, 0u);
}

// ---- the Inline tier at fleet scale: respawn churn must tear tier state
// all the way down (the lifecycle oracle trips on any surviving site) ----

TEST(FleetDriver, InlineTierStateIsTornDownBetweenTenantRespawns) {
  fleet::FleetConfig cfg;
  cfg.seed = 13;
  cfg.tenants = 24;
  cfg.respawn_every = 1;  // EVERY tenant runs twice on the same kernel
  // The default pool plus the getpid loop: the guest whose site promotes.
  cfg.guests = fleet::default_fleet_guests(fault::kPersonality);
  cfg.guests.push_back(fault::getpid_loop_guest(fault::kPersonality));

  const fleet::FleetResult r = run_fleet(cfg, 4);
  // Zero trips = after every run (including the first of each respawn pair)
  // the tenant kernel held zero inline sites AND the watch accounting
  // balanced -- the inline tier's own write-watches were all released.
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.respawns, 24);
  for (const auto& tv : r.tenants) {
    EXPECT_EQ(tv.runs, 2) << "tenant " << tv.tenant;
  }
  // At least one tenant drew the pidloop guest (24 tenants over a 5-guest
  // pool): the run exercised actual promotion.
  const bool saw_pidloop =
      std::any_of(r.tenants.begin(), r.tenants.end(),
                  [](const fleet::TenantVerdict& tv) { return tv.guest == "pidloop"; });
  EXPECT_TRUE(saw_pidloop) << "no tenant drew the promoting guest";

  // Determinism holds with the tier on.
  const fleet::FleetResult r2 = run_fleet(cfg, 1);
  EXPECT_EQ(r.verdict_trace, r2.verdict_trace);
  EXPECT_EQ(r.audit.digest, r2.audit.digest);
}

// ---- the sharded CMAC schedule memo under concurrent construction ----

// Regression test for the fleet's only cross-tenant shared state: many
// workers constructing Cmac engines at once (per-lifecycle System setup +
// staggered rotations) must be race-free -- the TSan CI leg runs this suite
// -- and engines sharing a key must agree on every MAC.
TEST(FleetCmacMemo, ConcurrentConstructionAndRotationIsCoherent) {
  const auto msg = util::bytes_of("fleet tenant payload");
  std::atomic<int> mismatches{0};
  util::Executor exec(8);
  exec.parallel_for(256, [&](std::size_t i) {
    crypto::Key128 k{};
    // 32 distinct keys, each hit by ~8 concurrent constructions, spread
    // across the memo's shards.
    k[0] = static_cast<std::uint8_t>(i % 32);
    k[15] = static_cast<std::uint8_t>((i % 32) ^ 0xa5);
    const crypto::Cmac a(k);
    const crypto::Cmac b(k);  // second engine shares the memoized schedule
    if (!crypto::Cmac::equal(a.compute(msg), b.compute(msg))) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  // All 256 engines died at scope end; the memo stays bounded (at most one
  // expired node per shard survives the per-construction sweep).
  std::size_t retained = crypto::Cmac::schedule_memo_size();
  EXPECT_LE(retained, 32u + crypto::Cmac::kMemoShards);
}

}  // namespace
}  // namespace asc
