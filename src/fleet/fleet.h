// Fleet driver: thousands of tenant kernels, one aggregated audit stream.
// A cadence-plan builder over the lifecycle runner (fault/lifecycle.h).
//
// The tenant-sharding refactor (os/tenant.h) makes every Kernel's
// enforcement state a self-contained TenantState shard: MAC key (with its
// own CMAC schedule), verified-call cache, policy-state shadow, health map,
// and audit log all live in the shard, and no state is shared between
// shards. The fleet driver is the proof of that design at scale: it runs
// 1k-100k simulated guest lifecycles, each on its own System (= its own
// kernel = its own shard, under its own MAC key), fanned out over
// util::Executor, with mixed workloads and churn -- spawn/exec/teardown
// storms, staggered mid-run key rotations, monitor swaps -- and merges every
// tenant's VerdictRecords into one aggregated audit stream.
//
// Each lifecycle returns its tenant's audit records with its verdict.
// parallel_map hands the verdicts back in tenant order whatever the
// schedule, so merging them in that order gives a record stream, formatted
// lines and a digest that are byte-identical at ANY job count -- jobs=1 is
// the executor's exact serial reference, and tests assert jobs 1/2/8 agree.
//
// The runner's oracles audit every tenant kernel after every run, exactly
// as for the chaos engine (fault/chaos.h): watch-range accounting balances,
// the cache/shadow/health maps reference only live pids, clean lifecycles
// reproduce the installed guest's clean reference byte-for-byte, and a
// tampered tenant fail-stops with an expected Violation class while
// perturbing NOTHING outside its own shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/lifecycle.h"
#include "os/auditlog.h"
#include "util/executor.h"

namespace asc::fleet {

struct FleetConfig {
  std::uint64_t seed = 1;
  /// Tenant lifecycles to drive. Each is one System: install-verified guest
  /// rekeyed to the tenant's own key (derived from its substream; one
  /// Rekeyer pass, no re-analysis, so no tenant's kernel accepts another
  /// tenant's images), one or two runs (respawn churn), teardown, oracle
  /// audit.
  int tenants = 1000;
  /// Churn cadences (0 disables). Tenant t rotates its key mid-run when
  /// t % rotate_every == rotate_every - 1; the strike call is drawn from the
  /// tenant's substream, so rotations are staggered across the fleet. A
  /// rotation is GENUINE: the tenant rekeys to a fresh key derived from its
  /// own substream, swapping in a Rekeyer-re-signed view via Kernel::rekey
  /// at the drawn call (deferred to the next trap boundary if it lands
  /// mid-trap), and the guest must still complete identically.
  int rotate_every = 7;
  /// Tenant t swaps in a fresh monitor between runs on this cadence.
  int swap_every = 5;
  /// Tenant t tears its guest down and respawns it (second run on the SAME
  /// kernel) on this cadence.
  int respawn_every = 3;
  /// Tenants that run a tampered lifecycle (guest-tamper FaultSpec drawn
  /// from the tenant's substream). Membership is config-driven, not drawn
  /// from the RNG, so adding a tenant here NEVER shifts any other tenant's
  /// stream -- the isolation tests rely on this.
  std::vector<int> tamper_tenants;
  /// Guest pool (empty = default_fleet_guests()).
  std::vector<fault::GuestProgram> guests;
  /// Executor the lifecycles fan out over (nullptr = process-global pool).
  util::Executor* executor = nullptr;
};

/// One tenant lifecycle, classified. The per-tenant row of the fleet.
struct TenantVerdict {
  int tenant = 0;
  std::string guest;
  int runs = 0;
  std::uint64_t syscalls = 0;  // verified syscalls across all runs
  std::uint64_t cycles = 0;    // modeled guest cycles across all runs
  bool rotated = false;
  bool swapped = false;
  bool respawned = false;
  bool tampered = false;
  /// Tamper reproducer (spec_repr) for tampered tenants, "-" otherwise.
  std::string plan_repr = "-";
  os::Violation violation = os::Violation::None;
  /// The tenant shard's retained bytes after teardown
  /// (Kernel::tenant_state().approx_bytes()).
  std::size_t shard_bytes = 0;
  /// Invariant-oracle failures (empty = lifecycle sound).
  std::vector<std::string> trips;
  /// One-line digest, byte-identical across executor widths.
  std::string trace_line;
  /// The tenant kernel's audit log after teardown; merge_audit moves it
  /// into FleetResult::audit.
  std::vector<os::VerdictRecord> audit;
};

/// Every tenant's audit records, merged in tenant order.
struct FleetAudit {
  std::vector<os::VerdictRecord> records;  // tenant order, then log order
  std::vector<std::string> lines;          // "[t00042 cat] ALERT ..." views
  std::string digest;                      // FNV-1a over the lines, hex
  std::size_t tenants_with_records = 0;
};

/// Merge the tenants' audit records in the order given, which Driver::run
/// passes as tenant order: each record is tagged with its tenant id and
/// guest, and the lines are digested. Moves every TenantVerdict::audit out.
FleetAudit merge_audit(std::vector<TenantVerdict>& tenants);

struct FleetResult {
  std::vector<TenantVerdict> tenants;
  std::uint64_t total_syscalls = 0;
  std::uint64_t total_cycles = 0;
  int rotations = 0;
  int swaps = 0;
  int respawns = 0;
  int tampered = 0;
  int tamper_detected = 0;
  /// Sum of every tenant shard's retained bytes (capacity planning).
  std::size_t total_shard_bytes = 0;
  /// Flattened oracle trips from every tenant (empty = fleet sound).
  std::vector<std::string> trips;
  /// One line per tenant, in tenant order; the determinism surface the
  /// fleet tests compare across jobs=1/2/8.
  std::vector<std::string> verdict_trace;
  /// Every tenant's audit records, merged in tenant order.
  FleetAudit audit;

  bool ok() const { return trips.empty(); }
  std::string summary() const;
};

/// Light mixed pool for fleet-scale runs: the file tools plus a spawning
/// guest so churn includes nested child processes (spawn/exec/teardown).
std::vector<fault::GuestProgram> default_fleet_guests(os::Personality p);

class Driver {
 public:
  explicit Driver(FleetConfig cfg) : cfg_(std::move(cfg)) {}

  const FleetConfig& config() const { return cfg_; }

  /// Drive all tenant lifecycles and aggregate. Deterministic for a fixed
  /// config at any executor width.
  FleetResult run();

 private:
  FleetConfig cfg_;
};

}  // namespace asc::fleet
