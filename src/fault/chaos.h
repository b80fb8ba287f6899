// Lifecycle chaos engine: seeded churn over many concurrent guest Systems.
//
// The fault Campaign (campaign.h) proves the §3.4 invariant one mutated
// execution at a time. The chaos engine -- a random-plan builder over the
// lifecycle runner (lifecycle.h) -- stresses the part a per-run campaign
// cannot: the KERNEL'S OWN lifecycle bookkeeping under churn -- spawn/exec/
// teardown storms, staggered key rotations, monitor swaps, and fast-path
// invalidation -- with faults landing not just before the trap but at every
// TrapStage boundary of the pipeline (FaultSpec::stage), plus the lifecycle
// mutation classes (rotation-during-trap, teardown-mid-verify,
// double-invalidation) and injected INTERNAL inconsistencies that exercise
// the per-pid health machine (os/health.h).
//
// Every tenant is one guest lifecycle on its own System: a fault run under a
// seeded plan, then a recovery run that must behave byte-identically to the
// clean reference. After every run, the runner's oracles audit the kernel's
// bookkeeping:
//
//   * watch-range accounting balances (zero live ranges/refs at teardown,
//     registrations == releases -- vm::Memory::WatchStats);
//   * the verified-call cache, the policy-state shadow, and the health map
//     reference only live pids (all empty between runs);
//   * the audit log is coherent (every InternalFault record is followed by
//     a Health transition for the same pid; violation records are complete);
//   * injected guest tamper still fail-stops with an expected Violation
//     class, while injected internal faults NEVER surface as violations --
//     the guest survives on the degraded path and the kernel self-heals.
//
// Determinism: the per-tenant plan is drawn from a substream derived from
// (seed, tenant), every lifecycle runs on its own System, and verdicts land
// in tenant order -- so the verdict trace is byte-identical at any executor
// width (the soak test asserts jobs 1/2/8 agree).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/lifecycle.h"
#include "os/health.h"

namespace asc::fault {

/// What a tenant's seeded plan does to its lifecycle.
enum class ChaosPlan : std::uint8_t {
  Clean,     // churn only: rotations, monitor swaps, shadow toggles
  Tamper,    // one stage-targeted FaultSpec (guest tamper or lifecycle class)
  Internal,  // injected internal inconsistencies driving the health machine
};

std::string chaos_plan_name(ChaosPlan p);

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Guest lifecycles to drive (each = one System: install, fault run,
  /// recovery run, teardown).
  int tenants = 32;
  /// Mutation classes the Tamper plans draw from (empty = all classes).
  std::vector<MutationClass> classes;
  /// TrapStage pool for stage-targetable classes (empty = all boundaries).
  std::vector<os::TrapStage> stages;
  /// Executor the lifecycles fan out over (nullptr = process-global pool).
  util::Executor* executor = nullptr;
};

/// One tenant lifecycle, classified.
struct LifecycleVerdict {
  int tenant = 0;
  std::string guest;
  ChaosPlan plan = ChaosPlan::Clean;
  /// Reproducer token: spec_repr for Tamper, "bump@N+report@M" for
  /// Internal, "-" for Clean. Together with the engine seed and the tenant
  /// index this replays the lifecycle exactly.
  std::string plan_repr = "-";
  Outcome fault_outcome = Outcome::Benign;
  os::Violation violation = os::Violation::None;
  /// Health-machine transition counters of this tenant's kernel (fresh per
  /// lifecycle, so these ARE the lifecycle's deltas).
  os::HealthStats health;
  int runs = 0;
  /// Invariant-oracle failures (empty = lifecycle sound). Each entry is a
  /// self-contained reproducer line: seed, tenant, plan.
  std::vector<std::string> trips;
  /// One-line digest, byte-identical across executor widths.
  std::string trace_line;
};

struct ChaosResult {
  std::vector<LifecycleVerdict> lifecycles;
  int clean_plans = 0;
  int tamper_plans = 0;
  int internal_plans = 0;
  int detected = 0;     // tamper runs that fail-stopped with an expected class
  int benign = 0;       // tamper runs whose mutation was never consumed
  int not_applied = 0;  // tamper specs that found no target
  /// Aggregated health-machine counters across all tenant kernels.
  os::HealthStats health;
  /// Flattened oracle trips from every lifecycle (empty = chaos soak sound).
  std::vector<std::string> trips;
  /// One line per tenant, in tenant order; the determinism surface the soak
  /// compares across jobs=1/2/8.
  std::vector<std::string> verdict_trace;

  bool ok() const { return trips.empty(); }
  std::string summary() const;
};

class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosConfig cfg) : cfg_(std::move(cfg)) {}

  const ChaosConfig& config() const { return cfg_; }

  /// Drive all tenant lifecycles and aggregate. Deterministic for a fixed
  /// (seed, tenants, classes, stages) at any executor width.
  ChaosResult run();

 private:
  ChaosConfig cfg_;
};

}  // namespace asc::fault
