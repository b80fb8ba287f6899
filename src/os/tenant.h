// The per-tenant shard of kernel enforcement state.
//
// Everything the kernel tracks on behalf of ONE tenant's guest processes
// lives here, in a single value type with no hidden global state behind it:
// the MAC key, the tiered verification lattice (os/tiertable.h -- one
// verified record per (pid, call site) and one record per pid holding its
// shadow and health, behind one write-watch invalidation spine), and the
// structured audit log. os::Kernel
// owns exactly one TenantState and delegates to it, so the single-tenant
// API is unchanged -- but a fleet of kernels is now, by construction, a
// fleet of disjoint shards: thousands of tenants can verify system calls
// concurrently with no shared state at all. Each tenant's MacKey owns its
// own CMAC key schedule (crypto/cmac.h). fleet::Driver builds on exactly
// this property.
//
// Sharding rationale (why these three and nothing else): each member is
// keyed by pid or by the tenant's key, never by anything another tenant can
// name. The pieces of Kernel that stay outside -- personality, cost model,
// the simulated filesystem, the monitor, trace/tracing, the virtual clock --
// are configuration or simulation plumbing, not enforcement state; sharing
// or cloning them is a policy decision the embedder makes per System.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/cmac.h"
#include "os/auditlog.h"
#include "os/costmodel.h"
#include "os/tiertable.h"

namespace asc::os {

struct TenantState {
  /// `cost` is the owning kernel's cost model, which shadow write-backs
  /// charge.
  explicit TenantState(const CostModel& cost) : tiers(key, cost) {}

  /// The tenant's MAC key (installer/kernel shared secret). Distinct tenants
  /// hold distinct MacKey instances even under equal key bytes, so rotation
  /// in one tenant can never invalidate another tenant's verifications.
  std::optional<crypto::MacKey> key;

  /// The tiered verification lattice: Eager -> Cached -> Shadowed -> Inline
  /// per (pid, site), with the per-pid health machine as its demotion floor
  /// and one write-watch spine invalidating every tier (os/tiertable.h).
  /// Declared after `key`, which it reads for write-backs.
  TierTable tiers;

  /// Structured security/audit log; the fleet driver returns records() with
  /// each tenant's verdict and merges them in tenant order.
  AuditLog audit;

  /// Approximate retained bytes of this shard (capacity-planning surface for
  /// the Table 7 fleet bench: deterministic, counts the dynamic containers,
  /// not allocator overhead).
  std::size_t approx_bytes() const {
    return sizeof(TenantState) + tiers.approx_bytes() + audit.approx_bytes();
  }
};

}  // namespace asc::os
