// The simulated kernel, structured as a staged trap pipeline:
//
//   (1) trap layer      -- os/kernel.cpp: captures a TrapContext from the
//                          trapping process (sysno, call site, raw args) and
//                          threads it through the stages below. One context
//                          per trap, on the handler's stack, so nested traps
//                          (Spawn) cannot clobber each other.
//   (2) enforcement     -- os/sysmonitor.cpp: Kernel::inspect runs the
//                          enforcement list (Off / Asc / Daemon /
//                          KernelTable, in order, first violation wins)
//                          on the context and returns a verdict.
//   (3) dispatch        -- os/dispatch.cpp: the syscall handlers, reading
//                          identity and arguments from the context.
//   (4) audit           -- os/auditlog.h: the AuditLog records verdicts and
//                          security events and applies the failure mode
//                          (fail-stop / budgeted / audit-only).
//
// This is the component the paper implements by adding 248 lines to the
// Linux trap handler plus a crypto library; the four enforcement modes let
// the benches compare monitoring architectures (§4.2).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cmac.h"
#include "os/auditlog.h"
#include "os/costmodel.h"
#include "os/fs.h"
#include "os/health.h"
#include "os/process.h"
#include "os/rekey.h"
#include "os/syscalls.h"
#include "os/sysmonitor.h"
#include "os/tenant.h"
#include "os/trapcontext.h"

namespace asc::os {

/// One observed system call (used by training-based policy generation and by
/// tests that assert on guest behavior).
struct TraceEntry {
  SysId id = SysId::Exit;
  std::uint16_t sysno = 0;
  std::uint32_t call_site = 0;
  std::array<std::uint32_t, kMaxSyscallArgs> args{};
  std::string path;  // resolved first PathIn argument, if any
  std::int64_t ret = 0;
};

/// Counters of the live-rekey protocol (`asctool run --stats` surface).
struct RekeyCounters {
  std::uint64_t rekeys = 0;        // rotations applied to a live process
  std::uint64_t deferred = 0;      // requests parked until a trap boundary
  std::uint64_t macs_applied = 0;  // MAC slots patched + state re-MACs
};

class Kernel {
 public:
  explicit Kernel(Personality personality, CostModel cost = {});
  // The tier lattice holds a reference to this kernel's cost model.
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Personality personality() const { return personality_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  SimFs& fs() { return fs_; }
  const SimFs& fs() const { return fs_; }

  // ---- enforcement layer configuration ----
  /// Enforce one mode (see os/sysmonitor.h).
  void set_enforcement(Enforcement e) { set_enforcement(std::vector<Enforcement>{e}); }
  /// Enforce a list of modes, run in order on every trap; the first
  /// violation wins and later modes are neither run nor charged. An empty
  /// list allows everything.
  void set_enforcement(std::vector<Enforcement> modes);
  const std::vector<Enforcement>& enforcement() const { return enforcement_; }
  /// Install the MAC key (required for Asc enforcement). In the real system
  /// only the installer and the kernel ever hold this key.
  void set_key(const crypto::Key128& key);
  const crypto::MacKey* key() const { return tenant_.key ? &*tenant_.key : nullptr; }
  /// Policy for the Daemon and KernelTable modes, per program name.
  void set_monitor_policy(const std::string& program, MonitorPolicy policy);
  /// Normalize path arguments before checking the Daemon and KernelTable
  /// path policies (§5.4).
  void set_normalize_paths(bool on) { normalize_paths_ = on; }

  // ---- the tier lattice (os/tiertable.h) ----
  /// The whole lattice: gates, thresholds, per-site and per-pid records,
  /// health, stats. The setters below are the run-configuration shorthand
  /// `asctool run` and the benches use.
  TierTable& tier_table() { return tenant_.tiers; }
  const TierTable& tier_table() const { return tenant_.tiers; }
  /// The verified-call cache (Cached tier), on by default. When disabled,
  /// every trap performs the full §3.4 verification (the paper's uncached
  /// behavior). Gating a fast path off demotes every inline site.
  void set_verified_call_cache(bool on) { tenant_.tiers.set_cache_enabled(on); }
  /// The policy-state shadow (Shadowed tier), on by default. Disabling
  /// writes every live shadow back first, so the eager §3.2 protocol
  /// resumes coherently mid-run.
  void set_policy_shadow(bool on) { tenant_.tiers.set_shadow_enabled(on); }
  /// The trap-less Inline tier, off by default: a (pid, site) that earns N
  /// consecutive clean Shadowed-tier verifications of a side-effect-light
  /// syscall skips the enforce->audit pipeline behind a pre-authorized
  /// register/shadow probe.
  void set_inline_tier(bool on) { tenant_.tiers.set_inline_enabled(on); }
  /// Aligned per-tier counters -- the `asctool run --stats` table.
  TierStats tier_stats() const { return tenant_.tiers.stats(); }

  // ---- the tenant shard ----
  /// The whole per-tenant slice of this kernel's state (os/tenant.h): key,
  /// tier lattice, audit. One kernel == one tenant; the fleet layer holds
  /// many kernels and therefore many disjoint shards.
  TenantState& tenant_state() { return tenant_; }
  const TenantState& tenant_state() const { return tenant_; }

  // ---- per-pid health (self-healing fast-path quarantine) ----
  // See os/health.h for the state machine; the records live in the lattice.
  /// An EXTERNAL invariant oracle (chaos engine, tests) detected an
  /// inconsistency in this pid's kernel bookkeeping: demote its health and
  /// quarantine its fast paths. Never counts toward the violation budget --
  /// this is the kernel's defect, not the guest's.
  void report_internal_fault(Process& p, const std::string& detail);

  // ---- live key rotation (differential rekey; installer/rekeyer.h) ----
  /// Move a live process onto `new_key` using the re-signed MAC bytes in
  /// `view` (produced by Rekeyer::rekey over the same installed image). With
  /// no trap in flight the swap is applied immediately; requested mid-trap
  /// (e.g. from a stage hook) it is PARKED and applied at the next trap's
  /// entry, before any verification begins -- so every trap verifies under
  /// wholly-old or wholly-new material, never a mix (the rekey-toctou fault
  /// class pins this). The swap: establish the trusted {lastBlock, counter}
  /// (shadow copy if live, else the guest record verified under the OLD
  /// key), run the set_key() rotation spine (inline demotions + shadow
  /// write-backs under the old key), patch the view's MAC slots, then re-MAC
  /// the CURRENT state under the new key. A guest record that fails the
  /// old-key check refuses the swap (the old key stays; the tampered record
  /// fail-stops at the next eager check). Returns true if applied, false if
  /// deferred or refused.
  bool rekey(Process& p, const crypto::Key128& new_key, const RekeyView& view);
  const RekeyCounters& rekey_counters() const { return rekey_counters_; }
  /// Depth of in-flight traps (0 = quiesced). A rekey requested at depth 0
  /// applies immediately; deeper requests defer to the next trap boundary.
  /// The PreTrap stage runs at the caller's depth, before the trap is
  /// entered, so a PreTrap hook observing depth 0 is at exactly the point
  /// where a pending rekey will land next.
  int trap_depth() const { return trap_depth_; }

  /// Stage hook: fires at every TrapStage boundary of on_syscall with the
  /// in-flight context -- the one trap hook for tests, tracers and fault
  /// injection (pass {} to clear). PreTrap fires first on every trap; see
  /// os/trapcontext.h. Enforcement is never on the stack when the hook runs,
  /// so hooks may rotate keys, tear down the process, or invalidate
  /// fast-path entries. A hook leaves the threaded engine on.
  using StageHook = std::function<void(Process&, TrapContext&, TrapStage)>;
  void set_stage_hook(StageHook h) { stage_hook_ = std::move(h); }

  // ---- audit layer (graceful degradation + the security log) ----
  AuditLog& audit_log_component() { return tenant_.audit; }
  const AuditLog& audit_log_component() const { return tenant_.audit; }
  /// Reaction to an established violation (default: paper-faithful
  /// fail-stop). Budgeted mode kills only when a process exceeds the
  /// violation budget; AuditOnly never kills.
  void set_failure_mode(FailureMode m) { tenant_.audit.set_failure_mode(m); }
  FailureMode failure_mode() const { return tenant_.audit.failure_mode(); }
  /// Violations tolerated per process in Budgeted mode before the kill
  /// (0 = kill on the first violation, same as FailStop).
  void set_violation_budget(std::uint32_t n) { tenant_.audit.set_violation_budget(n); }
  std::uint32_t violation_budget() const { return tenant_.audit.violation_budget(); }
  /// Structured security/audit log: violation verdicts ("alert the
  /// administrator"), spawn events, network sends, signals.
  const std::vector<VerdictRecord>& audit_log() const { return tenant_.audit.records(); }
  /// Append a record to the audit log. VerdictRecord::to_string() renders
  /// one as its one-line text ("ALERT ...", "SPAWN ...").
  void audit(VerdictRecord rec) { tenant_.audit.append(std::move(rec)); }
  /// Clear the audit log. The trace (below) is a separate, training-oriented
  /// surface and is deliberately not touched: see os/auditlog.h.
  void clear_events() { tenant_.audit.reset(); }

  // ---- tracing (training telemetry; not part of the audit layer) ----
  void set_tracing(bool on) { tracing_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  /// Virtual wall clock (ns); advanced by nanosleep and by retired cycles.
  std::uint64_t virtual_time_ns() const { return vtime_ns_; }
  void advance_time(std::uint64_t ns) { vtime_ns_ += ns; }

  /// Hook used by the Spawn syscall: run another program to completion and
  /// return its exit status (or a negative error). Installed by vm::Machine.
  /// Re-enters the trap pipeline for every child syscall; each nested trap
  /// gets its own stacked TrapContext.
  using SpawnHandler = std::function<std::int64_t(Process& parent, const std::string& path,
                                                  const std::vector<std::string>& argv)>;
  void set_spawn_handler(SpawnHandler h) { spawn_ = std::move(h); }

  /// The software trap handler. Entered by the VM on a SYSCALL instruction;
  /// `call_site` is the address of the trapping instruction (derived from
  /// the interrupt return address in the real system). Runs the pipeline:
  /// pre-trap hook, capture, enforce, dispatch, audit. An Inline-tier hit
  /// replaces the enforce stage with the lattice's probe and fires no stage
  /// hook after PreTrap.
  void on_syscall(Process& p, std::uint32_t call_site);

 private:
  /// (1) trap layer: capture the context and charge the trap cost.
  TrapContext capture_trap(Process& p, std::uint32_t call_site);
  /// Resolve __syscall indirection (BsdSim's route to mmap) into the
  /// context's effective identity. False = unresolvable (ENOSYS).
  bool resolve_indirect(TrapContext& ctx);
  /// Current virtual timestamp for audit records of `p`.
  std::uint64_t now_ns(const Process& p) const { return vtime_ns_ + p.cycles; }
  /// Audit a non-violation event (net/signal/spawn) with full trap context.
  void log_event(Process& p, const TrapContext& ctx, AuditKind kind, std::string detail);

  // ---- enforcement layer (os/sysmonitor.cpp) ----
  /// (2) Run the enforcement list on the captured trap.
  MonitorVerdict inspect(Process& p, TrapContext& ctx);
  /// The Daemon/KernelTable check: `p`'s program policy permits the call
  /// (by number or fsread/fswrite alias, and by path pattern where one was
  /// trained). False sets `why`.
  bool table_allows(Process& p, const TrapContext& ctx, std::string* why) const;

  // ---- health machine internals (see os/health.h) ----
  /// Cheap per-trap self-check of the fast-path bookkeeping (shadow nonce
  /// coherence), run by Asc enforcement before it gates the fast paths.
  /// Charges no modeled cycles and emits no records on clean runs. Demotes
  /// on a mismatch. `owner` is the pid's lattice record
  /// (TierTable::find_pid), which the verification resolves once.
  void health_self_check(Process& p, const TrapContext& ctx, const TierTable::PidRecord* owner);
  /// Outcome of one ASC verification of `p` (clean = no violation, eager =
  /// served by neither fast path); drives streak counting and the earned
  /// re-promotions. `owner` as for health_self_check. Charges no modeled
  /// cycles.
  void note_verification(Process& p, const TrapContext& ctx, TierTable::PidRecord* owner,
                         bool clean, bool eager);
  /// Record an internal inconsistency: audit it, evict the pid's fast
  /// paths (TierTable::evict_pid), and demote one level. `ctx` may be null
  /// (oracle reports arrive outside any trap).
  void internal_fault(Process& p, const TrapContext* ctx, const std::string& detail);
  /// Enter (or deepen) quarantine: doubles the promote threshold per entry.
  void enter_quarantine(HealthRecord& h);
  /// Append an InternalFault/Health record (synthesizes a context-free
  /// record when ctx is null).
  void health_event(Process& p, const TrapContext* ctx, AuditKind kind,
                    std::string detail);

  // ---- dispatch layer (os/dispatch.cpp) ----
  std::int64_t dispatch(Process& p, TrapContext& ctx);
  std::string read_path(Process& p, std::uint32_t addr);
  std::int64_t sys_open(Process& p, const TrapContext& ctx);
  std::int64_t sys_read(Process& p, TrapContext& ctx,
                        const std::array<std::uint32_t, kMaxSyscallArgs>& a);
  std::int64_t sys_write(Process& p, TrapContext& ctx,
                         const std::array<std::uint32_t, kMaxSyscallArgs>& a);

  Personality personality_;
  CostModel cost_;
  SimFs fs_;
  std::vector<Enforcement> enforcement_{Enforcement::Off};
  /// True iff the enforcement list is exactly {Asc}: the only list the
  /// trap-less inline probe may stand in for. Any other mode in the list
  /// must see every trap, so a chain containing Asc clears it too.
  bool asc_only_ = false;
  /// The per-tenant shard: key, tier lattice, audit (os/tenant.h).
  TenantState tenant_;
  std::map<std::string, MonitorPolicy> monitor_policies_;
  bool normalize_paths_ = false;
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;
  std::uint64_t vtime_ns_ = 1'000'000'000;  // arbitrary epoch
  SpawnHandler spawn_;
  StageHook stage_hook_;

  // ---- live-rekey machinery ----
  /// Perform the swap now (trap boundary established by the caller).
  bool apply_rekey(Process& p, const crypto::Key128& new_key, const RekeyView& view);
  struct PendingRekey {
    crypto::Key128 key{};
    RekeyView view;
  };
  /// A rotation requested mid-trap, applied at the next depth-0 trap entry.
  std::optional<PendingRekey> pending_rekey_;
  RekeyCounters rekey_counters_;
  /// Nesting depth of on_syscall (spawn nests child traps inside the
  /// parent's); rekeys apply only at depth 0, i.e. between whole traps.
  int trap_depth_ = 0;
};

}  // namespace asc::os
