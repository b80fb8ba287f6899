// Trap layer of the staged pipeline (see os/kernel.h): context capture,
// the enforcement/audit hand-off, and configuration. The dispatch layer
// (syscall handlers) lives in os/dispatch.cpp.
#include "os/kernel.h"

#include "policy/policy.h"
#include "util/error.h"

namespace asc::os {

namespace {

/// Tracks on_syscall nesting (spawn re-enters the trap pipeline); the
/// live-rekey protocol applies swaps only at depth 0.
struct TrapDepthGuard {
  explicit TrapDepthGuard(int& d) : depth(d) { ++depth; }
  ~TrapDepthGuard() { --depth; }
  TrapDepthGuard(const TrapDepthGuard&) = delete;
  TrapDepthGuard& operator=(const TrapDepthGuard&) = delete;
  int& depth;  // NOLINT(misc-non-private-member-variables-in-classes)
};

}  // namespace

Kernel::Kernel(Personality personality, CostModel cost)
    : personality_(personality), cost_(cost), tenant_(cost_) {}

void Kernel::set_enforcement(std::vector<Enforcement> modes) {
  // Any change of the list revokes every inline promotion: the new list has
  // inspected none of the promoted sites' traps.
  tenant_.tiers.on_monitor_swap();
  enforcement_ = std::move(modes);
  asc_only_ = enforcement_.size() == 1 && enforcement_.front() == Enforcement::Asc;
}

void Kernel::set_key(const crypto::Key128& key) {
  // Rotation order matters: the lattice drops every site record and writes
  // dirty shadows back under the OLD key first (it reads the tenant's key
  // through its reference to it), leaving guest memory exactly as the eager
  // protocol would have -- then no prior verification survives.
  tenant_.tiers.on_key_rotation();
  // Building the engine derives the AES-CMAC subkeys, once per key. No
  // cycles are charged for it: the cost model counts per-message MAC work.
  tenant_.key.emplace(key);
}

void Kernel::set_monitor_policy(const std::string& program, MonitorPolicy policy) {
  monitor_policies_[program] = std::move(policy);
}

void Kernel::log_event(Process& p, const TrapContext& ctx, AuditKind kind, std::string detail) {
  tenant_.audit.event(p, ctx, kind, std::move(detail), now_ns(p));
}

TrapContext Kernel::capture_trap(Process& p, std::uint32_t call_site) {
  TrapContext ctx;
  ctx.charge(p, cost_.trap);
  ++p.syscall_count;
  const auto& regs = p.cpu.regs;
  ctx.pid = p.pid;
  ctx.call_site = call_site;
  ctx.sysno = static_cast<std::uint16_t>(regs[0]);
  ctx.args = {regs[1], regs[2], regs[3], regs[4], regs[5]};
  ctx.id = syscall_from_number(personality_, ctx.sysno);
  ctx.effective_sysno = ctx.sysno;
  // From the registers, not from `args`: a 16-byte reload of the five 4-byte
  // stores just made would stall on store forwarding, on every trap.
  ctx.effective_args = {regs[1], regs[2], regs[3], regs[4], regs[5]};
  if (ctx.id.has_value()) ctx.effective_id = *ctx.id;
  return ctx;
}

bool Kernel::resolve_indirect(TrapContext& ctx) {
  if (ctx.effective_id != SysId::SyscallIndirect) return true;
  const auto& a = ctx.effective_args;
  const std::uint16_t real = static_cast<std::uint16_t>(a[0]);
  const auto real_id = syscall_from_number(personality_, real);
  // On BsdSim, mmap has no direct number; __syscall names it by the
  // OS-independent convention number 71 (historic BSD mmap).
  SysId resolved;
  if (real == 71) {
    resolved = SysId::Mmap;
  } else if (real_id.has_value()) {
    resolved = *real_id;
  } else {
    return false;
  }
  ctx.effective_id = resolved;
  ctx.effective_sysno = real;
  ctx.effective_args = {a[1], a[2], a[3], a[4], 0};
  return true;
}

bool Kernel::rekey(Process& p, const crypto::Key128& new_key, const RekeyView& view) {
  if (trap_depth_ > 0) {
    // Mid-trap: the in-flight verification must complete wholly under the
    // old material. Park the request; the next whole trap applies it at
    // entry, before any probe or MAC check runs.
    pending_rekey_ = PendingRekey{new_key, view};
    ++rekey_counters_.deferred;
    return false;
  }
  return apply_rekey(p, new_key, view);
}

bool Kernel::apply_rekey(Process& p, const crypto::Key128& new_key, const RekeyView& view) {
  if (!p.mem.in_range(view.state_addr, policy::kPolicyStateSize)) return false;

  // (1) Establish the trusted {lastBlock} before anything is flushed. A
  // live shadow entry IS the trusted copy; otherwise the guest record must
  // verify under the old key and the authoritative per-process nonce -- a
  // record that does not is tampered, and re-MACing it under the new key
  // would launder the tamper, so the swap is refused (the old key stays and
  // the next eager check fail-stops).
  std::uint32_t last_block = 0;
  if (const TierTable::Shadow* sh = tenant_.tiers.shadow(p.pid); sh != nullptr) {
    last_block = sh->last_block;
  } else {
    last_block = p.mem.r32(view.state_addr);
    if (tenant_.key) {
      crypto::Mac guest_mac{};
      p.mem.read_bytes(view.state_addr + 4, 16, guest_mac.data());
      const auto msg = policy::encode_policy_state(last_block, p.asc_counter);
      p.cycles += cost_.mac_cost(msg.size());
      if (!tenant_.key->verify(msg, guest_mac)) return false;
    }
  }

  // (2) The existing rotation spine: drop every site record and write dirty
  // shadows back under the OLD key, then install the new one (see set_key
  // for the ordering contract).
  set_key(new_key);

  // (3) Swap the re-signed MAC bytes into guest memory. The patches land on
  // watched bytes -- the checker watches every call-MAC slot and every AS
  // header plus body it verified -- but (2) dropped every site record, and
  // with them every watch range, so these stores cannot re-enter the
  // invalidation spine.
  for (const RekeyPatch& patch : view.patches) {
    if (!p.mem.in_range(patch.addr, 16)) return false;
    p.mem.write_bytes(patch.addr, patch.bytes);
  }

  // (4) Re-MAC the CURRENT policy state under the new key. The view
  // deliberately carries no state MAC (the install-time seed is stale for a
  // live process); this is the same re-materialization a health eviction
  // performs, under the new key.
  write_policy_state(p, view.state_addr, last_block, p.asc_counter, tenant_.key.value(), cost_);

  ++rekey_counters_.rekeys;
  rekey_counters_.macs_applied += view.patches.size() + 1;
  return true;
}

void Kernel::on_syscall(Process& p, std::uint32_t call_site) {
  // ---- (-2) PreTrap: the hook sees the call before anything else does ----
  // At the caller's trap depth, before the parked rekey and the inline
  // probe, so a depth-0 hook may still rotate the key immediately and any
  // register or memory tamper it applies is what the rest of the trap sees.
  if (stage_hook_) {
    TrapContext pre;
    pre.pid = p.pid;
    pre.call_site = call_site;
    pre.sysno = static_cast<std::uint16_t>(p.cpu.regs[0]);
    stage_hook_(p, pre, TrapStage::PreTrap);
  }

  // ---- (-1) parked rekey: land it at the trap boundary ----
  // A rotation requested mid-trap waits here so the requesting trap
  // completed wholly under the old material; this trap (and every later
  // one) verifies wholly under the new. Applied before the inline probe --
  // the probe's pre-authorization was earned under the old key and must not
  // outlive it.
  if (trap_depth_ == 0 && pending_rekey_.has_value()) {
    const PendingRekey req = std::move(*pending_rekey_);
    pending_rekey_.reset();
    apply_rekey(p, req.key, req.view);
  }
  const TrapDepthGuard depth_guard(trap_depth_);

  // ---- (0) Inline tier: the trap-less pre-authorized path ----
  // A promoted (pid, site) whose live registers and shadowed control-flow
  // state still match its verified snapshot skips the enforce and audit
  // stages: just the trap cost, the pre-authorized probe, and the handler.
  // Any mismatch demoted the site inside try_inline and the trap takes the
  // full pipeline, which re-verifies every MAC -- tamper fail-stops there,
  // never here. An inline hit fires no stage hook after PreTrap.
  const bool inline_hit = asc_only_ && tenant_.tiers.try_inline(p, call_site);

  // ---- (1) trap layer: capture this call's context ----
  TrapContext ctx = capture_trap(p, call_site);
  if (inline_hit) {
    ctx.charge(p, cost_.inline_hit_cost());
  } else {
    if (stage_hook_) stage_hook_(p, ctx, TrapStage::Trap);

    // ---- (2) enforcement layer ----
    // A violation verdict goes to the audit layer, which applies the failure
    // mode; only a kill ends the trap here. A tolerated violation (audit-only
    // / within the violation budget) falls through to normal dispatch.
    MonitorVerdict verdict = inspect(p, ctx);
    if (stage_hook_) stage_hook_(p, ctx, TrapStage::Enforce);
    if (!verdict.allowed()) {
      ctx.verdict = verdict.violation;
      if (tenant_.audit.deny(p, ctx, verdict.violation, verdict.detail, now_ns(p))) return;
    }
  }

  auto& regs = p.cpu.regs;
  if (!ctx.id.has_value() || !resolve_indirect(ctx)) {
    regs[0] = static_cast<std::uint32_t>(-38);  // -ENOSYS
    return;
  }

  // ---- (3) dispatch layer ----
  std::int64_t ret;
  try {
    ret = dispatch(p, ctx);
  } catch (const GuestFault& f) {
    // A syscall argument pointed outside the address space.
    ret = SimFs::kErrInval;
    (void)f;
  }

  ctx.charge(p, cost_.handler_base_cost(ctx.effective_id));
  if (p.running) regs[0] = static_cast<std::uint32_t>(ret);
  if (stage_hook_ && !inline_hit) stage_hook_(p, ctx, TrapStage::Dispatch);

  // Trace exit() too: training-based policies must learn it or they kill
  // every process at termination.
  if (tracing_) {
    TraceEntry t;
    t.id = ctx.effective_id;
    t.sysno = ctx.effective_sysno;
    t.call_site = ctx.call_site;
    t.args = ctx.effective_args;
    t.ret = ret;
    const auto& sig = signature(ctx.effective_id);
    if (sig.arity > 0 && sig.args[0] == ArgKind::PathIn) {
      try {
        t.path = read_path(p, ctx.effective_args[0]);
      } catch (const GuestFault&) {
      }
    }
    trace_.push_back(std::move(t));
  }

  // ---- (4) audit layer boundary ----
  // A killed trap never reaches here (the deny path returned above), so the
  // Dispatch/Audit stages fire only for traps the guest survived.
  if (stage_hook_ && !inline_hit) stage_hook_(p, ctx, TrapStage::Audit);
}

// ---- per-pid health machine (see os/health.h) ----

void Kernel::report_internal_fault(Process& p, const std::string& detail) {
  internal_fault(p, nullptr, detail);
}

void Kernel::health_self_check(Process& p, const TrapContext& ctx,
                               const TierTable::PidRecord* owner) {
  // Untracked: no fast-path state to distrust. Already fully eager: nothing
  // fast-path-resident left either, and re-reporting the same inconsistency
  // every trap would mask recovery.
  if (owner == nullptr || owner->health.state == HealthState::Quarantined) return;

  // Shadow coherence: the kernel copy's nonce must equal the process's
  // authoritative counter (the checker updates both in lockstep), and the
  // shadowed record must still lie inside the address space.
  if (const auto& sh = owner->shadow; sh.has_value()) {
    if (sh->counter != p.asc_counter) {
      internal_fault(p, &ctx,
                     "shadow nonce " + std::to_string(sh->counter) +
                         " != process counter " + std::to_string(p.asc_counter));
      return;
    }
    if (!p.mem.in_range(sh->state_ptr, policy::kPolicyStateSize)) {
      internal_fault(p, &ctx, "shadowed policy state out of address space");
    }
  }
}

void Kernel::note_verification(Process& p, const TrapContext& ctx, TierTable::PidRecord* owner,
                               bool clean, bool eager) {
  // A violation verdict resets the pid's inline-promotion streaks: the
  // Inline tier is re-earned with consecutive CLEAN verifications only.
  if (!clean) tenant_.tiers.note_unclean(p.pid);
  // A record the verification created is Healthy: nothing to earn either.
  if (owner == nullptr || owner->health.state == HealthState::Healthy) return;
  HealthRecord& h = owner->health;
  if (!clean) {
    // A genuine violation verdict interrupts the probation streak; the
    // audit layer separately applies the failure mode to the guest.
    h.clean_streak = 0;
    return;
  }
  if (h.state == HealthState::Quarantined) {
    if (!eager) return;  // only fully eager verifications count toward parole
    ++h.clean_streak;
    if (h.clean_streak >= h.promote_after) {
      h.state = HealthState::Degraded;
      h.clean_streak = 0;
      ++tenant_.tiers.health_stats().repromotions;
      health_event(p, &ctx, AuditKind::Health,
                   "quarantined -> degraded after " + std::to_string(h.promote_after) +
                       " clean eager verifications");
    }
    return;
  }
  // Degraded: the cache may serve hits, but the control-flow check is eager.
  ++h.clean_streak;
  if (h.clean_streak >= tenant_.tiers.health_promote_threshold()) {
    h.state = HealthState::Healthy;
    h.clean_streak = 0;
    ++tenant_.tiers.health_stats().recoveries;
    health_event(p, &ctx, AuditKind::Health,
                 "degraded -> healthy after " +
                     std::to_string(tenant_.tiers.health_promote_threshold()) +
                     " clean verifications");
  }
}

void Kernel::internal_fault(Process& p, const TrapContext* ctx, const std::string& detail) {
  HealthRecord& h = tenant_.tiers.track_health(p);
  ++h.internal_faults;
  ++tenant_.tiers.health_stats().internal_faults;
  health_event(p, ctx, AuditKind::InternalFault, detail);

  // The suspect state must go regardless of the resulting level: even a
  // Healthy->Degraded demotion means the existing fast-path entries were
  // built by bookkeeping that just failed a self-check.
  tenant_.tiers.evict_pid(p.pid);
  h.clean_streak = 0;

  const HealthState before = h.state;
  switch (before) {
    case HealthState::Healthy:
      h.state = HealthState::Degraded;
      ++tenant_.tiers.health_stats().degradations;
      break;
    case HealthState::Degraded:
      h.state = HealthState::Quarantined;
      enter_quarantine(h);
      break;
    case HealthState::Quarantined:
      // Already at the bottom of the lattice: deepen the backoff so the
      // parole gets longer, but there is nowhere further to demote.
      enter_quarantine(h);
      break;
  }
  health_event(p, ctx, AuditKind::Health,
               health_state_name(before) + " -> " + health_state_name(h.state) + ": " +
                   detail);
}

void Kernel::enter_quarantine(HealthRecord& h) {
  ++h.quarantines;
  ++tenant_.tiers.health_stats().quarantines;
  // Exponential backoff: K, 2K, 4K, ... clean eager verifications required,
  // capped so a long-lived flapping pid can still eventually re-promote.
  const std::uint32_t cap = tenant_.tiers.health_backoff_cap();
  std::uint64_t k = tenant_.tiers.health_promote_threshold();
  for (std::uint32_t i = 1; i < h.quarantines && k < cap; ++i) k *= 2;
  h.promote_after = static_cast<std::uint32_t>(k > cap ? cap : k);
}

void Kernel::health_event(Process& p, const TrapContext* ctx, AuditKind kind,
                          std::string detail) {
  if (ctx != nullptr) {
    tenant_.audit.event(p, *ctx, kind, std::move(detail), now_ns(p));
    return;
  }
  // Oracle reports arrive outside any trap: synthesize a context-free record.
  VerdictRecord rec;
  rec.kind = kind;
  rec.pid = p.pid;
  rec.prog = p.name;
  rec.detail = std::move(detail);
  rec.vtime_ns = now_ns(p);
  tenant_.audit.append(std::move(rec));
}

}  // namespace asc::os
