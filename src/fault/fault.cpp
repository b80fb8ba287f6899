#include "fault/fault.h"

#include <cstdio>

#include "isa/isa.h"
#include "policy/authstring.h"
#include "policy/descriptor.h"
#include "policy/policy.h"

namespace asc::fault {

std::string mutation_class_name(MutationClass c) {
  switch (c) {
    case MutationClass::CallMacFlip: return "call-mac-flip";
    case MutationClass::DescriptorFlip: return "descriptor-flip";
    case MutationClass::AsHeaderCorrupt: return "as-header-corrupt";
    case MutationClass::AsBodyCorrupt: return "as-body-corrupt";
    case MutationClass::PredSetCorrupt: return "pred-set-corrupt";
    case MutationClass::PolicyStateCorrupt: return "policy-state-corrupt";
    case MutationClass::CrossReplay: return "cross-replay";
    case MutationClass::RegisterSwap: return "register-swap";
    case MutationClass::KeyMismatch: return "key-mismatch";
    case MutationClass::CacheToctou: return "cache-toctou";
    case MutationClass::ShadowToctou: return "shadow-toctou";
    case MutationClass::RotationDuringTrap: return "rotation-during-trap";
    case MutationClass::TeardownMidVerify: return "teardown-mid-verify";
    case MutationClass::DoubleInvalidation: return "double-invalidation";
    case MutationClass::PromoToctou: return "promo-toctou";
    case MutationClass::RekeyToctou: return "rekey-toctou";
    case MutationClass::kCount: break;
  }
  return "?";
}

std::vector<MutationClass> all_mutation_classes() {
  std::vector<MutationClass> out;
  for (std::size_t i = 0; i < kNumMutationClasses; ++i) {
    const auto c = static_cast<MutationClass>(i);
    if (c != MutationClass::PromoToctou && c != MutationClass::RekeyToctou) out.push_back(c);
  }
  return out;
}

std::vector<MutationClass> extended_mutation_classes() {
  std::vector<MutationClass> out;
  for (std::size_t i = 0; i < kNumMutationClasses; ++i) {
    out.push_back(static_cast<MutationClass>(i));
  }
  return out;
}

std::optional<MutationClass> mutation_class_from_name(const std::string& name) {
  for (const auto c : extended_mutation_classes()) {
    if (mutation_class_name(c) == name) return c;
  }
  return std::nullopt;
}

bool lifecycle_class(MutationClass c) {
  return c == MutationClass::RotationDuringTrap || c == MutationClass::TeardownMidVerify ||
         c == MutationClass::DoubleInvalidation || c == MutationClass::RekeyToctou;
}

bool stage_targetable(MutationClass c) {
  switch (c) {
    // Memory-resident targets: the corrupted bytes stay addressable for the
    // rest of the trap and beyond, so a strike at any boundary is coherent
    // (at post-Enforce stages it poisons the NEXT verification).
    case MutationClass::CallMacFlip:
    case MutationClass::AsHeaderCorrupt:
    case MutationClass::AsBodyCorrupt:
    case MutationClass::PredSetCorrupt:
    case MutationClass::PolicyStateCorrupt:
    case MutationClass::CrossReplay:
    // Lifecycle strikes act on the kernel and are meaningful at every
    // boundary (rotation-during-dispatch, teardown-mid-verify, ...).
    case MutationClass::RotationDuringTrap:
    case MutationClass::TeardownMidVerify:
    case MutationClass::DoubleInvalidation:
    case MutationClass::RekeyToctou:
      return true;
    default:
      return false;
  }
}

bool stage_allowed(MutationClass c, os::TrapStage s) {
  if (!stage_targetable(c)) return s == os::TrapStage::Trap;
  if (c == MutationClass::AsBodyCorrupt && s == os::TrapStage::Enforce) return false;
  return true;
}

std::vector<os::TrapStage> all_trap_stages() {
  return {os::TrapStage::Trap, os::TrapStage::Enforce, os::TrapStage::Dispatch,
          os::TrapStage::Audit};
}

std::optional<os::TrapStage> trap_stage_from_name(const std::string& name) {
  for (const auto s : all_trap_stages()) {
    if (os::trap_stage_name(s) == name) return s;
  }
  return std::nullopt;
}

std::string spec_repr(const FaultSpec& spec) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s:%d:0x%llx:%s", mutation_class_name(spec.cls).c_str(),
                spec.trigger_call, static_cast<unsigned long long>(spec.seed),
                os::trap_stage_name(spec.stage).c_str());
  return buf;
}

std::optional<FaultSpec> parse_spec(const std::string& repr) {
  // "<class>:<trigger>:0x<seed>[:<stage>]" (stage defaults to trap).
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = repr.find(':', start);
    parts.push_back(repr.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) return std::nullopt;
  FaultSpec spec;
  const auto cls = mutation_class_from_name(parts[0]);
  if (!cls.has_value()) return std::nullopt;
  spec.cls = *cls;
  try {
    spec.trigger_call = std::stoi(parts[1]);
    spec.seed = std::stoull(parts[2], nullptr, 0);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (spec.trigger_call < 1) return std::nullopt;
  if (parts.size() == 4) {
    const auto stage = trap_stage_from_name(parts[3]);
    if (!stage.has_value()) return std::nullopt;
    spec.stage = *stage;
  }
  return spec;
}

const std::vector<os::Violation>& expected_violations(MutationClass c) {
  // Every entry below is derived from the §3.4 checking order: the call MAC
  // binds sysno, descriptor, site, block id, AS {addr, len, MAC} headers,
  // constant argument values, and the policy-state pointer -- so mutating
  // any of those must surface as BadCallMac before later steps run. Content
  // bytes behind an intact header fail the step-2/step-3 content MACs; the
  // policy-state record fails the step-3.1 memory checker.
  static const std::vector<os::Violation> call_mac{os::Violation::BadCallMac};
  static const std::vector<os::Violation> string_arg{os::Violation::BadStringArg};
  static const std::vector<os::Violation> policy_state{os::Violation::BadPolicyState};
  // A replayed state whose counter mismatches fails the memory checker; one
  // captured at the same nonce but a different program/site carries a
  // lastBlock outside the predecessor set.
  static const std::vector<os::Violation> replay{os::Violation::BadPolicyState,
                                                 os::Violation::BadPredecessor};
  // CacheToctou corrupts either the call MAC or the pred-set body at a site
  // already verified once; the verified-call cache must miss (byte-compare
  // mismatch and/or write-watch eviction) and the full re-verification then
  // fails at the corresponding step.
  static const std::vector<os::Violation> toctou{os::Violation::BadCallMac,
                                                 os::Violation::BadStringArg};
  // A mid-trap key rotation stales every signed byte of the guest at once;
  // the next verified call fails its call MAC first (set_key cleared the
  // cache, so no fast path can mask it). A rotation at the LAST trap of a
  // run is consumed by nobody and stays benign.
  static const std::vector<os::Violation> rotation{os::Violation::BadCallMac};
  // Teardown and double invalidation must be pure lifecycle churn: eager
  // verification resumes over coherently materialized records, so ANY
  // audited violation is a wrong verdict.
  static const std::vector<os::Violation> benign{};
  // PromoToctou strikes only at a site already promoted to the Inline tier;
  // the write watch demotes it, so the flip is detected by the full pipeline
  // at whichever structure it hit (call MAC or policy-state record).
  static const std::vector<os::Violation> promo{os::Violation::BadCallMac,
                                                os::Violation::BadPolicyState};
  switch (c) {
    case MutationClass::AsBodyCorrupt:
    case MutationClass::PredSetCorrupt:
      return string_arg;
    case MutationClass::PromoToctou:
      return promo;
    case MutationClass::CacheToctou:
      return toctou;
    case MutationClass::PolicyStateCorrupt:
    // ShadowToctou tampers with the policy-state record around the shadow's
    // write-back window; both the bit-flip and the stale-record replay fail
    // the step-3.1 memory checker (MAC/counter mismatch).
    case MutationClass::ShadowToctou:
      return policy_state;
    case MutationClass::CrossReplay:
      return replay;
    case MutationClass::RotationDuringTrap:
      return rotation;
    case MutationClass::TeardownMidVerify:
    case MutationClass::DoubleInvalidation:
    // A COHERENT rekey (new key + matching re-signed bytes) at any boundary
    // must also be pure lifecycle churn: a mid-trap request defers to the
    // next trap boundary, so every trap verifies under wholly-old or
    // wholly-new material and no verdict may ever surface.
    case MutationClass::RekeyToctou:
      return benign;
    default:
      return call_mac;
  }
}

namespace {

std::uint32_t nonzero32(std::uint64_t seed) {
  const auto v = static_cast<std::uint32_t>(seed >> 7);
  return v == 0 ? 0xdeadbeefu : v;
}

}  // namespace

bool FaultInjector::needs_stage_hook() const {
  return lifecycle_class(spec_.cls) || spec_.stage != os::TrapStage::Trap;
}

void FaultInjector::arm(vm::Machine& machine) {
  machine_ = &machine;
  personality_ = machine.kernel().personality();
  const bool staged = needs_stage_hook();
  machine.pre_syscall_hook = [this, staged](os::Process& p, std::uint32_t call_site) {
    if (rekey_swap_pending_ && machine_->kernel().trap_depth() == 0) {
      // The deferred rekey lands inside the upcoming trap; swap the helper
      // registrations now so any spawn after the key swap hands the kernel
      // a child signed under the new key.
      for (const auto& [path, img] : rekey_programs_) machine_->register_program(path, img);
      rekey_swap_pending_ = false;
    }
    ++calls_seen_;
    // Trap-stage byte/register mutations keep striking from this hook (the
    // pre-trap strike point every legacy campaign stream was drawn for);
    // staged specs strike from the kernel's stage hook below instead.
    if (!staged && !applied_ && calls_seen_ >= spec_.trigger_call &&
        try_apply(p, call_site, static_cast<std::uint16_t>(p.cpu.regs[0]))) {
      applied_ = true;
      applied_at_ = calls_seen_;
    }
    // Count after try_apply so "visited" means a strictly earlier trap.
    ++site_visits_[call_site];
  };
  if (staged) {
    machine.kernel().set_stage_hook(
        [this](os::Process& p, os::TrapContext& ctx, os::TrapStage stage) {
          if (stage != spec_.stage || applied_ || calls_seen_ < spec_.trigger_call) return;
          // regs[0] holds the syscall's return value from Dispatch on; the
          // trapping identity must come from the captured context.
          const bool ok = lifecycle_class(spec_.cls)
                              ? apply_lifecycle(p, ctx.call_site)
                              : try_apply(p, ctx.call_site, ctx.sysno);
          if (ok) {
            applied_ = true;
            applied_at_ = calls_seen_;
          }
        });
  } else {
    machine.kernel().set_stage_hook({});
  }
}

bool FaultInjector::apply_lifecycle(os::Process& p, std::uint32_t call_site) {
  if (machine_ == nullptr) return false;
  os::Kernel& kernel = machine_->kernel();
  char buf[160];
  const std::string stage = os::trap_stage_name(spec_.stage);
  switch (spec_.cls) {
    case MutationClass::RotationDuringTrap: {
      if (!rotation_key_.has_value()) return false;
      // Mid-trap rotation: flushes the shadow under the old key, clears the
      // cache, and re-keys. Every MAC the guest carries is now stale.
      kernel.set_key(*rotation_key_);
      std::snprintf(buf, sizeof buf,
                    "rotation-during-trap: key rotated at %s of call %d (site 0x%x)",
                    stage.c_str(), calls_seen_, call_site);
      description_ = buf;
      return true;
    }
    case MutationClass::TeardownMidVerify: {
      // Full teardown while the pid's own trap is still in flight; the
      // machine's normal teardown will call end_process a second time.
      kernel.tier_table().end_process(p.pid);
      std::snprintf(buf, sizeof buf,
                    "teardown-mid-verify: end_process(%d) at %s of call %d (site 0x%x)",
                    p.pid, stage.c_str(), calls_seen_, call_site);
      description_ = buf;
      return true;
    }
    case MutationClass::DoubleInvalidation: {
      // Double-free-shaped churn: the flush must be idempotent (write back
      // at most once, never unwatch an already-released range).
      kernel.tier_table().flush_pid(p.pid, os::DemotionCause::Disabled);
      kernel.tier_table().flush_pid(p.pid, os::DemotionCause::Disabled);
      std::snprintf(buf, sizeof buf,
                    "double-invalidation: pid %d evicted twice at %s of call %d (site 0x%x)",
                    p.pid, stage.c_str(), calls_seen_, call_site);
      description_ = buf;
      return true;
    }
    case MutationClass::RekeyToctou: {
      if (!rekey_key_.has_value() || !rekey_view_.has_value()) return false;
      // Coherent live rekey mid-trap: the kernel must defer the swap to the
      // next trap boundary (the in-flight trap completes wholly under the
      // old material), then every later trap verifies wholly under the new
      // key. Any verdict -- or any divergence from the clean run -- means
      // the quiesce protocol leaked mixed material.
      const bool now = kernel.rekey(p, *rekey_key_, *rekey_view_);
      if (now) {
        for (const auto& [path, img] : rekey_programs_) {
          machine_->register_program(path, img);
        }
      } else {
        rekey_swap_pending_ = !rekey_programs_.empty();
      }
      std::snprintf(buf, sizeof buf,
                    "rekey-toctou: live rekey %s at %s of call %d (site 0x%x)",
                    now ? "applied" : "deferred", stage.c_str(), calls_seen_, call_site);
      description_ = buf;
      return true;
    }
    default:
      return false;
  }
}

bool FaultInjector::try_apply(os::Process& p, std::uint32_t call_site, std::uint16_t sysno) {
  auto& regs = p.cpu.regs;
  const policy::Descriptor des(regs[isa::kRegPolicyDescriptor]);
  const auto maybe_id = os::syscall_from_number(personality_, sysno);
  const int arity = maybe_id.has_value() ? os::signature(*maybe_id).arity : 0;
  const std::uint64_t seed = spec_.seed;
  char buf[160];

  auto flip_bit = [&](std::uint32_t base, std::uint32_t nbytes, const char* what,
                      std::uint32_t first = 0) {
    const auto byte = first + static_cast<std::uint32_t>(seed % (nbytes - first));
    const int bit = static_cast<int>((seed / nbytes) % 8);
    p.mem.w8(base + byte,
             static_cast<std::uint8_t>(p.mem.r8(base + byte) ^ (1u << bit)));
    std::snprintf(buf, sizeof buf, "%s: flip bit %d of byte %u at call %d (site 0x%x)", what,
                  bit, byte, calls_seen_, call_site);
    description_ = buf;
  };

  /// Validated AS body length behind `body`, or 0 when the header is not
  /// plausible (the injector only corrupts genuinely live structures).
  auto as_len = [&](std::uint32_t body) -> std::uint32_t {
    if (body < policy::kAsHeaderSize ||
        !p.mem.in_range(body - policy::kAsHeaderSize, policy::kAsHeaderSize)) {
      return 0;
    }
    const std::uint32_t len = p.mem.r32(body - policy::kAsHeaderSize);
    if (len == 0 || len > policy::kAsMaxLength || !p.mem.in_range(body, len)) return 0;
    return len;
  };

  std::vector<int> as_args;
  for (int i = 0; i < arity; ++i) {
    if (des.arg_is_authenticated_string(i)) as_args.push_back(i);
  }

  switch (spec_.cls) {
    case MutationClass::CallMacFlip: {
      const std::uint32_t mac_ptr = regs[isa::kRegCallMac];
      if (!p.mem.in_range(mac_ptr, 16)) return false;
      flip_bit(mac_ptr, 16, "call-mac");
      return true;
    }

    case MutationClass::DescriptorFlip: {
      const int bit = static_cast<int>(seed % 32);
      regs[isa::kRegPolicyDescriptor] ^= 1u << bit;
      std::snprintf(buf, sizeof buf, "descriptor: flip bit %d at call %d (site 0x%x)", bit,
                    calls_seen_, call_site);
      description_ = buf;
      return true;
    }

    case MutationClass::AsHeaderCorrupt: {
      std::vector<std::uint32_t> headers;
      for (int i : as_args) {
        const std::uint32_t body = regs[1 + static_cast<std::size_t>(i)];
        if (body >= policy::kAsHeaderSize &&
            p.mem.in_range(body - policy::kAsHeaderSize, policy::kAsHeaderSize)) {
          headers.push_back(body - policy::kAsHeaderSize);
        }
      }
      if (des.control_flow_constrained()) {
        const std::uint32_t body = regs[isa::kRegPredSet];
        if (body >= policy::kAsHeaderSize &&
            p.mem.in_range(body - policy::kAsHeaderSize, policy::kAsHeaderSize)) {
          headers.push_back(body - policy::kAsHeaderSize);
        }
      }
      if (headers.empty()) return false;
      flip_bit(headers[(seed >> 32) % headers.size()], policy::kAsHeaderSize, "as-header");
      return true;
    }

    case MutationClass::AsBodyCorrupt: {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> bodies;  // {addr, len}
      for (int i : as_args) {
        const std::uint32_t body = regs[1 + static_cast<std::size_t>(i)];
        if (const std::uint32_t len = as_len(body); len > 0) bodies.emplace_back(body, len);
      }
      if (bodies.empty()) return false;
      const auto& [addr, len] = bodies[(seed >> 32) % bodies.size()];
      flip_bit(addr, len, "as-body");
      return true;
    }

    case MutationClass::PredSetCorrupt: {
      if (!des.control_flow_constrained()) return false;
      const std::uint32_t body = regs[isa::kRegPredSet];
      const std::uint32_t len = as_len(body);
      if (len == 0) return false;
      flip_bit(body, len, "pred-set");
      return true;
    }

    case MutationClass::PolicyStateCorrupt: {
      if (!des.control_flow_constrained()) return false;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (!p.mem.in_range(lb, policy::kPolicyStateSize)) return false;
      // Materialize any lazily shadowed record first: the same-value touch
      // write fires the write watch, so a live shadow entry writes back its
      // trusted bytes before the flip lands. Then flip past byte 0 -- a flip
      // computed from the stale pre-write-back bytes could otherwise land
      // exactly on the trusted value and turn the fault into a no-op (and
      // byte 0 itself keeps the stale value the touch rewrote).
      p.mem.w8(lb, p.mem.r8(lb));
      flip_bit(lb, policy::kPolicyStateSize, "policy-state", 1);
      return true;
    }

    case MutationClass::CrossReplay: {
      if (!des.control_flow_constrained()) return false;
      if (replay_state_.size() != policy::kPolicyStateSize) return false;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (!p.mem.in_range(lb, policy::kPolicyStateSize)) return false;
      p.mem.write_bytes(lb, replay_state_);
      std::snprintf(buf, sizeof buf,
                    "cross-replay: foreign policy state at call %d (site 0x%x)", calls_seen_,
                    call_site);
      description_ = buf;
      return true;
    }

    case MutationClass::RegisterSwap: {
      // Only registers the checker actually consumes: mutating a register
      // the policy leaves unconstrained is permitted by construction and
      // would not be a verification-surface fault.
      std::vector<isa::Reg> targets{isa::kRegBlockId, isa::kRegCallMac};
      if (des.control_flow_constrained()) {
        targets.push_back(isa::kRegPredSet);
        targets.push_back(isa::kRegStatePtr);
      }
      for (int i = 0; i < arity; ++i) {
        if (des.arg_constrained(i)) targets.push_back(static_cast<isa::Reg>(1 + i));
      }
      const isa::Reg r = targets[(seed >> 32) % targets.size()];
      regs[r] ^= nonzero32(seed);
      std::snprintf(buf, sizeof buf, "register-swap: r%d ^= 0x%x at call %d (site 0x%x)", r,
                    nonzero32(seed), calls_seen_, call_site);
      description_ = buf;
      return true;
    }

    case MutationClass::KeyMismatch: {
      // Environmental fault: the campaign boots the kernel with a key that
      // differs from the installer's. Nothing to mutate at trap time.
      description_ = "kernel/installer key mismatch";
      return true;
    }

    case MutationClass::CacheToctou: {
      // Time-of-check-to-time-of-use against the verified-call cache: wait
      // for a trap at a site the checker has already verified (so a cache
      // entry exists), then corrupt the bytes the fast path would be tempted
      // to trust without re-MACing. Detection requires the cache to compare
      // the trap's actual bytes against the verified material (or be evicted
      // by the write watch) and fall back to full verification.
      if (site_visits_[call_site] < 1) return false;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> targets;  // {addr, len}
      const std::uint32_t mac_ptr = regs[isa::kRegCallMac];
      if (p.mem.in_range(mac_ptr, 16)) targets.emplace_back(mac_ptr, 16);
      if (des.control_flow_constrained()) {
        const std::uint32_t body = regs[isa::kRegPredSet];
        if (const std::uint32_t len = as_len(body); len > 0) targets.emplace_back(body, len);
      }
      if (targets.empty()) return false;
      const auto& [addr, len] = targets[(seed >> 32) % targets.size()];
      flip_bit(addr, len, "cache-toctou");
      return true;
    }

    case MutationClass::ShadowToctou: {
      // Time-of-check-to-time-of-use against the policy-state shadow: wait
      // until the pid's state has been verified at least once (so a shadow
      // entry exists and the guest record may lag behind it), then strike
      // inside the invalidation window. The touch write below fires the
      // write watch, which must write back the trusted record BEFORE the
      // tampering lands -- any ordering bug here silently accepts the fault.
      if (site_visits_[call_site] < 1) return false;
      if (!des.control_flow_constrained()) return false;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (!p.mem.in_range(lb, policy::kPolicyStateSize)) return false;
      const auto stale = p.mem.read_bytes(lb, policy::kPolicyStateSize);
      // Same-value touch: forces write-back of a live (dirty) shadow entry
      // and drops it, exactly as any guest write into the watched range.
      p.mem.w8(lb, p.mem.r8(lb));
      const auto trusted = p.mem.read_bytes(lb, policy::kPolicyStateSize);
      if (seed % 2 == 0 && stale != trusted) {
        // Replay the stale pre-write-back record: authentic bytes carrying
        // an earlier nonce. The slow path must refuse it (counter replay).
        p.mem.write_bytes(lb, stale);
        std::snprintf(buf, sizeof buf,
                      "shadow-toctou: stale-record replay at call %d (site 0x%x)",
                      calls_seen_, call_site);
        description_ = buf;
        return true;
      }
      // Flip past byte 0: the touch rewrote byte 0 with its stale value, so
      // only bytes 1.. are guaranteed to hold the materialized trusted
      // record a flip is guaranteed to diverge from.
      flip_bit(lb, policy::kPolicyStateSize, "shadow-toctou", 1);
      return true;
    }

    case MutationClass::PromoToctou: {
      // Time-of-check-to-time-of-use against the Inline tier: strike ONLY at
      // a (pid, site) the lattice has already promoted to trap-less
      // execution -- the exact window where a naive implementation would
      // skip verification outright. The site's own write watch must demote
      // it BEFORE the tamper lands, so the very next call at the site
      // re-enters the full pipeline and fail-stops there.
      if (machine_ == nullptr ||
          !machine_->kernel().tier_table().inline_site_promoted(p.pid, call_site)) {
        return false;
      }
      if (seed % 2 == 0) {
        const std::uint32_t mac_ptr = regs[isa::kRegCallMac];
        if (!p.mem.in_range(mac_ptr, 16)) return false;
        flip_bit(mac_ptr, 16, "promo-toctou(call-mac)");
        return true;
      }
      if (!des.control_flow_constrained()) return false;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (!p.mem.in_range(lb, policy::kPolicyStateSize)) return false;
      // Same discipline as ShadowToctou: the touch write materializes the
      // shadowed record (and demotes the site), then the flip past byte 0
      // diverges from the trusted bytes for certain.
      p.mem.w8(lb, p.mem.r8(lb));
      flip_bit(lb, policy::kPolicyStateSize, "promo-toctou(policy-state)", 1);
      return true;
    }

    case MutationClass::RotationDuringTrap:
    case MutationClass::TeardownMidVerify:
    case MutationClass::DoubleInvalidation:
    case MutationClass::RekeyToctou:
      // Lifecycle classes strike via apply_lifecycle from the stage hook.
      break;

    case MutationClass::kCount:
      break;
  }
  return false;
}

}  // namespace asc::fault
