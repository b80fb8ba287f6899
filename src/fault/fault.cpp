#include "fault/fault.h"

#include <array>
#include <climits>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "isa/isa.h"
#include "policy/authstring.h"
#include "policy/descriptor.h"
#include "policy/policy.h"

namespace asc::fault {

namespace {

/// Indexed by Strike.
constexpr const char* kStrikeNames[] = {
    "call-mac-flip",
    "descriptor-flip",
    "as-header-corrupt",
    "as-body-corrupt",
    "pred-set-corrupt",
    "policy-state-corrupt",
    "cross-replay",
    "register-swap",
    "rotation-during-trap",
    "teardown-mid-verify",
    "double-invalidation",
    "rekey-toctou",
};
static_assert(std::size(kStrikeNames) == kNumStrikes);

constexpr os::Tier kTiers[] = {os::Tier::Eager, os::Tier::Cached, os::Tier::Shadowed,
                               os::Tier::Inline};

/// Decimal digits with no sign, padding or leading zero, at most `max`.
std::optional<std::uint64_t> parse_decimal(std::string_view s, std::uint64_t max) {
  if (s.empty() || s[0] == '0') return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (max - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

/// "0x" and lowercase hex digits with no leading zero ("0x0" for zero).
std::optional<std::uint64_t> parse_hex(std::string_view s) {
  if (s.size() < 3 || s.size() > 18 || !s.starts_with("0x")) return std::nullopt;
  if (s[2] == '0' && s.size() > 3) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s.substr(2)) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) return std::nullopt;
    v = v << 4 | static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  return v;
}

bool lifecycle_event(Strike s) {
  return s >= Strike::RotationDuringTrap;
}

std::uint32_t nonzero32(std::uint64_t seed) {
  const auto v = static_cast<std::uint32_t>(seed >> 7);
  return v == 0 ? 0xdeadbeefu : v;
}

}  // namespace

std::string strike_name(Strike s) {
  return s < Strike::kCount ? kStrikeNames[static_cast<std::size_t>(s)] : "?";
}

bool stage_allowed(Strike s, os::TrapStage st) {
  if (s == Strike::DescriptorFlip || s == Strike::RegisterSwap) return st == os::TrapStage::Trap;
  return st != os::TrapStage::PreTrap &&
         !(s == Strike::AsBodyCorrupt && st == os::TrapStage::Enforce);
}

std::vector<os::TrapStage> all_trap_stages() {
  return {os::TrapStage::Trap, os::TrapStage::Enforce, os::TrapStage::Dispatch,
          os::TrapStage::Audit};
}

std::optional<os::TrapStage> trap_stage_from_name(std::string_view name) {
  for (const auto s : all_trap_stages()) {
    if (os::trap_stage_name(s) == name) return s;
  }
  return std::nullopt;
}

std::string point_name(FaultPoint p) {
  const std::string s = strike_name(p.strike);
  return p.tier == os::Tier::Eager ? s : s + "@" + os::tier_name(p.tier);
}

std::optional<FaultPoint> point_from_name(std::string_view name) {
  const std::size_t at = name.find('@');
  for (std::size_t i = 0; i < kNumStrikes; ++i) {
    if (name.substr(0, at) != kStrikeNames[i]) continue;
    const auto s = static_cast<Strike>(i);
    if (at == std::string_view::npos) return FaultPoint{s, os::Tier::Eager};
    for (const auto t : kTiers) {
      if (t != os::Tier::Eager && os::tier_name(t) == name.substr(at + 1)) return FaultPoint{s, t};
    }
  }
  return std::nullopt;
}

std::vector<FaultPoint> default_points() {
  std::vector<FaultPoint> out;
  for (std::size_t i = 0; i < kNumStrikes; ++i) out.push_back({static_cast<Strike>(i)});
  out.insert(out.end(), {{Strike::CallMacFlip, os::Tier::Cached},
                         {Strike::PredSetCorrupt, os::Tier::Cached},
                         {Strike::PolicyStateCorrupt, os::Tier::Shadowed},
                         {Strike::CrossReplay, os::Tier::Shadowed},
                         {Strike::CallMacFlip, os::Tier::Inline},
                         {Strike::PolicyStateCorrupt, os::Tier::Inline}});
  return out;
}

std::vector<FaultPoint> all_points() {
  std::vector<FaultPoint> out;
  for (std::size_t i = 0; i < kNumStrikes; ++i) {
    for (const auto t : kTiers) out.push_back({static_cast<Strike>(i), t});
  }
  return out;
}

std::string spec_repr(const FaultSpec& spec) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s:%d:0x%llx:%s", point_name(spec.point).c_str(),
                spec.trigger_call, static_cast<unsigned long long>(spec.seed),
                os::trap_stage_name(spec.stage).c_str());
  return buf;
}

std::optional<FaultSpec> parse_spec(const std::string& repr) {
  // "<point>:<trigger>:0x<seed>[:<stage>]" (stage defaults to trap).
  std::array<std::string_view, 5> parts;
  std::size_t n = 0;
  const std::string_view rest(repr);
  for (std::size_t start = 0; n < parts.size();) {
    const std::size_t colon = rest.find(':', start);
    parts[n++] = rest.substr(start, colon - start);
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  if (n < 3 || n > 4) return std::nullopt;
  const auto point = point_from_name(parts[0]);
  const auto trigger = parse_decimal(parts[1], INT_MAX);
  const auto seed = parse_hex(parts[2]);
  const auto stage = n == 4 ? trap_stage_from_name(parts[3]) : os::TrapStage::Trap;
  if (!point || !trigger || !seed || !stage || !stage_allowed(point->strike, *stage)) {
    return std::nullopt;
  }
  return FaultSpec{*point, static_cast<int>(*trigger), *seed, *stage};
}

const std::vector<os::Violation>& expected_violations(Strike s) {
  // Every entry below is derived from the §3.4 checking order: the call MAC
  // binds sysno, descriptor, site, block id, AS {addr, len, MAC} headers,
  // constant argument values, and the policy-state pointer -- so mutating
  // any of those must surface as BadCallMac before later steps run. Content
  // bytes behind an intact header fail the step-2/step-3 content MACs; the
  // policy-state record fails the step-3.1 memory checker. A fast path that
  // served the site before the strike is dropped by the write watch or
  // misses its probe, so the full pipeline yields the same verdict at every
  // tier.
  static const std::vector<os::Violation> call_mac{os::Violation::BadCallMac};
  static const std::vector<os::Violation> string_arg{os::Violation::BadStringArg};
  static const std::vector<os::Violation> policy_state{os::Violation::BadPolicyState};
  // A replayed record whose counter mismatches fails the memory checker; one
  // captured at the same nonce but a different program/site carries a
  // lastBlock outside the predecessor set.
  static const std::vector<os::Violation> replay{os::Violation::BadPolicyState,
                                                 os::Violation::BadPredecessor};
  // Teardown, double invalidation and a coherent rekey must be pure
  // lifecycle churn: eager verification resumes over coherently materialized
  // records, so ANY audited violation is a wrong verdict.
  static const std::vector<os::Violation> benign{};
  switch (s) {
    case Strike::AsBodyCorrupt:
    case Strike::PredSetCorrupt:
      return string_arg;
    case Strike::PolicyStateCorrupt:
      return policy_state;
    case Strike::CrossReplay:
      return replay;
    case Strike::TeardownMidVerify:
    case Strike::DoubleInvalidation:
    case Strike::RekeyToctou:
      return benign;
    default:
      // Including RotationDuringTrap: a mid-trap rotation stales every
      // signed byte, so the next verified call fails its call MAC first
      // (set_key dropped every fast path, so none can mask it). A rotation
      // at the LAST trap of a run is consumed by nobody and stays benign.
      return call_mac;
  }
}

void FaultInjector::arm(os::Kernel& kernel) {
  kernel.set_stage_hook(
      [this, &kernel](os::Process& p, os::TrapContext& ctx, os::TrapStage stage) {
        on_stage(kernel, p, ctx, stage);
      });
}

void FaultInjector::on_stage(os::Kernel& kernel, os::Process& p, os::TrapContext& ctx,
                             os::TrapStage stage) {
  // A Trap-stage tamper strikes at PreTrap, before the kernel has captured
  // anything; events and later stages strike at their boundary inside the
  // trap.
  const bool event = lifecycle_event(spec_.point.strike);
  const os::TrapStage at =
      !event && spec_.stage == os::TrapStage::Trap ? os::TrapStage::PreTrap : spec_.stage;
  // Traps are counted at PreTrap, which fires on every trap (inline hits
  // included).
  if (stage == os::TrapStage::PreTrap) ++calls_seen_;
  if (stage != at || applied_ || calls_seen_ < spec_.trigger_call) return;
  // The tier gate: the lattice must serve this (pid, site) at the spec's
  // tier or faster at the strike moment. At PreTrap that is the tier about
  // to serve the trap; at a later boundary, the tier the site holds after
  // the layers that ran.
  if (kernel.tier_table().tier(p.pid, ctx.call_site) > spec_.point.tier) return;
  // regs[0] holds the syscall's return value from Dispatch on; the trapping
  // identity comes from the context.
  applied_ = event ? fire(kernel, p, ctx.call_site) : tamper(kernel, p, ctx.call_site, ctx.sysno);
}

bool FaultInjector::fire(os::Kernel& kernel, os::Process& p, std::uint32_t call_site) {
  std::string what;
  switch (spec_.point.strike) {
    case Strike::RotationDuringTrap:
      if (!rotation_key_.has_value()) return false;
      // Flushes the shadow under the old key, drops every site record, and
      // re-keys. Every MAC the guest carries is now stale.
      kernel.set_key(*rotation_key_);
      what = "key rotated";
      break;
    case Strike::TeardownMidVerify:
      // Full teardown while the pid's own trap is still in flight; the
      // machine's normal teardown will call end_process a second time.
      kernel.tier_table().end_process(p.pid);
      what = "end_process(" + std::to_string(p.pid) + ")";
      break;
    case Strike::DoubleInvalidation:
      // The flush must be idempotent: write back at most once, never
      // unwatch an already-released range.
      kernel.tier_table().flush_pid(p.pid, os::DemotionCause::Disabled);
      kernel.tier_table().flush_pid(p.pid, os::DemotionCause::Disabled);
      what = "pid " + std::to_string(p.pid) + " evicted twice";
      break;
    case Strike::RekeyToctou:
      if (!rekey_) return false;
      // The kernel must defer a mid-trap swap to the next trap boundary
      // (the in-flight trap completes wholly under the old material); every
      // later trap verifies wholly under the new key.
      what = rekey_(p) ? "live rekey applied" : "live rekey deferred";
      break;
    default:
      return false;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, " of call %d (site 0x%x)", calls_seen_, call_site);
  description_ = strike_name(spec_.point.strike) + ": " + what + " at " +
                 os::trap_stage_name(spec_.stage) + buf;
  return true;
}

bool FaultInjector::tamper(os::Kernel& kernel, os::Process& p, std::uint32_t call_site,
                           std::uint16_t sysno) {
  auto& regs = p.cpu.regs;
  const policy::Descriptor des(regs[isa::kRegPolicyDescriptor]);
  const auto maybe_id = os::syscall_from_number(kernel.personality(), sysno);
  const int arity = maybe_id.has_value() ? os::signature(*maybe_id).arity : 0;
  const std::uint64_t seed = spec_.seed;
  const bool cf = des.control_flow_constrained();
  const std::uint32_t lb = regs[isa::kRegStatePtr];
  const bool has_state = cf && p.mem.in_range(lb, policy::kPolicyStateSize);
  char buf[160];

  auto describe = [&](const std::string& what) {
    std::snprintf(buf, sizeof buf, " at call %d (site 0x%x)", calls_seen_, call_site);
    description_ = what + buf;
  };
  auto flip_bit = [&](std::uint32_t base, std::uint32_t nbytes, const char* what,
                      std::uint32_t first = 0) {
    const auto byte = first + static_cast<std::uint32_t>(seed % (nbytes - first));
    const int bit = static_cast<int>((seed / nbytes) % 8);
    p.mem.w8(base + byte, static_cast<std::uint8_t>(p.mem.r8(base + byte) ^ (1u << bit)));
    describe(std::string(what) + ": flip bit " + std::to_string(bit) + " of byte " +
             std::to_string(byte));
    return true;
  };
  /// The AS header in front of `body`, when addressable.
  auto header_of = [&](std::uint32_t body) -> std::optional<std::uint32_t> {
    if (body < policy::kAsHeaderSize ||
        !p.mem.in_range(body - policy::kAsHeaderSize, policy::kAsHeaderSize)) {
      return std::nullopt;
    }
    return body - policy::kAsHeaderSize;
  };
  /// Validated AS body length behind `body`, or 0 when the header is not
  /// plausible (the injector only corrupts genuinely live structures).
  auto as_len = [&](std::uint32_t body) -> std::uint32_t {
    const auto hdr = header_of(body);
    if (!hdr) return 0;
    const std::uint32_t len = p.mem.r32(*hdr);
    if (len == 0 || len > policy::kAsMaxLength || !p.mem.in_range(body, len)) return 0;
    return len;
  };
  std::vector<std::uint32_t> as_bodies;  // AS argument bodies
  for (int i = 0; i < arity; ++i) {
    if (des.arg_is_authenticated_string(i)) {
      as_bodies.push_back(regs[1 + static_cast<std::size_t>(i)]);
    }
  }

  switch (spec_.point.strike) {
    case Strike::CallMacFlip: {
      const std::uint32_t mac_ptr = regs[isa::kRegCallMac];
      return p.mem.in_range(mac_ptr, 16) && flip_bit(mac_ptr, 16, "call-mac");
    }

    case Strike::DescriptorFlip: {
      const int bit = static_cast<int>(seed % 32);
      regs[isa::kRegPolicyDescriptor] ^= 1u << bit;
      describe("descriptor: flip bit " + std::to_string(bit));
      return true;
    }

    case Strike::AsHeaderCorrupt: {
      std::vector<std::uint32_t> headers;
      if (cf) as_bodies.push_back(regs[isa::kRegPredSet]);
      for (const std::uint32_t body : as_bodies) {
        if (const auto hdr = header_of(body)) headers.push_back(*hdr);
      }
      return !headers.empty() && flip_bit(headers[(seed >> 32) % headers.size()],
                                          policy::kAsHeaderSize, "as-header");
    }

    case Strike::AsBodyCorrupt: {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> bodies;  // {addr, len}
      for (const std::uint32_t body : as_bodies) {
        if (const std::uint32_t len = as_len(body); len > 0) bodies.emplace_back(body, len);
      }
      if (bodies.empty()) return false;
      const auto& [addr, len] = bodies[(seed >> 32) % bodies.size()];
      return flip_bit(addr, len, "as-body");
    }

    case Strike::PredSetCorrupt: {
      const std::uint32_t len = cf ? as_len(regs[isa::kRegPredSet]) : 0;
      return len > 0 && flip_bit(regs[isa::kRegPredSet], len, "pred-set");
    }

    case Strike::PolicyStateCorrupt:
      if (!has_state) return false;
      // Materialize any lazily shadowed record first: the same-value touch
      // write fires the write watch, so a live shadow writes back its
      // trusted bytes (and an Inline site demotes) before the flip lands.
      // Then flip past byte 0 -- a flip computed from the stale
      // pre-write-back bytes could otherwise land exactly on the trusted
      // value and turn the fault into a no-op (and byte 0 itself keeps the
      // stale value the touch rewrote).
      p.mem.w8(lb, p.mem.r8(lb));
      return flip_bit(lb, policy::kPolicyStateSize, "policy-state", 1);

    case Strike::CrossReplay: {
      if (!has_state) return false;
      // A donor captured at any other trap: its counter nonce (or foreign
      // lastBlock) cannot match what the kernel expects at this one. The
      // write fires the watch first, so a live shadow writes the trusted
      // record back before the replay lands on top of it.
      std::vector<const std::vector<std::uint8_t>*> donors;
      for (const auto& [call, bytes] : donors_) {
        if (call != calls_seen_ && bytes.size() == policy::kPolicyStateSize) {
          donors.push_back(&bytes);
        }
      }
      if (donors.empty()) return false;
      p.mem.write_bytes(lb, *donors[donor_pick_ % donors.size()]);
      describe("cross-replay: foreign policy state");
      return true;
    }

    case Strike::RegisterSwap: {
      // Only registers the checker actually consumes: mutating a register
      // the policy leaves unconstrained is permitted by construction and
      // would not be a verification-surface fault.
      std::vector<isa::Reg> targets{isa::kRegBlockId, isa::kRegCallMac};
      if (cf) {
        targets.push_back(isa::kRegPredSet);
        targets.push_back(isa::kRegStatePtr);
      }
      for (int i = 0; i < arity; ++i) {
        if (des.arg_constrained(i)) targets.push_back(static_cast<isa::Reg>(1 + i));
      }
      const isa::Reg r = targets[(seed >> 32) % targets.size()];
      regs[r] ^= nonzero32(seed);
      std::snprintf(buf, sizeof buf, "register-swap: r%d ^= 0x%x", r, nonzero32(seed));
      describe(buf);
      return true;
    }

    default:
      return false;
  }
}

}  // namespace asc::fault
