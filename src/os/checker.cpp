#include "os/checker.h"

#include <algorithm>

#include "policy/authstring.h"
#include "policy/pattern.h"
#include "policy/policy.h"
#include "util/error.h"
#include "util/hex.h"

namespace asc::os {

namespace {

using policy::AsRef;
using policy::Descriptor;

/// Read the 20-byte AS header {len, MAC} that precedes an AS body pointer.
/// Returns false when the pointer is implausible (out of range, oversized
/// length) -- the denial-of-service guard of §3.2.
bool read_as_header(const vm::Memory& mem, std::uint32_t body_addr, AsRef& out) {
  if (body_addr < policy::kAsHeaderSize) return false;
  const std::uint32_t hdr = body_addr - policy::kAsHeaderSize;
  if (!mem.in_range(hdr, policy::kAsHeaderSize)) return false;
  out.addr = body_addr;
  out.len = mem.r32(hdr);
  if (out.len > policy::kAsMaxLength) return false;
  if (!mem.in_range(body_addr, out.len)) return false;
  mem.read_bytes(hdr + 4, 16, out.mac.data());
  return true;
}

crypto::Mac read_mac(const vm::Memory& mem, std::uint32_t addr) {
  crypto::Mac m{};
  mem.read_bytes(addr, 16, m.data());
  return m;
}

}  // namespace

CheckResult check_authenticated_call(Process& p, std::uint32_t call_site, std::uint16_t sysno,
                                     SysId id, const SyscallSig& sig,
                                     const crypto::MacKey& key, const CostModel& cost,
                                     bool capability_checking, TierTable& tiers) {
  // The gates decide only what each tier SERVES; the lattice's write-watch
  // spine (os/tiertable.h) invalidates every tier regardless.
  const bool use_cache = tiers.serves_cache(p.pid);
  const bool use_shadow = tiers.serves_shadow(p.pid);
  CheckResult res;
  res.cycles = cost.check_fixed;
  auto fail = [&](Violation v, std::string detail) {
    res.violation = v;
    res.detail = std::move(detail);
    return res;
  };

  const auto& regs = p.cpu.regs;
  const Descriptor des(regs[isa::kRegPolicyDescriptor]);
  const std::uint32_t block_id = regs[isa::kRegBlockId];
  const std::uint32_t pred_body = regs[isa::kRegPredSet];
  const std::uint32_t lb_ptr = regs[isa::kRegStatePtr];
  const std::uint32_t mac_ptr = regs[isa::kRegCallMac];

  try {
    // ---- step 1: reconstruct the encoded call and verify the call MAC ----
    policy::EncodedPolicyInputs in;
    in.sysno = sysno;
    in.descriptor = des;
    in.call_site = call_site;
    in.block_id = block_id;
    in.arity = sig.arity;
    for (int i = 0; i < sig.arity; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (des.arg_is_authenticated_string(i)) {
        AsRef as;
        if (!read_as_header(p.mem, regs[1 + idx], as)) {
          return fail(Violation::BadCallMac, "unreadable AS header for argument " +
                                                 std::to_string(i));
        }
        in.as_args[idx] = as;
        res.cycles += cost.check_per_as_arg;
      } else if (des.arg_constrained(i)) {
        in.const_values[idx] = regs[1 + idx];
      }
    }
    AsRef pred_as;
    if (des.control_flow_constrained()) {
      if (!read_as_header(p.mem, pred_body, pred_as)) {
        return fail(Violation::BadCallMac, "unreadable predecessor-set header");
      }
      in.pred_set = pred_as;
      in.lb_ptr = lb_ptr;
    }
    const auto encoded = policy::encode_policy(in);
    if (!p.mem.in_range(mac_ptr, 16)) {
      return fail(Violation::BadCallMac, "call MAC pointer out of range");
    }
    const crypto::Mac claimed = read_mac(p.mem, mac_ptr);

    // Gather the static byte material up front: the cache comparison (hit
    // path) and the content MACs (miss path) consume the same bytes. Every
    // range was validated by read_as_header, so these reads cannot fault.
    std::array<std::vector<std::uint8_t>, os::kMaxSyscallArgs> as_contents;
    for (int i = 0; i < sig.arity; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!des.arg_is_authenticated_string(i)) continue;
      as_contents[idx] = p.mem.read_bytes(in.as_args[idx].addr, in.as_args[idx].len);
    }
    std::vector<std::uint8_t> pred_blob;
    if (des.control_flow_constrained()) {
      pred_blob = p.mem.read_bytes(pred_as.addr, pred_as.len);
    }

    // ---- verified-call cache probe ----
    // The material is the exact concatenated inputs of the AES-CMAC
    // verifications the hit path skips; a hit requires byte equality with a
    // previously fully verified trap of the same site. Length prefixes keep
    // the concatenation injective (bytes cannot migrate between fields).
    std::vector<std::uint32_t> preds;
    std::vector<std::uint32_t> fd_sources;
    std::vector<policy::PatternRef> patterns;
    std::vector<std::uint8_t> material;
    if (use_cache) {
      auto append = [&material](std::span<const std::uint8_t> bytes) {
        const auto n = static_cast<std::uint32_t>(bytes.size());
        for (int s = 0; s < 32; s += 8) {
          material.push_back(static_cast<std::uint8_t>(n >> s));
        }
        material.insert(material.end(), bytes.begin(), bytes.end());
      };
      append(encoded);
      append(claimed);
      for (int i = 0; i < sig.arity; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (!des.arg_is_authenticated_string(i)) continue;
        append(as_contents[idx]);
      }
      append(pred_blob);
      if (const TierTable::SiteRecord* e = tiers.lookup(p.pid, call_site, material)) {
        // Hit: static trust established earlier; reuse the decoded pred set
        // and charge the reduced cost. Everything from step 3.1 on (the
        // online memory checker, capabilities, patterns) still runs below.
        res.cache_hit = true;
        res.cycles -= cost.check_fixed;
        res.cycles += cost.cache_hit_cost(material.size());
        preds = e->preds;
        fd_sources = e->fd_sources;
        patterns = e->patterns;
      }
    }

    if (!res.cache_hit) {
      // ---- steps 1 (cont.), 2, 3: verify every static MAC of the trap ----
      // All the inputs are already in hand, so the call MAC, the AS content
      // MACs, and the pred-set MAC go through ONE batched CMAC pass
      // (4-lane interleaved AES, crypto/cmac.h). Modeled cycles and the
      // fail-fast order below are charged/walked exactly as the sequential
      // verifies were: a batch computes extra MACs only on a failing trap,
      // where the process is being terminated anyway.
      std::vector<std::span<const std::uint8_t>> msgs;
      std::vector<crypto::Mac> expected;
      msgs.emplace_back(encoded);
      expected.push_back(claimed);
      for (int i = 0; i < sig.arity; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (!des.arg_is_authenticated_string(i)) continue;
        msgs.emplace_back(as_contents[idx]);
        expected.push_back(in.as_args[idx].mac);
      }
      if (des.control_flow_constrained()) {
        msgs.emplace_back(pred_blob);
        expected.push_back(pred_as.mac);
      }
      const std::vector<bool> ok = key.verify_batch(msgs, expected);

      // ---- step 1 (cont.): the call MAC ----
      std::size_t v = 0;
      res.cycles += cost.mac_cost(encoded.size());
      if (!ok[v++]) {
        return fail(Violation::BadCallMac,
                    std::string("call MAC mismatch for ") + sig.name + " at site 0x" +
                        util::to_hex(std::vector<std::uint8_t>{
                            static_cast<std::uint8_t>(call_site >> 24),
                            static_cast<std::uint8_t>(call_site >> 16),
                            static_cast<std::uint8_t>(call_site >> 8),
                            static_cast<std::uint8_t>(call_site)}));
      }

      // ---- step 2: authenticated string contents ----
      for (int i = 0; i < sig.arity; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (!des.arg_is_authenticated_string(i)) continue;
        res.cycles += cost.mac_cost(as_contents[idx].size());
        if (!ok[v++]) {
          return fail(Violation::BadStringArg,
                      std::string("string argument ") + std::to_string(i) + " of " + sig.name +
                          " was modified");
        }
      }

      // ---- step 3: predecessor-set content ----
      if (des.control_flow_constrained()) {
        res.cycles += cost.mac_cost(pred_blob.size());
        if (!ok[v++]) {
          return fail(Violation::BadStringArg, "predecessor set was modified");
        }
        if (!policy::decode_pred_set(pred_blob, preds, fd_sources, patterns)) {
          return fail(Violation::BadStringArg, "malformed predecessor set");
        }
      }

      // Every static input verified under the key: remember this site. The
      // record's watch ranges make any guest write into the trusted bytes
      // drop it before the write lands.
      if (use_cache) {
        TierTable::SiteRecord entry;
        entry.material = std::move(material);
        entry.preds = preds;
        entry.fd_sources = fd_sources;
        entry.patterns = patterns;
        entry.ranges.emplace_back(mac_ptr, 16u);
        for (int i = 0; i < sig.arity; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          if (!des.arg_is_authenticated_string(i)) continue;
          const AsRef& as = in.as_args[idx];
          entry.ranges.emplace_back(as.addr - policy::kAsHeaderSize,
                                    as.len + policy::kAsHeaderSize);
        }
        if (des.control_flow_constrained()) {
          entry.ranges.emplace_back(pred_as.addr - policy::kAsHeaderSize,
                                    pred_as.len + policy::kAsHeaderSize);
        }
        tiers.insert(p, call_site, std::move(entry));
      }
    }

    if (des.control_flow_constrained()) {
      TierTable::Shadow* sh = use_shadow ? tiers.find_shadow(p.pid, lb_ptr) : nullptr;
      if (sh != nullptr) {
        // Shadow fast path: the kernel's own {lastBlock, counter} copy is
        // trusted by construction (installed after a full 3.1 verification,
        // invalidated before any guest write lands), so both state MACs are
        // skipped; the lbMAC in guest memory stays stale until write-back.
        res.shadow_hit = true;
        res.cycles += cost.shadow_hit_cost();

        // 3.2: lastBlock must be an allowed predecessor.
        if (std::find(preds.begin(), preds.end(), sh->last_block) == preds.end()) {
          return fail(Violation::BadPredecessor,
                      std::string(sig.name) + ": previous syscall block " +
                          std::to_string(sh->last_block) + " not in predecessor set");
        }

        // 3.3-3.5 collapse to an update of the trusted copy.
        ++p.asc_counter;
        sh->last_block = block_id;
        sh->counter = p.asc_counter;
        sh->dirty = true;
      } else {
        // 3.1: verify the policy state (online memory checker).
        if (!p.mem.in_range(lb_ptr, policy::kPolicyStateSize)) {
          return fail(Violation::BadPolicyState, "policy state pointer out of range");
        }
        const std::uint32_t last_block = p.mem.r32(lb_ptr);
        const crypto::Mac lb_mac = read_mac(p.mem, lb_ptr + 4);
        const auto state_msg = policy::encode_policy_state(last_block, p.asc_counter);
        res.cycles += cost.mac_cost(state_msg.size());
        if (!key.verify(state_msg, lb_mac)) {
          return fail(Violation::BadPolicyState, "lastBlock/lbMAC tampered or replayed");
        }

        // 3.2: lastBlock must be an allowed predecessor.
        if (std::find(preds.begin(), preds.end(), last_block) == preds.end()) {
          return fail(Violation::BadPredecessor,
                      std::string(sig.name) + ": previous syscall block " +
                          std::to_string(last_block) + " not in predecessor set");
        }

        // 3.3-3.5: increment the nonce, update lastBlock, re-MAC.
        ++p.asc_counter;
        p.mem.w32(lb_ptr, block_id);
        const auto new_msg = policy::encode_policy_state(block_id, p.asc_counter);
        res.cycles += cost.mac_cost(new_msg.size());
        const crypto::Mac new_mac = key.mac(new_msg);
        p.mem.write_bytes(lb_ptr + 4, new_mac);

        // The record in guest memory is fully verified and fresh: shadow it.
        // From the next trap on, 3.1-3.5 run against the kernel copy and the
        // guest record goes stale until an invalidation writes it back.
        if (use_shadow) tiers.install_shadow(p, lb_ptr, block_id, p.asc_counter);
      }
    }

    // ---- step 4 (§5.3): fd capability provenance ----
    if (capability_checking && !fd_sources.empty()) {
      for (int i = 0; i < sig.arity; ++i) {
        if (sig.args[static_cast<std::size_t>(i)] != ArgKind::Fd) continue;
        const std::uint32_t fdnum = regs[1 + static_cast<std::size_t>(i)];
        const FdEntry* e = p.fd(fdnum);
        if (e == nullptr) {
          return fail(Violation::BadCapability, "fd argument not a live descriptor");
        }
        if (std::find(fd_sources.begin(), fd_sources.end(), e->origin_block) ==
            fd_sources.end()) {
          return fail(Violation::BadCapability,
                      "fd " + std::to_string(fdnum) + " originated at block " +
                          std::to_string(e->origin_block) + ", not an allowed source");
        }
        break;  // the capability set applies to the first fd argument
      }
    }

    // ---- step 5 (§5.1): pattern arguments with proof hints ----
    if (!patterns.empty()) {
      std::uint32_t hint_ptr = regs[isa::kRegHintPtr];
      for (const auto& pr : patterns) {
        if (pr.arg_index >= static_cast<std::uint32_t>(sig.arity)) {
          return fail(Violation::BadPattern, "pattern references nonexistent argument");
        }
        // Verify the pattern AS itself.
        AsRef pat_as;
        if (!read_as_header(p.mem, pr.pattern_addr, pat_as)) {
          return fail(Violation::BadPattern, "unreadable pattern");
        }
        const auto pat_bytes = p.mem.read_bytes(pat_as.addr, pat_as.len);
        res.cycles += cost.mac_cost(pat_bytes.size());
        if (!key.verify(pat_bytes, pat_as.mac)) {
          return fail(Violation::BadPattern, "pattern was modified");
        }
        const std::string pattern(pat_bytes.begin(), pat_bytes.end());
        // Read the actual argument string (bounded).
        const std::string actual =
            p.mem.read_cstr(regs[1 + static_cast<std::size_t>(pr.arg_index)], 4096);
        // Read this argument's hint block: {u32 n, n x u32}.
        if (!p.mem.in_range(hint_ptr, 4)) {
          return fail(Violation::BadPattern, "hint pointer out of range");
        }
        const std::uint32_t nwords = p.mem.r32(hint_ptr);
        if (nwords > 256 || !p.mem.in_range(hint_ptr + 4, nwords * 4)) {
          return fail(Violation::BadPattern, "oversized hint");
        }
        std::vector<std::uint32_t> hint(nwords);
        for (std::uint32_t w = 0; w < nwords; ++w) hint[w] = p.mem.r32(hint_ptr + 4 + 4 * w);
        hint_ptr += 4 + 4 * nwords;
        res.cycles += 2 * policy::verify_cost(pattern, actual);
        if (!policy::verify_match(pattern, actual, hint)) {
          return fail(Violation::BadPattern, std::string(sig.name) + "(" + actual +
                                                 ") fails pattern \"" + pattern + "\"");
        }
      }
    }

    // ---- lattice bookkeeping: a fully clean verification completed ----
    if (!res.cache_hit && !res.shadow_hit) tiers.count_eager();
    // Promotion evidence for the trap-less Inline tier: both fast paths
    // served an eligible side-effect-light call whose every verified input
    // the probe can re-check from registers and the shadow. Sites with
    // authenticated-string, capability, or pattern obligations never qualify
    // -- those checks must run on every call.
    if (res.cache_hit && res.shadow_hit && tiers.inline_enabled() && inline_eligible(id) &&
        patterns.empty() && fd_sources.empty()) {
      bool plain_args = true;
      for (int i = 0; i < sig.arity; ++i) {
        plain_args = plain_args && !des.arg_is_authenticated_string(i);
      }
      if (plain_args) {
        TierTable::InlineProbe probe;
        probe.sysno = sysno;
        probe.descriptor = des.bits();
        probe.block_id = block_id;
        probe.pred_body = pred_body;
        probe.state_ptr = lb_ptr;
        probe.mac_ptr = mac_ptr;
        for (int i = 0; i < sig.arity; ++i) {
          if (des.arg_constrained(i)) {
            probe.const_args.emplace_back(static_cast<std::uint8_t>(1 + i),
                                          regs[1 + static_cast<std::size_t>(i)]);
          }
        }
        tiers.note_clean_site(p.pid, call_site, std::move(probe));
      }
    }
  } catch (const GuestFault& f) {
    return fail(Violation::GuestFaulted, f.what());
  }

  return res;
}

}  // namespace asc::os
