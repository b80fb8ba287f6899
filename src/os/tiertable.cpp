#include "os/tiertable.h"

#include <algorithm>
#include <span>

#include "isa/isa.h"

namespace asc::os {

namespace {

bool overlaps(std::uint32_t a1, std::uint32_t l1, std::uint32_t a2,
              std::uint32_t l2) {
  const std::uint64_t e1 = static_cast<std::uint64_t>(a1) + l1;
  const std::uint64_t e2 = static_cast<std::uint64_t>(a2) + l2;
  return a1 < e2 && a2 < e1;
}

}  // namespace

std::string tier_name(Tier t) {
  switch (t) {
    case Tier::Inline: return "inline";
    case Tier::Shadowed: return "shadowed";
    case Tier::Cached: return "cached";
    case Tier::Eager: return "eager";
  }
  return "?";
}

std::string demotion_cause_name(DemotionCause c) {
  switch (c) {
    case DemotionCause::GuestWrite: return "guest-write";
    case DemotionCause::KeyRotation: return "key-rotation";
    case DemotionCause::Teardown: return "teardown";
    case DemotionCause::HealthDemotion: return "health";
    case DemotionCause::MonitorSwap: return "monitor-swap";
    case DemotionCause::ProbeMismatch: return "probe-mismatch";
    case DemotionCause::Disabled: return "disabled";
    case DemotionCause::kCount: break;
  }
  return "?";
}

bool inline_eligible(SysId id) {
  switch (id) {
    case SysId::Getpid:
    case SysId::Getuid:
    case SysId::Sysconf:
    case SysId::Time:
    case SysId::Gettimeofday:
      return true;
    default:
      return false;
  }
}

void write_policy_state(Process& p, std::uint32_t state_ptr, std::uint32_t last_block,
                        std::uint64_t counter, const crypto::MacKey& key,
                        const CostModel& cost) {
  const auto msg = policy::encode_policy_state(last_block, counter);
  p.cycles += cost.mac_cost(msg.size());
  p.mem.w32(state_ptr, last_block);
  p.mem.write_bytes(state_ptr + 4, key.mac(msg));
}

// ---- gates ----

void TierTable::set_cache_enabled(bool on) {
  if (!on) demote_all(DemotionCause::Disabled);
  cache_enabled_ = on;
}

void TierTable::set_shadow_enabled(bool on) {
  if (!on) {
    demote_all(DemotionCause::Disabled);
    for (auto& [pid, r] : pids_) drop_shadow(r);
  }
  shadow_enabled_ = on;
}

void TierTable::set_inline_enabled(bool on) {
  if (!on) demote_all(DemotionCause::Disabled);
  inline_enabled_ = on;
}

bool TierTable::serves_cache(const PidRecord* r) const {
  return cache_enabled_ && (r == nullptr || r->health.state != HealthState::Quarantined);
}

bool TierTable::serves_shadow(const PidRecord* r) const {
  return shadow_enabled_ && (r == nullptr || r->health.state == HealthState::Healthy);
}

// ---- per-pid records and the spine ----

TierTable::PidRecord* TierTable::find_pid(int pid) {
  const auto it = pids_.find(pid);
  return it == pids_.end() ? nullptr : &it->second;
}

const TierTable::PidRecord* TierTable::find_pid(int pid) const {
  const auto it = pids_.find(pid);
  return it == pids_.end() ? nullptr : &it->second;
}

TierTable::PidRecord& TierTable::pid_record(Process& p) {
  const auto [it, inserted] = pids_.try_emplace(p.pid, p);
  if (inserted && !p.mem.has_write_watch()) {
    p.mem.set_write_watch([this, pid = p.pid](std::uint32_t addr, std::uint32_t len) {
      on_guest_write(pid, addr, len);
    });
  }
  return it->second;
}

void TierTable::on_guest_write(int pid, std::uint32_t addr, std::uint32_t len) {
  // The shadow first: a dirty record is materialized before the write lands
  // on top of it. Its range is unwatched before the write-back stores, and
  // no site record covers the state record, so nothing below re-enters.
  const auto pit = pids_.find(pid);
  if (pit != pids_.end() && pit->second.shadow &&
      overlaps(pit->second.shadow->state_ptr, policy::kPolicyStateSize, addr, len)) {
    drop_shadow(pit->second);
  }
  auto it = sites_.lower_bound({pid, 0});
  while (it != sites_.end() && it->first.first == pid) {
    SiteRecord& r = it->second;
    const bool hit = std::any_of(r.ranges.begin(), r.ranges.end(), [&](const auto& rg) {
      return overlaps(rg.first, rg.second, addr, len);
    });
    if (hit) {
      it = drop(it, DemotionCause::GuestWrite);
      continue;
    }
    // An Inline record also vouches for the state record its probe reads.
    if (r.tier == Tier::Inline && overlaps(r.snapshot.value[isa::kRegStatePtr],
                                           policy::kPolicyStateSize, addr, len)) {
      demote(r, DemotionCause::GuestWrite);
    }
    ++it;
  }
}

// ---- site records ----

void TierTable::demote(SiteRecord& r, DemotionCause cause) {
  if (r.tier == Tier::Inline) {
    ++stats_.demotions[static_cast<std::size_t>(cause)];
    r.tier = Tier::Cached;
  }
  r.streak = 0;
}

void TierTable::demote_all(DemotionCause cause) {
  for (auto& [key, r] : sites_) demote(r, cause);
}

TierTable::SiteMap::iterator TierTable::drop(SiteMap::iterator it, DemotionCause cause) {
  demote(it->second, cause);
  if (const auto pit = pids_.find(it->first.first); pit != pids_.end()) {
    for (const auto& [addr, len] : it->second.ranges) pit->second.proc.mem.unwatch(addr, len);
  }
  return sites_.erase(it);
}

void TierTable::drop_sites(int pid, DemotionCause cause) {
  auto it = sites_.lower_bound({pid, 0});
  while (it != sites_.end() && it->first.first == pid) it = drop(it, cause);
}

// ---- the snapshot and the record compare ----

TierTable::Snapshot TierTable::Snapshot::of(const Regs& regs, int arity) {
  static_assert(kMaxSyscallArgs < isa::kRegPolicyDescriptor && isa::kRegBlockId < kRegs &&
                    isa::kRegPredSet < kRegs && isa::kRegCallMac >= kRegs,
                "the argument and operand registers lie below kRegs, the MAC pointer above");
  const policy::Descriptor des(regs[isa::kRegPolicyDescriptor]);
  Snapshot s;
  s.mask[0] = 0xffffu;  // the trapping number is the low half of r0
  s.mask[isa::kRegPolicyDescriptor] = ~0u;
  s.mask[isa::kRegBlockId] = ~0u;
  for (int i = 0; i < arity; ++i) {
    if (des.arg_constrained(i) || des.arg_is_authenticated_string(i)) {
      s.mask[1 + static_cast<std::size_t>(i)] = ~0u;
    }
  }
  if (des.control_flow_constrained()) {
    s.mask[isa::kRegPredSet] = ~0u;
    s.mask[isa::kRegStatePtr] = ~0u;
  }
  for (std::size_t r = 0; r < kRegs; ++r) s.value[r] = regs[r] & s.mask[r];
  s.mac_ptr = regs[isa::kRegCallMac];
  return s;
}

void TierTable::SiteRecord::keep(const vm::Memory& mem, std::uint32_t addr, std::uint32_t len) {
  ranges.emplace_back(addr, len);
  const std::size_t at = bytes.size();
  bytes.resize(at + len);
  mem.read_bytes(addr, len, bytes.data() + at);
}

bool TierTable::SiteRecord::matches(const Regs& regs, const vm::Memory& mem) const {
  if (!snapshot.operands_match(regs)) return false;
  // Every register that places an AS or pred-set range matched, so those
  // ranges sit where they were verified; the call MAC is compared where this
  // trap points, which need not be the watched slot.
  const std::span<const std::uint8_t> kept(bytes);
  std::size_t off = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [addr, len] = ranges[i];
    const std::uint32_t at = i == 0 ? regs[isa::kRegCallMac] : addr;
    if (!mem.in_range(at, len) || !mem.equals(at, kept.subspan(off, len))) return false;
    off += len;
  }
  return true;
}

const TierTable::SiteRecord* TierTable::lookup(const Process& p, std::uint32_t call_site) {
  const auto it = sites_.find({p.pid, call_site});
  // A hit demands exact equality with what was verified. A digest here would
  // make the fast path only as strong as the digest's collision resistance;
  // the bytes are small and bounded, so compare them outright.
  if (it == sites_.end() || !it->second.matches(p.cpu.regs, p.mem)) return nullptr;
  ++stats_.cached;
  ++it->second.hits;
  return &it->second;
}

void TierTable::insert(Process& p, std::uint32_t call_site, SiteRecord rec) {
  const SiteKey key{p.pid, call_site};
  PidRecord& owner = pid_record(p);
  if (const auto it = sites_.find(key); it != sites_.end()) {
    // Replacement: only a trap that missed the record gets here, so the
    // stale record's trust is void.
    drop(it, DemotionCause::ProbeMismatch);
  } else if (sites_.size() >= capacity_) {
    // Capacity backstop: evict the least-hit Cached record, rotating the
    // tie-break start through the key space so a full table degrades every
    // process's sites evenhandedly. Inline records are never victims: their
    // hits bypass the Cached-tier counter.
    auto victim = sites_.end();
    auto cur = sites_.upper_bound(rr_cursor_);
    for (std::size_t n = sites_.size(); n > 0; --n, ++cur) {
      if (cur == sites_.end()) cur = sites_.begin();
      if (cur->second.tier == Tier::Cached &&
          (victim == sites_.end() || cur->second.hits < victim->second.hits)) {
        victim = cur;
      }
    }
    if (victim != sites_.end()) {
      rr_cursor_ = victim->first;
      drop(victim, DemotionCause::Disabled);  // a Cached victim: nothing demotes
    }
  }
  rec.tier = Tier::Cached;
  for (const auto& [addr, len] : rec.ranges) owner.proc.mem.watch(addr, len);
  sites_.emplace(key, std::move(rec));
}

// ---- the shadow ----

TierTable::Shadow* TierTable::find_shadow(PidRecord* r, std::uint32_t state_ptr) {
  if (r == nullptr || !r->shadow || r->shadow->state_ptr != state_ptr) {
    ++stats_.shadow_misses;
    return nullptr;
  }
  ++stats_.shadowed;
  return &*r->shadow;
}

void TierTable::install_shadow(Process& p, std::uint32_t state_ptr, std::uint32_t last_block,
                               std::uint64_t counter) {
  PidRecord& r = pid_record(p);
  drop_shadow(r);  // repointed lbPtr: flush the old record first
  r.shadow = Shadow{state_ptr, last_block, counter, /*dirty=*/false};
  p.mem.watch(state_ptr, policy::kPolicyStateSize);
}

const TierTable::Shadow* TierTable::shadow(int pid) const {
  const PidRecord* r = find_pid(pid);
  return r == nullptr || !r->shadow ? nullptr : &*r->shadow;
}

std::optional<TierTable::Shadow> TierTable::take_shadow(PidRecord& r) {
  // Out of the record FIRST: any watch callback that fires during the
  // caller's stores must find the shadow already coherent.
  std::optional<Shadow> s = std::exchange(r.shadow, std::nullopt);
  if (s) r.proc.mem.unwatch(s->state_ptr, policy::kPolicyStateSize);
  return s;
}

void TierTable::drop_shadow(PidRecord& r) {
  const std::optional<Shadow> s = take_shadow(r);
  if (!s || !s->dirty || !key_) return;
  ++stats_.write_backs;
  write_policy_state(r.proc, s->state_ptr, s->last_block, s->counter, *key_, cost_);
}

// ---- the Inline tier ----

bool TierTable::try_inline(Process& p, std::uint32_t call_site) {
  if (!inline_enabled_) return false;
  const auto it = sites_.find({p.pid, call_site});
  if (it == sites_.end() || it->second.tier != Tier::Inline) return false;
  SiteRecord& r = it->second;
  PidRecord* owner = find_pid(p.pid);
  // A pid below Healthy must never serve from the Inline tier. Health
  // demotion already drops its records; this gate is belt-and-braces against
  // any ordering where a record survives the transition.
  if (owner != nullptr && owner->health.state != HealthState::Healthy) {
    demote(r, DemotionCause::HealthDemotion);
    return false;
  }
  // The verifying trap's snapshot, the MAC pointer included: the probe
  // trusts only the call-MAC slot the record watches.
  const Snapshot& s = r.snapshot;
  const auto& regs = p.cpu.regs;
  bool match = s.operands_match(regs) && regs[isa::kRegCallMac] == s.mac_ptr;
  Shadow* sh = match && shadow_enabled_ && owner != nullptr && owner->shadow ? &*owner->shadow
                                                                             : nullptr;
  match = match && sh != nullptr && sh->state_ptr == s.value[isa::kRegStatePtr] &&
          sh->counter == p.asc_counter &&
          std::find(r.preds.begin(), r.preds.end(), sh->last_block) != r.preds.end();
  if (!match) {
    // Anything diverging from the promoted snapshot falls back to the full
    // pipeline, which re-verifies every MAC: tamper fail-stops there.
    demote(r, DemotionCause::ProbeMismatch);
    return false;
  }
  // Advance the control-flow state exactly as a Shadowed-tier hit would.
  ++p.asc_counter;
  sh->last_block = s.value[isa::kRegBlockId];
  sh->counter = p.asc_counter;
  sh->dirty = true;
  ++stats_.inline_hits;
  return true;
}

void TierTable::note_clean_site(const PidRecord& owner, std::uint32_t call_site) {
  if (!inline_enabled_) return;
  const auto it = sites_.find({owner.proc.pid, call_site});
  if (it == sites_.end() || it->second.tier == Tier::Inline) return;
  // Promotion is reserved for Healthy pids; anything below re-earns its
  // streak only after the health machine re-promotes the pid.
  if (owner.health.state != HealthState::Healthy) return;
  SiteRecord& r = it->second;
  if (owner.proc.cpu.regs[isa::kRegCallMac] != r.snapshot.mac_ptr) {
    r.streak = 0;
    return;
  }
  if (++r.streak < inline_threshold_) return;
  r.tier = Tier::Inline;
  r.streak = 0;
  ++stats_.promotions;
}

void TierTable::note_unclean(int pid) {
  for (auto it = sites_.lower_bound({pid, 0}); it != sites_.end() && it->first.first == pid;
       ++it) {
    it->second.streak = 0;
  }
}

// ---- health ----

HealthState TierTable::health(int pid) const {
  const HealthRecord* h = health_record(pid);
  return h == nullptr ? HealthState::Healthy : h->state;
}

const HealthRecord* TierTable::health_record(int pid) const {
  const PidRecord* r = find_pid(pid);
  return r == nullptr ? nullptr : &r->health;
}

// ---- pid- and table-wide invalidation ----

void TierTable::end_process(int pid) {
  flush_pid(pid, DemotionCause::Teardown);
  pids_.erase(pid);
}

void TierTable::flush_pid(int pid, DemotionCause cause) {
  const auto it = pids_.find(pid);
  if (it == pids_.end()) return;
  drop_sites(pid, cause);
  drop_shadow(it->second);
}

void TierTable::evict_pid(int pid) {
  const auto it = pids_.find(pid);
  if (it == pids_.end()) return;
  drop_sites(pid, DemotionCause::HealthDemotion);
  Process& p = it->second.proc;
  const std::optional<Shadow> s = take_shadow(it->second);
  if (s && key_ && p.mem.in_range(s->state_ptr, policy::kPolicyStateSize)) {
    write_policy_state(p, s->state_ptr, s->last_block, p.asc_counter, *key_, cost_);
  }
}

void TierTable::on_key_rotation() {
  while (!sites_.empty()) drop(sites_.begin(), DemotionCause::KeyRotation);
  // Still under the OLD key here: dirty shadows write back under the key
  // that verified them, then nothing survives the rotation.
  for (auto& [pid, r] : pids_) drop_shadow(r);
}

// ---- inspection ----

std::size_t TierTable::sites(int pid) const {
  std::size_t n = 0;
  for (auto it = sites_.lower_bound({pid, 0}); it != sites_.end() && it->first.first == pid;
       ++it) {
    ++n;
  }
  return n;
}

std::size_t TierTable::inline_sites() const {
  std::size_t n = 0;
  for (const auto& [key, r] : sites_) n += r.tier == Tier::Inline ? 1 : 0;
  return n;
}

Tier TierTable::tier(int pid, std::uint32_t call_site) const {
  const auto it = sites_.find({pid, call_site});
  if (it == sites_.end() || !serves_cache(pid)) return Tier::Eager;
  if (it->second.tier == Tier::Inline) return Tier::Inline;
  return serves_shadow(pid) && shadow(pid) != nullptr ? Tier::Shadowed : Tier::Cached;
}

std::size_t TierTable::approx_bytes() const {
  std::size_t n = pids_.size() * (sizeof(int) + sizeof(PidRecord));
  for (const auto& [key, r] : sites_) {
    n += sizeof(key) + sizeof(r) + r.bytes.size() +
         (r.preds.size() + r.fd_sources.size()) * sizeof(std::uint32_t) +
         r.patterns.size() * sizeof(policy::PatternRef) + r.ranges.size() * sizeof(r.ranges[0]);
  }
  return n;
}

}  // namespace asc::os
