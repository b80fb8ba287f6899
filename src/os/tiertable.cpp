#include "os/tiertable.h"

#include <algorithm>

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

bool TierTable::serves_cache(int pid) const {
  return cache_enabled_ && health(pid) != HealthState::Quarantined;
}

bool TierTable::serves_shadow(int pid) const {
  return shadow_enabled_ && health(pid) == HealthState::Healthy;
}

// ---- per-pid records and the spine ----

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
    if (r.tier == Tier::Inline &&
        overlaps(r.probe.state_ptr, policy::kPolicyStateSize, addr, len)) {
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
    r.probe = {};
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

const TierTable::SiteRecord* TierTable::lookup(int pid, std::uint32_t call_site,
                                               std::span<const std::uint8_t> material) {
  const auto it = sites_.find({pid, call_site});
  // A hit demands exact byte equality with the verified material. A digest
  // here would make the fast path only as strong as the digest's collision
  // resistance; the bytes are small and bounded, so compare them outright.
  if (it == sites_.end() || it->second.material.size() != material.size() ||
      !std::equal(material.begin(), material.end(), it->second.material.begin())) {
    ++stats_.cache_misses;
    return nullptr;
  }
  ++stats_.cached;
  ++it->second.hits;
  return &it->second;
}

void TierTable::insert(Process& p, std::uint32_t call_site, SiteRecord rec) {
  const SiteKey key{p.pid, call_site};
  PidRecord& owner = pid_record(p);
  if (const auto it = sites_.find(key); it != sites_.end()) {
    // Replacement: only a trap whose material missed the record gets here,
    // so the stale record's trust is void.
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

TierTable::Shadow* TierTable::find_shadow(int pid, std::uint32_t state_ptr) {
  const auto it = pids_.find(pid);
  if (it == pids_.end() || !it->second.shadow || it->second.shadow->state_ptr != state_ptr) {
    ++stats_.shadow_misses;
    return nullptr;
  }
  ++stats_.shadowed;
  return &*it->second.shadow;
}

void TierTable::install_shadow(Process& p, std::uint32_t state_ptr, std::uint32_t last_block,
                               std::uint64_t counter) {
  PidRecord& r = pid_record(p);
  drop_shadow(r);  // repointed lbPtr: flush the old record first
  r.shadow = Shadow{state_ptr, last_block, counter, /*dirty=*/false};
  p.mem.watch(state_ptr, policy::kPolicyStateSize);
}

const TierTable::Shadow* TierTable::shadow(int pid) const {
  const auto it = pids_.find(pid);
  return it == pids_.end() || !it->second.shadow ? nullptr : &*it->second.shadow;
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
  // A pid below Healthy must never serve from the Inline tier. Health
  // demotion already drops its records; this gate is belt-and-braces against
  // any ordering where a record survives the transition.
  if (health(p.pid) != HealthState::Healthy) {
    demote(r, DemotionCause::HealthDemotion);
    return false;
  }
  const InlineProbe& s = r.probe;
  const auto& regs = p.cpu.regs;
  bool match = regs[0] == s.sysno && regs[isa::kRegPolicyDescriptor] == s.descriptor &&
               regs[isa::kRegBlockId] == s.block_id && regs[isa::kRegPredSet] == s.pred_body &&
               regs[isa::kRegStatePtr] == s.state_ptr && regs[isa::kRegCallMac] == s.mac_ptr;
  for (const auto& [idx, val] : s.const_args) match = match && regs[idx] == val;
  const auto pit = match && shadow_enabled_ ? pids_.find(p.pid) : pids_.end();
  Shadow* sh = pit != pids_.end() && pit->second.shadow ? &*pit->second.shadow : nullptr;
  match = match && sh != nullptr && sh->state_ptr == s.state_ptr &&
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
  sh->last_block = s.block_id;
  sh->counter = p.asc_counter;
  sh->dirty = true;
  ++stats_.inline_hits;
  return true;
}

void TierTable::note_clean_site(int pid, std::uint32_t call_site, InlineProbe probe) {
  if (!inline_enabled_) return;
  const auto it = sites_.find({pid, call_site});
  if (it == sites_.end() || it->second.tier == Tier::Inline) return;
  // Promotion is reserved for Healthy pids; anything below re-earns its
  // streak only after the health machine re-promotes the pid.
  if (health(pid) != HealthState::Healthy) return;
  SiteRecord& r = it->second;
  if (++r.streak < inline_threshold_) return;
  r.tier = Tier::Inline;
  r.probe = std::move(probe);
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
  const auto it = pids_.find(pid);
  return it == pids_.end() ? nullptr : &it->second.health;
}

HealthRecord* TierTable::health_record(int pid) {
  const auto it = pids_.find(pid);
  return it == pids_.end() ? nullptr : &it->second.health;
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
    n += sizeof(key) + sizeof(r) + r.material.size() +
         (r.preds.size() + r.fd_sources.size()) * sizeof(std::uint32_t) +
         r.patterns.size() * sizeof(policy::PatternRef) +
         r.ranges.size() * sizeof(r.ranges[0]) +
         r.probe.const_args.size() * sizeof(r.probe.const_args[0]);
  }
  return n;
}

}  // namespace asc::os
