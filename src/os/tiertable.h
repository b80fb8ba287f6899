// The tiered verification lattice: the kernel's one owner of fast-path
// verification state.
//
// The §3.4 checker makes one trust decision per call site: these static
// bytes were verified under the key. TierTable records that decision once,
// in one record per (pid, call site), and keeps one record per pid beside
// it. Four tiers, fast to slow:
//
//   Inline    -> pre-authorized trap-less check: the whole
//                trap->enforce->dispatch->audit pipeline is skipped for a
//                site that earned promotion (see below)
//   Shadowed  -> the site record serves the static MACs and the pid's
//                shadow serves the control-flow state MACs
//   Cached    -> the site record serves the static MACs only (eager §3.2
//                control-flow protocol)
//   Eager     -> no record serves: full verification, every MAC every call
//
// The per-site record (Cached tier). Everything the checker authenticates
// with AES-CMAC over *static* bytes is immutable between policy installs:
// the encoded call (sysno, descriptor, site, block id, constant argument
// values, AS headers, lbPtr), the 16-byte call MAC, the predecessor-set blob
// and every static AS content. The record keeps those exact bytes (each
// length-prefixed, so the concatenation is injective) as seen at the last
// FULL verification. A later trap at the same site hits only when it
// presents byte-identical material -- an exact compare, not a hash, so a
// guest cannot engineer a collision -- and then skips the call-MAC,
// AS-content and pred-set CMACs and the pred-set decode. What is never
// cached: the §3.2 state record (verified every call, by MAC or through the
// shadow), fd capabilities (§5.3) and pattern arguments (§5.1), which depend
// on the live fd table and dynamic strings. Records are inserted only after
// a successful verification, and pid is part of the key, so one process's
// verification never serves another. The record may buy cycles, never
// soundness:
//   * a guest write into any byte range backing it (call MAC, AS
//     header/body, pred-set header/body) drops it before the write lands;
//   * key rotation drops every record;
//   * teardown/exec drops every record of the pid, so a recycled pid or a
//     re-exec never inherits stale trust;
//   * a trap whose material differs in any byte is a miss (full
//     re-verification), so even a missed invalidation cannot skip checking
//     of changed bytes;
//   * at capacity the least-hit Cached record goes (a rotating cursor breaks
//     ties, so no process's low-address sites are victimized forever).
// Each range is watched exactly once per record and returned on every path
// that drops the record, so the Memory watch set tracks live records.
//
// The per-pid record holds the process itself (its memory handle, and the
// cycle counter that write-backs charge), its shadow and its health record.
//
// The shadow (Shadowed tier). The §3.2 online memory checker keeps
// {lastBlock, lbMAC} in UNTRUSTED guest memory, so the eager checker
// verifies and re-MACs it on every call. The shadow is the kernel's own
// trusted copy of {state_ptr, lastBlock, counter}: while the guest has not
// written the watched 20-byte record, the checker consults and advances only
// the shadow (cost.shadow_hit_cost(), no MAC), and the guest's lbMAC is
// materialized LAZILY -- written back (one CMAC under the current key) only
// when the shadow is dropped. This is exactly as strong as the online memory
// checker: the shadow lives in kernel memory and advances only through the
// checker's own transition, so a hit proves what verify-MAC over an
// untampered guest record proves; it is installed only after the slow path
// fully verified the guest record once, and lives only while no guest write
// touched the record -- write watches fire BEFORE the bytes change, so the
// trusted record is written back first and a tampering write lands on top;
// after any drop the next call takes the slow path over whatever bytes the
// guest left behind, so tamper or replay is caught exactly where the eager
// checker catches it. The shadow leaves its record BEFORE the write-back
// runs and its range is unwatched first, so the write-back's own stores
// cannot re-enter the spine. Invalidation table:
//   guest write into the record   -> write back (if dirty), then slow path
//   key rotation                  -> write back under the OLD key first
//   process teardown / exec       -> write back while the Memory is alive
//   shadow disabled at runtime    -> write back, so the eager protocol
//                                    resumes coherently
//   health demotion               -> no write-back: re-materialized under
//                                    the process's authoritative counter
//   cold start / repointed lbPtr  -> miss; the slow path verifies and
//                                    (re)installs, writing back the old one
//
// The Inline tier. A site record climbs to Inline after N consecutive clean
// Shadowed verifications of a side-effect-light syscall
// (getpid/gettimeofday-class: no authenticated-string arguments, no
// patterns, no fd capabilities, a control-flow-constrained descriptor), and
// only while its pid is Healthy. Promotion snapshots the policy operand
// registers and constrained argument values; the record's decoded preds and
// watched ranges already cover the rest, so promotion registers no watch.
// Why inline execution cannot outlive a tamper (in full in DESIGN.md): the
// probe requires the live registers to equal the snapshot, the shadow nonce
// to equal the process's authoritative counter and the shadow's lastBlock
// to be an allowed predecessor; a guest write into the call bytes drops the
// record and a write into the state record (watched by the shadow) demotes
// it, both before the write lands. Key rotation, teardown/exec, health
// demotion, monitor swap and fast-path gate-off demote through the same
// table. Any probe mismatch demotes and falls back to the full pipeline,
// which re-verifies everything -- so the inline tier can buy cycles, never
// soundness. "Trap-less" means the enforcement pipeline is bypassed; the
// modeled trap cost is still charged (the simulated CPU has no trampoline
// to patch), so the Table 4 inline column reports the honest residual
// overhead of the pre-authorized check itself.
//
// Health is the demotion floor of the same lattice: an internal fault drops
// every fast path of the pid and lowers what it may be served
// (Healthy = all tiers, Degraded = at most Cached, Quarantined = Eager).
//
// One invalidation spine. Every tier is invalidated by the same event set,
// so the table installs ONE vm::Memory write-watch callback per process: the
// shadow first (its lazy write-back must land before anything else scans
// the final bytes), then the site records. Gating decides what a tier
// SERVES, never what it hears about, so enabling a fast path later can't
// leave it deaf to writes that predate the flip.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/cmac.h"
#include "os/costmodel.h"
#include "os/health.h"
#include "os/process.h"
#include "os/syscalls.h"
#include "policy/policy.h"

namespace asc::os {

/// The verification tiers, fastest first.
enum class Tier : std::uint8_t { Inline, Shadowed, Cached, Eager };

std::string tier_name(Tier t);

/// Why an inline site (or a whole pid / the whole table) was demoted. The
/// spine guarantees these are the ONLY events that can revoke a promotion.
enum class DemotionCause : std::uint8_t {
  GuestWrite,      // guest wrote into the call bytes or the state record
  KeyRotation,     // Kernel::set_key: no prior verification survives
  Teardown,        // process teardown / exec (TierTable::end_process)
  HealthDemotion,  // per-pid health machine left Healthy
  MonitorSwap,     // enforcement monitor replaced mid-run
  ProbeMismatch,   // inline probe saw registers/shadow diverge from snapshot
  Disabled,        // a fast path was switched off at runtime
  kCount,
};

inline constexpr std::size_t kNumDemotionCauses =
    static_cast<std::size_t>(DemotionCause::kCount);

std::string demotion_cause_name(DemotionCause c);

/// The aligned per-tier counters `asctool run --stats` renders: one row per
/// tier plus the promotion/demotion flow between them.
struct TierStats {
  std::uint64_t eager = 0;     // completed full verifications (no fast path)
  std::uint64_t cached = 0;    // site-record hits
  std::uint64_t shadowed = 0;  // policy-state shadow hits
  std::uint64_t inline_hits = 0;  // trap-less pre-authorized executions
  std::uint64_t cache_misses = 0;
  std::uint64_t shadow_misses = 0;
  std::uint64_t write_backs = 0;  // lazy lbMAC materializations (one CMAC each)
  std::uint64_t promotions = 0;   // sites that earned the Inline tier
  std::array<std::uint64_t, kNumDemotionCauses> demotions{};

  std::uint64_t demotions_total() const {
    std::uint64_t n = 0;
    for (const auto d : demotions) n += d;
    return n;
  }
};

/// The one writer of the §3.2 policy-state record: stores {last_block,
/// MAC(encode_policy_state(last_block, counter))} at `state_ptr` and charges
/// the MAC to `p`. Shadow write-backs, health resyncs and live rekeys all
/// materialize the record through here.
void write_policy_state(Process& p, std::uint32_t state_ptr, std::uint32_t last_block,
                        std::uint64_t counter, const crypto::MacKey& key,
                        const CostModel& cost);

/// One kernel's tier lattice. os::TenantState holds exactly one per tenant.
class TierTable {
 public:
  /// What the inline probe re-checks against live trap state, snapshotted
  /// at promotion from a fully verified Shadowed-tier trap.
  struct InlineProbe {
    std::uint16_t sysno = 0;
    std::uint32_t descriptor = 0;
    std::uint32_t block_id = 0;
    std::uint32_t pred_body = 0;
    std::uint32_t state_ptr = 0;
    std::uint32_t mac_ptr = 0;
    /// {argument register index (1-based), expected value} for every
    /// descriptor-constrained argument.
    std::vector<std::pair<std::uint8_t, std::uint32_t>> const_args;
  };

  /// One trap's cache material -- the exact inputs of the AES-CMAC
  /// verifications a hit skips -- described where it lives instead of
  /// copied out: the encoded call and the claimed call MAC in host buffers,
  /// each authenticated-string body and the pred-set blob in guest memory.
  /// The stored form a SiteRecord keeps is every field length-prefixed (u32
  /// little-endian) in that order: encoded call, call MAC, AS bodies in
  /// ascending argument order, pred-set blob. The prefixes keep the
  /// concatenation injective (bytes cannot migrate between fields); a
  /// descriptor without control flow leaves the pred-set field empty, a
  /// bare 4-byte zero prefix. matches() compares a stored form in place,
  /// prefix by prefix and field by field; bytes() writes one on a miss. Both
  /// walk the same fields, so the layout is defined here once. The host
  /// buffers and the Memory must outlive the description.
  class Material {
   public:
    Material(const vm::Memory& mem, std::span<const std::uint8_t> encoded_call,
             std::span<const std::uint8_t> call_mac);
    /// The next authenticated-string body, in ascending argument order.
    void add_string(std::uint32_t addr, std::uint32_t len);
    /// The pred-set blob body (control-flow-constrained descriptors only).
    void set_pred_set(std::uint32_t addr, std::uint32_t len);
    /// Length of the stored form.
    std::size_t size() const { return size_; }
    /// True iff `stored` is byte for byte the stored form of this material.
    /// Reads guest bytes through vm::Memory::equals; copies nothing.
    bool matches(std::span<const std::uint8_t> stored) const;
    /// The stored form.
    std::vector<std::uint8_t> bytes() const;

   private:
    /// Host bytes at `host`, or guest bytes at `addr` when `host` is null.
    struct Field {
      const std::uint8_t* host = nullptr;
      std::uint32_t addr = 0;
      std::uint32_t len = 0;
    };
    static constexpr std::size_t kMaxFields = 2 + kMaxSyscallArgs;
    /// Field `i` in stored order; the pred-set field is last (i == count_).
    const Field& field(std::size_t i) const { return i < count_ ? fields_[i] : pred_; }
    const vm::Memory& mem_;
    std::array<Field, kMaxFields> fields_{};
    std::size_t count_ = 0;
    Field pred_;
    std::size_t size_ = 0;
  };

  /// One verified call site of one process. `material` is the stored form of
  /// the trap's Material (each field bounded by kAsMaxLength); `ranges` are
  /// the guest byte ranges backing it, each watched once.
  struct SiteRecord {
    Tier tier = Tier::Cached;  // Cached or Inline
    std::vector<std::uint8_t> material;
    std::vector<std::uint32_t> preds;
    std::vector<std::uint32_t> fd_sources;
    std::vector<policy::PatternRef> patterns;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;  // {addr, len}
    /// Cached-tier hits: the capacity victim order.
    std::uint64_t hits = 0;
    /// Consecutive clean Shadowed-tier verifications toward promotion.
    std::uint32_t streak = 0;
    /// Meaningful while tier == Inline.
    InlineProbe probe;
  };

  /// The kernel's trusted copy of one process's control-flow state. `dirty`
  /// means the guest record is stale (hits advanced the shadow only) and a
  /// write-back is owed when the shadow is dropped.
  struct Shadow {
    std::uint32_t state_ptr = 0;
    std::uint32_t last_block = 0;
    std::uint64_t counter = 0;
    bool dirty = false;
  };

  /// `key` and `cost` are the tenant's MAC key and the kernel's cost model,
  /// which shadow write-backs use; both must outlive the table.
  TierTable(const std::optional<crypto::MacKey>& key, const CostModel& cost,
            std::size_t capacity = 4096)
      : key_(key), cost_(cost), capacity_(capacity) {}
  TierTable(const TierTable&) = delete;
  TierTable& operator=(const TierTable&) = delete;

  // ---- gates ----
  void set_cache_enabled(bool on);
  bool cache_enabled() const { return cache_enabled_; }
  /// Off writes every live shadow back, so the eager protocol resumes
  /// coherently; the Inline tier rides on the shadow and demotes with it.
  void set_shadow_enabled(bool on);
  bool shadow_enabled() const { return shadow_enabled_; }
  /// Gate for the trap-less tier. Off by default: with the gate off the
  /// kernel's verdicts, cycles and audit stream are those of the lattice
  /// without the Inline tier -- the golden oracle pins this.
  void set_inline_enabled(bool on);
  bool inline_enabled() const { return inline_enabled_; }
  /// Consecutive clean Shadowed-tier verifications a site must earn before
  /// promotion.
  void set_inline_threshold(std::uint32_t n) { inline_threshold_ = n == 0 ? 1 : n; }
  std::uint32_t inline_threshold() const { return inline_threshold_; }
  /// What the checker may consult for `pid`: the gate, floored by the pid's
  /// health (site records survive until Quarantined, the shadow only while
  /// Healthy).
  bool serves_cache(int pid) const;
  bool serves_shadow(int pid) const;

  // ---- the Cached tier ----
  /// The record for (pid, call_site) iff its stored material is exactly
  /// `material`'s stored form (compared in place), else nullptr. Counts a
  /// hit or a miss either way.
  const SiteRecord* lookup(int pid, std::uint32_t call_site, const Material& material);
  /// Populate after a full verification: watches the record's ranges and
  /// replaces any stale record of the site.
  void insert(Process& p, std::uint32_t call_site, SiteRecord rec);

  // ---- the Shadowed tier ----
  /// The pid's shadow iff it shadows exactly `state_ptr`, else nullptr.
  /// Counts a hit or a miss either way.
  Shadow* find_shadow(int pid, std::uint32_t state_ptr);
  /// Install after a slow-path verification left guest memory holding the
  /// freshly MACed {last_block, counter} record at `state_ptr`, and watch
  /// it. A shadow of another state_ptr (repointed lbPtr) is written back
  /// first.
  void install_shadow(Process& p, std::uint32_t state_ptr, std::uint32_t last_block,
                      std::uint64_t counter);
  /// The pid's shadow regardless of state_ptr (inspection; no stats).
  const Shadow* shadow(int pid) const;

  // ---- the Inline tier ----
  /// The trap-less probe. True iff (pid, call_site) is promoted AND every
  /// snapshot input matches the live trap state AND the shadow nonce equals
  /// the process's authoritative counter AND the shadow's lastBlock is an
  /// allowed predecessor -- in which case the shadow is advanced exactly as
  /// a Shadowed-tier hit would advance it and the caller may dispatch
  /// without the enforcement pipeline. Any mismatch demotes the site
  /// (ProbeMismatch) and returns false: the full pipeline re-verifies, so
  /// genuine tamper fail-stops there.
  bool try_inline(Process& p, std::uint32_t call_site);
  /// The checker's promotion note: a fully clean cache-hit + shadow-hit
  /// verification of an inline-eligible call at (pid, call_site). Counts
  /// the site's clean streak and promotes at the threshold (Healthy pids
  /// only).
  void note_clean_site(int pid, std::uint32_t call_site, InlineProbe probe);
  /// A verification of the pid ended in a violation verdict: every inline
  /// streak of the pid resets (promotion is re-earned from zero).
  void note_unclean(int pid);
  /// Completed full verification (neither fast path served it).
  void count_eager() { ++stats_.eager; }

  // ---- health: the per-pid demotion floor (os/health.h) ----
  /// Healthy when untracked.
  HealthState health(int pid) const;
  /// The pid's record, or nullptr when the table has no record of the pid.
  const HealthRecord* health_record(int pid) const;
  HealthRecord* health_record(int pid);
  /// The pid's record, created (Healthy) when absent.
  HealthRecord& track_health(Process& p) { return pid_record(p).health; }
  HealthStats& health_stats() { return health_stats_; }
  const HealthStats& health_stats() const { return health_stats_; }
  /// Clean eager verifications required to leave Quarantined (K; doubles on
  /// every re-entry, capped by the backoff cap). Also the Degraded->Healthy
  /// probation length.
  void set_health_promote_threshold(std::uint32_t k) { health_threshold_ = k == 0 ? 1 : k; }
  std::uint32_t health_promote_threshold() const { return health_threshold_; }
  void set_health_backoff_cap(std::uint32_t cap) { backoff_cap_ = cap == 0 ? 1 : cap; }
  std::uint32_t health_backoff_cap() const { return backoff_cap_; }

  // ---- pid- and table-wide invalidation ----
  /// Teardown/exec (vm::Machine calls it at process exit): demote and drop
  /// every site record of the pid, write its shadow back while its Memory is
  /// alive, and forget the pid. Idempotent.
  void end_process(int pid);
  /// Health demotion: drop every site record of the pid (HealthDemotion)
  /// and its shadow WITHOUT the normal write-back -- after an internal
  /// inconsistency the shadow's {last_block, counter} pair is exactly the
  /// state no longer trusted, so the guest record is re-materialized under
  /// the process's authoritative counter instead and the next trap's eager
  /// 3.1 check verifies a coherent record. The pid's health record stays.
  void evict_pid(int pid);
  /// Drop the pid's fast paths but keep its health record: every site
  /// record (an Inline one demoted for `cause`) and its shadow, written back
  /// when dirty. Idempotent.
  void flush_pid(int pid, DemotionCause cause);
  /// Key rotation, under the OLD key: drop every site record (KeyRotation)
  /// and write every shadow back under the key that shadowed it.
  void on_key_rotation();
  /// Monitor swap: the new monitor has authorized nothing, so every
  /// promotion is revoked.
  void on_monitor_swap() { demote_all(DemotionCause::MonitorSwap); }

  // ---- inspection ----
  std::size_t sites() const { return sites_.size(); }
  std::size_t sites(int pid) const;
  std::size_t inline_sites() const;
  /// The tier the lattice serves (pid, call_site) at right now: Inline for
  /// a promoted record, Shadowed for a record of a pid whose shadow is live,
  /// Cached for a record alone, Eager when no record serves.
  Tier tier(int pid, std::uint32_t call_site) const;
  /// Pids with a per-pid record (zero once every process has ended).
  std::size_t pids() const { return pids_.size(); }

  const TierStats& stats() const { return stats_; }
  /// Retained bytes (fleet capacity planning; counts the dynamic containers,
  /// not allocator overhead).
  std::size_t approx_bytes() const;

 private:
  using SiteKey = std::pair<int, std::uint32_t>;  // {pid, call_site}
  using SiteMap = std::map<SiteKey, SiteRecord>;

  struct PidRecord {
    explicit PidRecord(Process& p) : proc(p) {}
    Process& proc;
    std::optional<Shadow> shadow;
    HealthRecord health;
  };

  /// The pid's record, created on first use together with the process's
  /// ONE write-watch callback (the spine).
  PidRecord& pid_record(Process& p);
  /// The spine: a guest write of [addr, addr+len) is about to land in `pid`.
  void on_guest_write(int pid, std::uint32_t addr, std::uint32_t len);
  /// Inline -> Cached: the one counted demotion path. The record keeps its
  /// verified material; promotion is re-earned from zero.
  void demote(SiteRecord& r, DemotionCause cause);
  void demote_all(DemotionCause cause);
  /// Drop one record (demoting it first when Inline) and unwatch its ranges.
  SiteMap::iterator drop(SiteMap::iterator it, DemotionCause cause);
  void drop_sites(int pid, DemotionCause cause);
  /// Take the pid's shadow out and unwatch its range; nullopt when none.
  std::optional<Shadow> take_shadow(PidRecord& r);
  /// take_shadow, then write back when dirty.
  void drop_shadow(PidRecord& r);

  const std::optional<crypto::MacKey>& key_;
  const CostModel& cost_;
  std::size_t capacity_;
  bool cache_enabled_ = true;
  bool shadow_enabled_ = true;
  bool inline_enabled_ = false;
  std::uint32_t inline_threshold_ = 8;
  std::uint32_t health_threshold_ = 8;
  std::uint32_t backoff_cap_ = 1024;

  SiteMap sites_;
  std::map<int, PidRecord> pids_;
  /// Capacity-eviction tie-break cursor: victims rotate through the key
  /// space instead of always landing on the lowest (pid, site) key.
  SiteKey rr_cursor_{};
  TierStats stats_;
  HealthStats health_stats_;
};

/// Side-effect-light syscalls the inline tier may pre-authorize: dispatch
/// reads kernel state (or the virtual clock) and at most writes through an
/// argument pointer the full pipeline would not have constrained either.
/// Anything that mutates kernel bookkeeping (fds, memory map, filesystem,
/// signals, spawn) stays on the full pipeline forever.
bool inline_eligible(SysId id);

}  // namespace asc::os
