// Deterministic fault injection against the ASC verification surface.
//
// The paper's security argument (§3.4) is fail-stop: any tampering with a
// rewritten call -- its MAC, policy descriptor, authenticated strings, or
// the lastBlock/lbMAC memory-checker state -- must be detected by the
// kernel, never silently accepted and never able to crash the monitor. A
// FaultInjector turns that claim into something testable: armed on a
// kernel's stage hook, it waits for the n-th system call trap and applies
// one seeded strike to the trap state, exactly where a real attacker (or a
// corrupted .asdata page) would strike.
//
// A FaultSpec is one point of three independent axes:
//
//   strike  what happens: one of eight guest-tamper targets (bytes or
//           registers of the verification surface) or one of four
//           lifecycle events acting on the kernel;
//   tier    where the tier lattice stands: the strike lands only at a trap
//           whose (pid, call site) the lattice serves at that tier or
//           faster (Eager, the default, gates nothing);
//   stage   the trap-stage boundary the strike lands at.
//
// Every strike maps to an expected set of Violation verdicts, whatever the
// tier: a fast path may change cycles, never the verdict. The lifecycle
// runner (lifecycle.h) runs strikes at scale and checks the invariant that
// each struck run either behaves identically to a clean run or fail-stops
// with a verdict from that set.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "os/kernel.h"
#include "os/process.h"
#include "os/syscalls.h"
#include "os/tiertable.h"
#include "os/trapcontext.h"

namespace asc::fault {

/// What a fault does: a guest-tamper target or a lifecycle event.
enum class Strike : std::uint8_t {
  // ---- guest tamper: the verification surface's bytes and registers ----
  CallMacFlip,         // bit-flip in the 16-byte call MAC
  DescriptorFlip,      // bit-flip in the policy-descriptor register (r6)
  AsHeaderCorrupt,     // bit-flip in an AS {len, MAC} header (argument or pred set)
  AsBodyCorrupt,       // bit-flip in authenticated-string content bytes
  PredSetCorrupt,      // bit-flip in the predecessor-set body
  PolicyStateCorrupt,  // bit-flip in the {lastBlock, lbMAC} record
  CrossReplay,         // replay an authentic policy-state record carrying a
                       // stale nonce, captured from another address space
  RegisterSwap,        // corrupt a policy-operand register at trap time
  // ---- lifecycle events: act on the kernel, not on guest bytes ----
  RotationDuringTrap,  // rotate the kernel key WITHOUT re-signed bytes: every
                       // signed byte of the guest goes stale at once
  TeardownMidVerify,   // TierTable::end_process while the pid's trap is in
                       // flight (teardown is idempotent: must be benign)
  DoubleInvalidation,  // flush the pid's shadow and site records twice back to
                       // back (double-free-shaped bookkeeping: must be benign)
  RekeyToctou,         // a COHERENT Kernel::rekey (new key + Rekeyer-re-signed
                       // view): a mid-trap request defers to the next trap
                       // boundary, so no trap verifies under mixed material
                       // and the strike must be benign
  kCount,
};

inline constexpr std::size_t kNumStrikes = static_cast<std::size_t>(Strike::kCount);

std::string strike_name(Strike s);

/// The Violation verdicts a detection of this strike may legitimately yield.
const std::vector<os::Violation>& expected_violations(Strike s);
/// Whether `s` may strike at stage `st`. Memory-resident targets and the
/// lifecycle events may strike at any boundary (a memory target stays
/// addressable across the trap, so a post-Enforce strike poisons the NEXT
/// verification). The register targets are Trap-only: they are coherent at
/// trap entry alone. AsBodyCorrupt additionally excludes Enforce: the
/// simulator's dispatch layer re-reads argument bytes from guest memory, so
/// a flip landing between inspect and dispatch is a single-trap
/// double-fetch TOCTOU outside the ASC threat model (the real kernel
/// dispatches on the bytes it verified) -- it would diverge behavior with no
/// verdict by construction.
bool stage_allowed(Strike s, os::TrapStage st);
/// The strike points a FaultSpec may name: Trap..Audit. PreTrap is not
/// among them -- a Trap-stage tamper already strikes there (see FaultSpec).
std::vector<os::TrapStage> all_trap_stages();
/// Inverse of os::trap_stage_name (nullopt for an unknown name).
std::optional<os::TrapStage> trap_stage_from_name(std::string_view name);

/// A strike at a tier: the unit campaigns and chaos plans draw specs for.
struct FaultPoint {
  Strike strike = Strike::CallMacFlip;
  os::Tier tier = os::Tier::Eager;
  auto operator<=>(const FaultPoint&) const = default;
};

/// "<strike>" at Eager, "<strike>@<tier>" otherwise.
std::string point_name(FaultPoint p);
/// Inverse of point_name (nullopt for an unknown strike or tier, and for
/// an explicit "@eager", which point_name never prints).
std::optional<FaultPoint> point_from_name(std::string_view name);
/// The default campaign and chaos pool: every strike at Eager, then the
/// fast-path windows -- the call MAC and pred set of a Cached site, the
/// state record of a Shadowed site (tampered and replayed), and the call
/// MAC and state record of an Inline site.
std::vector<FaultPoint> default_points();
/// Every (strike, tier) point, strike-major: the bounded enumeration.
std::vector<FaultPoint> all_points();

/// One fully determined fault: the point, the first syscall trap at which
/// it becomes eligible (1-based, counted across all processes of a run), a
/// seed selecting the byte/bit/register within the target, and the
/// trap-stage boundary at which the strike lands. Trap means the pre-trap
/// strike: a guest tamper lands at the PreTrap stage, before the kernel
/// captures anything, and a lifecycle event at the Trap boundary; later
/// stages strike between the pipeline's layers. A spec tampers or fires an
/// event, never both.
struct FaultSpec {
  FaultPoint point;
  int trigger_call = 1;
  std::uint64_t seed = 0;
  os::TrapStage stage = os::TrapStage::Trap;
};

/// Single-line reproducer: "<point>:<trigger>:0x<seed>:<stage>". Paste it
/// back through parse_spec (or `asctool campaign --spec`) to replay one run.
std::string spec_repr(const FaultSpec& spec);
/// Accepts exactly what spec_repr prints, plus the three-part form whose
/// stage defaults to trap: a known point, a decimal trigger >= 1 with no
/// sign, padding or leading zero, "0x" and lowercase hex digits with no
/// leading zero, and a stage the strike allows. nullopt for anything else.
std::optional<FaultSpec> parse_spec(const std::string& repr);

/// Applies one FaultSpec to the runs of one kernel. From trigger_call on,
/// the first trap where the strike is applicable (e.g. AsBodyCorrupt needs
/// an authenticated-string argument) and the tier gate is open is struck,
/// once. The injector must outlive every run of the armed kernel.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

  /// Install on_stage() as `kernel`'s stage hook (replacing any other).
  void arm(os::Kernel& kernel);
  /// The stage hook body, for callers that compose it with their own.
  /// `kernel` is the kernel whose trap is in flight.
  void on_stage(os::Kernel& kernel, os::Process& p, os::TrapContext& ctx, os::TrapStage stage);

  /// CrossReplay payload: policy-state records (kPolicyStateSize bytes each)
  /// captured from another address space, keyed by the trap they were
  /// captured at. The strike replays the `pick`-th of those NOT captured at
  /// the trap it lands on, so the replayed nonce is stale.
  void set_replay_donors(std::map<int, std::vector<std::uint8_t>> donors, std::uint64_t pick) {
    donors_ = std::move(donors);
    donor_pick_ = pick;
  }

  /// RotationDuringTrap payload: the key the kernel rotates to mid-trap.
  /// The strike is NotApplied until one is provided.
  void set_rotation_key(const crypto::Key128& key) { rotation_key_ = key; }

  /// RekeyToctou payload: a coherent live rekey of the process (new key and
  /// Rekeyer-re-signed view, spawn helpers swapped when it lands), returning
  /// whether it applied at once. The strike is NotApplied until provided.
  void set_rekey(std::function<bool(os::Process&)> rekey) { rekey_ = std::move(rekey); }

  const FaultSpec& spec() const { return spec_; }
  bool applied() const { return applied_; }
  /// Human-readable description of the strike actually performed.
  const std::string& description() const { return description_; }

 private:
  /// The guest-tamper targets, each written once.
  bool tamper(os::Kernel& kernel, os::Process& p, std::uint32_t call_site, std::uint16_t sysno);
  /// The lifecycle events.
  bool fire(os::Kernel& kernel, os::Process& p, std::uint32_t call_site);

  FaultSpec spec_;
  std::map<int, std::vector<std::uint8_t>> donors_;
  std::uint64_t donor_pick_ = 0;
  std::optional<crypto::Key128> rotation_key_;
  std::function<bool(os::Process&)> rekey_;
  bool applied_ = false;
  int calls_seen_ = 0;
  std::string description_;
};

}  // namespace asc::fault
