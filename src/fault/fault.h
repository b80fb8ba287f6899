// Deterministic fault injection against the ASC verification surface.
//
// The paper's security argument (§3.4) is fail-stop: any tampering with a
// rewritten call -- its MAC, policy descriptor, authenticated strings, or
// the lastBlock/lbMAC memory-checker state -- must be detected by the
// kernel, never silently accepted and never able to crash the monitor. A
// FaultInjector turns that claim into something testable: armed on a
// kernel's stage hook, it waits for the n-th system call trap and applies
// one seeded mutation from a fixed class to the trap state, exactly where a
// real attacker (or a corrupted .asdata page) would strike.
//
// Every class maps to an expected set of Violation verdicts; the lifecycle
// runner (lifecycle.h) runs mutations at scale and checks the invariant
// that each mutated run either behaves identically to a clean run or
// fail-stops with a verdict from that set.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "os/kernel.h"
#include "os/process.h"
#include "os/syscalls.h"
#include "os/trapcontext.h"

namespace asc::fault {

/// What part of the verification surface a mutation targets.
enum class MutationClass : std::uint8_t {
  CallMacFlip,         // bit-flip in the 16-byte call MAC
  DescriptorFlip,      // bit-flip in the policy-descriptor register (r6)
  AsHeaderCorrupt,     // bit-flip in an AS {len, MAC} header (argument or pred set)
  AsBodyCorrupt,       // bit-flip in authenticated-string content bytes
  PredSetCorrupt,      // bit-flip in the predecessor-set body
  PolicyStateCorrupt,  // bit-flip in the {lastBlock, lbMAC} record
  CrossReplay,         // replay policy state captured from another process
  RegisterSwap,        // corrupt a policy-operand register at trap time
  KeyMismatch,         // kernel key differs from the installer key
  CacheToctou,         // corrupt MAC/pred-set at a call site verified before
                       // (attacks the verified-call cache fast path)
  ShadowToctou,        // force write-back of a shadowed {lastBlock, lbMAC}
                       // record, then tamper with the materialized bytes or
                       // replay the stale pre-write-back record (attacks the
                       // policy-state shadow fast path)
  RotationDuringTrap,  // rotate the kernel key at a trap-stage boundary,
                       // mid-trap (lifecycle: every signed byte goes stale)
  TeardownMidVerify,   // fire TierTable::end_process at a trap-stage boundary
                       // while the pid's trap is in flight (lifecycle: must
                       // be benign -- teardown is idempotent and eager
                       // verification resumes coherently)
  DoubleInvalidation,  // flush the pid's shadow and site records TWICE
                       // back-to-back (lifecycle: double-free-shaped
                       // bookkeeping bug; must be benign)
  PromoToctou,         // tamper with the call bytes or the policy-state
                       // record of a (pid, site) ALREADY promoted to the
                       // trap-less Inline tier (attacks the tier lattice's
                       // promotion window: the write watch must demote the
                       // site before the tamper lands, so the next call
                       // re-enters the full pipeline and fail-stops)
  RekeyToctou,         // fire Kernel::rekey (a COHERENT new-key + re-signed
                       // view pair from the Rekeyer) at a trap-stage
                       // boundary (lifecycle: must be benign -- a mid-trap
                       // request defers to the next trap boundary, so no
                       // trap ever verifies under mixed old/new material;
                       // contrast RotationDuringTrap, whose new key arrives
                       // WITHOUT re-signed bytes and must fail-stop)
  kCount,
};

inline constexpr std::size_t kNumMutationClasses =
    static_cast<std::size_t>(MutationClass::kCount);

std::string mutation_class_name(MutationClass c);
/// Every class, in enum order: the default campaign and chaos pool.
std::vector<MutationClass> all_mutation_classes();
/// Inverse of mutation_class_name (nullopt for an unknown name).
std::optional<MutationClass> mutation_class_from_name(const std::string& name);

/// The Violation verdicts a detection of this class may legitimately yield.
const std::vector<os::Violation>& expected_violations(MutationClass c);

/// Lifecycle classes act on the KERNEL (key rotation, teardown, double
/// invalidation) instead of mutating guest-visible verification bytes.
bool lifecycle_class(MutationClass c);
/// Classes whose strike point may be any TrapStage boundary: the
/// memory-resident targets (their bytes stay addressable across the whole
/// trap) and the lifecycle classes. Register, TOCTOU, and environmental
/// classes are Trap-only -- their targets are only coherent at trap entry.
bool stage_targetable(MutationClass c);
/// Whether a spec of class `c` may strike at `s`. Trap-only classes accept
/// only Trap. AsBodyCorrupt additionally excludes Enforce: the simulator's
/// dispatch layer re-reads argument bytes from guest memory, so a flip
/// landing between inspect and dispatch is a single-trap double-fetch TOCTOU
/// outside the ASC threat model (the real kernel dispatches on the bytes it
/// verified) -- it would diverge behavior with no verdict by construction.
bool stage_allowed(MutationClass c, os::TrapStage s);
/// The strike points a FaultSpec may name: Trap..Audit. PreTrap is not
/// among them -- a Trap-stage spec already strikes there (see FaultSpec).
std::vector<os::TrapStage> all_trap_stages();
/// Inverse of os::trap_stage_name (nullopt for an unknown name).
std::optional<os::TrapStage> trap_stage_from_name(const std::string& name);

/// One fully determined mutation: the class, the first syscall trap at which
/// it becomes eligible (1-based, counted across all processes of a run), a
/// seed selecting the byte/bit/register within the class, and the trap-stage
/// boundary at which the strike lands. Trap means the pre-trap strike: guest
/// tamper lands at the PreTrap stage, before the kernel captures anything,
/// and lifecycle classes at the Trap boundary; later stages strike between
/// the pipeline's layers.
struct FaultSpec {
  MutationClass cls = MutationClass::CallMacFlip;
  int trigger_call = 1;
  std::uint64_t seed = 0;
  os::TrapStage stage = os::TrapStage::Trap;
};

/// Single-line reproducer: "<class>:<trigger>:0x<seed>:<stage>". Paste it
/// back through parse_spec (or `asctool campaign --spec`) to replay one run.
std::string spec_repr(const FaultSpec& spec);
std::optional<FaultSpec> parse_spec(const std::string& repr);

/// Applies one FaultSpec to the runs of one kernel. From trigger_call on,
/// the first trap where the class is applicable (e.g. AsBodyCorrupt needs an
/// authenticated-string argument) is mutated, once. The injector must
/// outlive every run of the armed kernel.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

  /// Install on_stage() as `kernel`'s stage hook (replacing any other).
  void arm(os::Kernel& kernel);
  /// The stage hook body, for callers that compose it with their own.
  /// `kernel` is the kernel whose trap is in flight.
  void on_stage(os::Kernel& kernel, os::Process& p, os::TrapContext& ctx, os::TrapStage stage);

  /// CrossReplay payload: a policy-state blob (kPolicyStateSize bytes)
  /// captured from another process's address space.
  void set_replay_state(std::vector<std::uint8_t> state) { replay_state_ = std::move(state); }

  /// RotationDuringTrap payload: the key the kernel rotates to mid-trap.
  /// The class is NotApplied until one is provided.
  void set_rotation_key(const crypto::Key128& key) { rotation_key_ = key; }

  /// RekeyToctou payload: a coherent live rekey of the process (new key and
  /// Rekeyer-re-signed view, spawn helpers swapped when it lands), returning
  /// whether it applied at once. The class is NotApplied until provided.
  void set_rekey(std::function<bool(os::Process&)> rekey) { rekey_ = std::move(rekey); }

  const FaultSpec& spec() const { return spec_; }
  bool applied() const { return applied_; }
  int applied_at_call() const { return applied_at_; }
  int calls_seen() const { return calls_seen_; }
  /// Human-readable description of the mutation actually performed.
  const std::string& description() const { return description_; }

 private:
  bool try_apply(os::Kernel& kernel, os::Process& p, std::uint32_t call_site,
                 std::uint16_t sysno);
  /// The lifecycle strikes (rotation / teardown / double invalidation /
  /// rekey); they act on the kernel rather than guest memory.
  bool apply_lifecycle(os::Kernel& kernel, os::Process& p, std::uint32_t call_site);

  FaultSpec spec_;
  std::vector<std::uint8_t> replay_state_;
  std::optional<crypto::Key128> rotation_key_;
  std::function<bool(os::Process&)> rekey_;
  bool applied_ = false;
  int applied_at_ = 0;
  int calls_seen_ = 0;
  // Traps seen per call site so far, *excluding* the current one. CacheToctou
  // only fires at a site the checker has already verified once -- the moment
  // a naive verified-call cache would skip re-verification.
  std::map<std::uint32_t, int> site_visits_;
  std::string description_;
};

}  // namespace asc::fault
