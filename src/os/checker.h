// Kernel-side verification of authenticated system calls (§3.4).
//
// On every trap in Asc mode the kernel receives the regular arguments
// (r0..r5) plus the five extra arguments the installer compiled in:
//
//   r6  polDes   -- policy descriptor
//   r7  blockID  -- composed basic-block id of this call
//   r8  predSet  -- pointer to the predecessor-set authenticated string body
//   r9  lbPtr    -- pointer to {u32 lastBlock, 16B lbMAC} in app memory
//   r10 callMAC  -- pointer to the 16-byte call MAC
//   r11 hintPtr  -- (only when the policy has pattern args) pointer to the
//                   application-computed match hint
//
// Checking performs, in order:
//   1. reconstruct the *encoded call* from the actual trap state and verify
//      callMAC against it,
//   2. verify the content MAC of every authenticated string argument (and of
//      the predecessor set),
//   3. verify and update the control-flow policy state
//      (lastBlock/lbMAC/counter -- the online memory checker),
//   4. (§5.3 extension) verify fd capability provenance,
//   5. (§5.1 extension) verify pattern matches using the supplied hints.
//
// Any failure yields a Violation; the kernel then terminates the process,
// logs the call, and alerts the administrator (fail-stop).
#pragma once

#include <cstdint>
#include <string>

#include "crypto/cmac.h"
#include "os/costmodel.h"
#include "os/process.h"
#include "os/syscalls.h"
#include "os/tiertable.h"

namespace asc::os {

struct CheckResult {
  Violation violation = Violation::None;
  std::string detail;
  std::uint64_t cycles = 0;  // modeled cost of the checking work
  bool cache_hit = false;    // static MACs served from the verified-call cache
  bool shadow_hit = false;   // policy state served by the kernel-resident shadow
};

/// The verification runs through the tier lattice (os/tiertable.h), which
/// decides per pid what may serve it: the site record (static-input AES-CMAC
/// verifications are skipped when the site's bytes are identical to a
/// previously verified trap) and the policy-state shadow (step 3's
/// verify-MAC/re-MAC pair over {lastBlock, lbMAC} is replaced by the
/// kernel-resident copy while the guest record stays unwritten; the slow
/// path installs the shadow after a full step-3.1 verification). A fully
/// clean cache-hit + shadow-hit verification of an inline-eligible call is
/// additionally reported to the lattice as promotion evidence for the
/// trap-less Inline tier. Steps 4 (capabilities) and 5 (patterns) always
/// run. `id` is the resolved identity of `sysno` (inline eligibility).
CheckResult check_authenticated_call(Process& p, std::uint32_t call_site, std::uint16_t sysno,
                                     SysId id, const SyscallSig& sig,
                                     const crypto::MacKey& key, const CostModel& cost,
                                     bool capability_checking, TierTable& tiers);

}  // namespace asc::os
