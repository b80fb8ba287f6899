// System call policies and the encoded-policy byte string (§3.3).
//
// A SyscallPolicy is the logical, human-readable policy the installer derives
// for one call site ("Permit open from location 0x806c462, parameter 0 equals
// /dev/console, ..."). The encoded policy is its self-contained byte-string
// representation; the call MAC is an AES-CMAC over it. The kernel-side
// checker reconstructs the *encoded call* -- the same byte layout, but filled
// from the actual trap arguments -- so a MAC match proves the call complies
// with the policy (§3.4).
//
// Both sides MUST agree on the layout, so the single serializer below
// (encode_policy into a fixed EncodedPolicy buffer; its vector form wraps
// it) is the only place it is defined:
//
//   u16 sysno
//   u32 policy descriptor
//   u32 call site                      (if descriptor bit SITE)
//   u32 block id                       (always)
//   for each argument i < arity, ascending:
//     if AS bit:             u32 addr, u32 len, 16B content MAC
//     else if const bit:     u32 value
//     (pattern args contribute nothing here; see below)
//   if CONTROL_FLOW bit:     u32 predSetAddr, u32 predSetLen, 16B predSetMAC,
//                            u32 lbPtr
//
// The predecessor-set blob (an authenticated string in .asdata) contains:
//   u32 npred, npred x u32 predecessor block ids,
//   u32 ncap,  ncap  x u32 allowed fd-origin block ids (capability, §5.3),
//   u32 npat,  npat  x {u32 arg index, u32 pattern AS body address} (§5.1)
// Pattern references ride inside this MAC-protected blob, so no extra trap
// register is needed to bind a pattern to its call; the runtime match hint
// (untrusted by design) is passed in r11.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cmac.h"
#include "os/syscalls.h"
#include "policy/descriptor.h"

namespace asc::policy {

/// Local block id 0 is reserved for the "program start" pseudo-block: it is
/// the value of lastBlock before the first system call executes.
inline constexpr std::uint32_t kStartBlockLocal = 0;

/// Compose a machine-wide-unique block id (§5.5 Frankenstein defence). With
/// `unique_ids` off, the local id is used alone -- which the Frankenstein
/// attack test exploits.
std::uint32_t make_block_id(std::uint16_t program_id, std::uint32_t local_id, bool unique_ids);

/// Per-argument logical policy.
struct ArgPolicy {
  enum class Kind : std::uint8_t {
    Unconstrained,  // analysis result: Unknown
    Const,          // fixed numeric value
    String,         // fixed string constant -> authenticated string
    Pattern,        // must match a glob pattern (§5.1 extension)
    MultiValue,     // small set of possible constants (§5 extension; counted
                    // in Table 3's `mv` column, enforced when enabled)
  };
  Kind kind = Kind::Unconstrained;
  std::uint32_t value = 0;               // Const
  std::string str;                       // String content or Pattern text
  std::vector<std::uint32_t> values;     // MultiValue
};

/// The logical policy for one system call site.
struct SyscallPolicy {
  os::SysId sys = os::SysId::Exit;
  std::uint16_t sysno = 0;
  std::uint32_t call_site = 0;  // address of the SYSCALL instruction
  std::uint32_t block_id = 0;   // composed block id of the containing block
  int arity = 0;
  std::array<ArgPolicy, os::kMaxSyscallArgs> args{};
  bool control_flow = true;
  std::vector<std::uint32_t> predecessors;  // composed block ids (may include start)
  std::vector<std::uint32_t> fd_sources;    // capability policy for the fd arg; empty = off

  /// Build the policy descriptor implied by the argument kinds.
  Descriptor descriptor() const;

  /// Paper-style pretty form.
  std::string to_string() const;
};

/// An {address, length, MAC} tuple describing an authenticated string as it
/// appears in the encoded policy / encoded call.
struct AsRef {
  std::uint32_t addr = 0;
  std::uint32_t len = 0;
  crypto::Mac mac{};
};

/// Everything that goes into the encoded byte string. The installer fills it
/// from the policy + final layout; the kernel fills it from the trap.
struct EncodedPolicyInputs {
  std::uint16_t sysno = 0;
  Descriptor descriptor;
  std::uint32_t call_site = 0;
  std::uint32_t block_id = 0;
  int arity = 0;
  std::array<std::uint32_t, os::kMaxSyscallArgs> const_values{};
  std::array<AsRef, os::kMaxSyscallArgs> as_args{};  // AS or pattern args
  AsRef pred_set;
  std::uint32_t lb_ptr = 0;
};

/// Upper bound of the encoded policy / encoded call: sysno, descriptor, call
/// site and block id, five authenticated-string arguments (24 B each), then
/// the control-flow fields. The longest descriptor -- site, control flow and
/// every argument an authenticated string -- encodes to exactly this many
/// bytes; no descriptor and arity encodes to more.
inline constexpr std::size_t kMaxEncodedPolicy =
    2 + 4 + 4 + 4 + os::kMaxSyscallArgs * 24 + (4 + 4 + 16 + 4);

/// A fixed buffer that holds any encoded policy / encoded call.
using EncodedPolicy = std::array<std::uint8_t, kMaxEncodedPolicy>;

/// The single serializer: write the encoded policy / encoded call for `in`
/// into `out` and return its length. The kernel encodes every trap through
/// this overload, so the hit path allocates nothing. Throws Error when
/// `in.arity` is negative or exceeds kMaxSyscallArgs.
std::size_t encode_policy(const EncodedPolicyInputs& in, EncodedPolicy& out);

/// The same bytes as a vector (the installer's signing manifest keeps them).
std::vector<std::uint8_t> encode_policy(const EncodedPolicyInputs& in);

/// Byte offsets, within encode_policy's output for `in`, of every embedded
/// authenticated-string MAC: one per AS/pattern argument in ascending
/// argument order, then the predecessor-set MAC if control flow is
/// constrained. Only descriptor bits and arity are consulted. The rekeyer
/// uses these to splice key-dependent MAC fields into otherwise
/// key-independent call-MAC messages; the layout mirrors encode_policy,
/// which remains the single serializer.
std::vector<std::size_t> embedded_mac_offsets(const EncodedPolicyInputs& in);

/// A pattern reference inside the predecessor-set blob.
struct PatternRef {
  std::uint32_t arg_index = 0;
  std::uint32_t pattern_addr = 0;  // AS body address of the pattern text

  bool operator==(const PatternRef&) const = default;
};

/// Serialize the predecessor-set blob content (before AS wrapping).
std::vector<std::uint8_t> encode_pred_set(const std::vector<std::uint32_t>& predecessors,
                                          const std::vector<std::uint32_t>& fd_sources,
                                          const std::vector<PatternRef>& patterns = {});

/// Parse a predecessor-set blob; returns false on malformed content.
bool decode_pred_set(std::span<const std::uint8_t> blob, std::vector<std::uint32_t>& predecessors,
                     std::vector<std::uint32_t>& fd_sources, std::vector<PatternRef>& patterns);

/// Size of the policy-state message: u32 lastBlock + u64 counter.
inline constexpr std::size_t kPolicyStateMessageSize = 12;

/// The policy-state record the kernel MACs: lastBlock then the per-process
/// counter nonce (§3.2's online memory checker). Returned by value, so the
/// per-trap verify and re-MAC allocate nothing.
std::array<std::uint8_t, kPolicyStateMessageSize> encode_policy_state(std::uint32_t last_block,
                                                                      std::uint64_t counter);

/// Size of the in-application policy state record: u32 lastBlock + 16B MAC.
inline constexpr std::uint32_t kPolicyStateSize = 20;

}  // namespace asc::policy
