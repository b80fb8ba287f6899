// The binary rewriter: transform a relocatable image + generated policies
// into a non-relocatable AUTHENTICATED image (§3.3), laid out but not yet
// signed. It holds no key.
//
// Transformations:
//   * string constants used as constrained syscall arguments become
//     authenticated strings in the new .asdata section; the LEAs the site
//     scan traced each one to are retargeted at the AS body,
//   * every syscall site gains the five extra-argument setup instructions
//     (polDes, blockID, predSet, lbPtr, callMAC -- plus the hint pointer for
//     pattern policies),
//   * the per-program policy state is allocated with lastBlock = the
//     composed start block,
//   * predecessor sets and call-MAC messages are built over the FINAL layout
//     (call sites are final addresses),
//   * data-resident code pointers are retargeted at moved function entries.
//
// Every MAC field -- AS MACs, call MACs, the policy-state MAC, and the AS
// MACs embedded in call messages -- is left zero. The returned SignManifest
// names each one, and installer::sign (rekeyer.h) fills them in.
#pragma once

#include <string>
#include <vector>

#include "binary/image.h"
#include "installer/policygen.h"
#include "installer/rekeyer.h"

namespace asc::installer {

struct InstallResult {
  binary::Image image;
  /// Final policies: call_site filled, block ids composed.
  std::vector<policy::SyscallPolicy> policies;
  std::vector<std::string> warnings;
  analysis::InlineReport inline_report;
  /// Key-independent signing surface of `image`: installer::sign() writes
  /// its MACs, and Rekeyer::rekey() re-signs it under a different key
  /// without re-running analysis.
  SignManifest manifest;
};

/// Lay out `gp` with every MAC zero, under `options.program_id` (which must
/// be set) and `options.unique_block_ids`. `gp` is consumed (its IR is
/// mutated by instruction insertion). Throws Error on unfilled template
/// holes, or on a string policy for an argument the scan did not trace to
/// string LEAs.
InstallResult rewrite_with_policies(const binary::Image& input, GeneratedPolicies gp,
                                    const InstallOptions& options);

/// Name of the guest-side hint buffer symbol required by pattern policies.
inline constexpr const char* kHintBufferSymbol = "asc_hint_buf";

}  // namespace asc::installer
