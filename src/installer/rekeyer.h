// The installer's one signer, and differential re-keying: O(MAC-surface)
// re-signing of an installed image.
//
// The only key-dependent bytes of an installed image are its MACs: call MACs
// over encoded policies, AS content MACs, and the policy-state seed MAC. The
// rewriter lays the image out with all of them zero and emits a SignManifest
// recording exactly where each one lives and what bytes it covers. sign()
// writes that surface under a key -- batched through Cmac::compute_batch and
// fanned out with util::Executor::parallel_for -- and it is the only code
// that computes an installed MAC: Installer::rewrite() signs through it, and
// Rekeyer::rekey() re-signs through it.
//
// Call-MAC messages are NOT stored key-dependent: an encoded policy embeds
// the content MACs of its AS arguments and of its predecessor-set blob, so
// the manifest stores each call message with those embedded MAC fields
// ZEROED plus a patch list {offset in message, AS body address}. Both the
// verify pass and sign() splice in the AS MACs the image holds at that
// moment: the old ones when verifying, the freshly written ones when
// signing. The manifest itself is thus strictly key-independent and
// reusable across any number of rotations.
//
// rekey() first verifies the ENTIRE old surface under the old key and throws
// on any mismatch -- re-signing a tampered image would launder the tamper
// into valid new-key MACs -- then calls sign() under the new key. The output
// is byte-identical to a fresh install under the new key: the differential
// test pins that the verify pass accepts every install and that the
// manifest names every key-dependent byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "binary/image.h"
#include "crypto/cmac.h"
#include "os/rekey.h"
#include "util/executor.h"

namespace asc::installer {

/// One authenticated string (or predecessor-set / pattern blob) the
/// installer signed: content at [body, body+len), MAC at body-16, length
/// field at body-20 (policy/authstring.h layout).
struct ManifestAsRecord {
  std::uint32_t body = 0;
  std::uint32_t len = 0;

  bool operator==(const ManifestAsRecord&) const = default;
};

/// One embedded-MAC splice point within a call-MAC message.
struct ManifestPatch {
  std::uint32_t msg_off = 0;  // offset of the 16-byte MAC field in `message`
  std::uint32_t as_body = 0;  // AS body address whose content MAC goes there

  bool operator==(const ManifestPatch&) const = default;
};

/// One call MAC: the 16-byte slot in .asdata and the encoded-policy message
/// it covers, with embedded AS MAC fields zeroed (see file comment).
struct ManifestCallRecord {
  std::uint32_t mac_slot = 0;
  std::vector<std::uint8_t> message;
  std::vector<ManifestPatch> patches;

  bool operator==(const ManifestCallRecord&) const = default;
};

/// Everything needed to sign an installed image under any key without
/// re-running any analysis. Emitted by the rewriter, consumed by sign() and
/// Rekeyer::rekey(). Key-independent by construction.
struct SignManifest {
  std::uint16_t program_id = 0;
  bool unique_block_ids = true;
  std::uint32_t state_addr = 0;   // policy-state record {u32 lastBlock, 16B MAC}
  std::uint32_t start_block = 0;  // composed id of the start pseudo-block
  std::vector<ManifestAsRecord> as_records;
  std::vector<ManifestCallRecord> calls;

  /// Total message bytes covered by the MAC surface (AS contents + call
  /// messages + the 12-byte policy-state message). This is the work a rekey
  /// costs, against the whole-image work a reinstall costs.
  std::uint64_t mac_surface_bytes() const;

  /// Number of MACs one signing pass recomputes.
  std::uint64_t mac_count() const { return as_records.size() + calls.size() + 1; }

  /// File form (asctool writes `<out>.manifest` next to installed images).
  std::vector<std::uint8_t> serialize() const;
  static SignManifest deserialize(std::span<const std::uint8_t> file);

  bool operator==(const SignManifest&) const = default;
};

struct RekeyResult {
  binary::Image image;  // re-signed copy, byte-identical to a fresh install
  os::RekeyView view;   // MAC-slot patches + state_addr for live kernel swap
};

/// Write every MAC of `image`'s signing surface under `key`: each AS MAC,
/// each call MAC (over its message with the just-written AS MACs spliced
/// in), and the policy-state seed MAC over {start_block, counter 0}. Throws
/// Error, before computing any MAC, if the manifest names bytes outside
/// .asdata, an AS whose length field disagrees, or a patch for an unknown
/// AS. Byte-identical output at any executor job count.
void sign(binary::Image& image, const SignManifest& manifest, const crypto::MacKey& key,
          util::Executor* executor = nullptr);

class Rekeyer {
 public:
  /// Re-sign `image` (installed under `old_key`) so it verifies under
  /// `new_key`. Verifies the whole old MAC surface first and throws Error on
  /// any mismatch (tampered input must not be laundered into fresh MACs).
  /// Deterministic: byte-identical output at any executor job count.
  static RekeyResult rekey(const binary::Image& image, const SignManifest& manifest,
                           const crypto::Key128& old_key, const crypto::Key128& new_key,
                           util::Executor* executor = nullptr);
};

}  // namespace asc::installer
