// AES-CMAC (OMAC1) message authentication code, NIST SP 800-38B.
//
// The paper's prototype uses "AES-CBC-OMAC" (Iwata & Kurosawa's OMAC), which
// produces a 128-bit code; OMAC1 was standardized as CMAC. Every MAC in the
// ASC design -- call MACs, authenticated-string MACs, and the policy-state
// MAC over {lastBlock, counter} -- is an AES-CMAC under the single
// installer/kernel key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/aes.h"

namespace asc::crypto {

/// A 128-bit message authentication code.
using Mac = Block;

/// CMAC engine bound to a key. The constructor derives the AES round keys
/// and the two CMAC subkeys K1/K2 once; the engine owns them and shares them
/// with no other engine, so two engines never touch common state. Moving an
/// engine moves its schedule; copying is not possible.
///
/// Thread safety: compute() and compute_batch() only read the schedule, so
/// concurrent calls on one engine are safe; the parallel signing phases of
/// the installer and rekeyer rely on this.
class Cmac {
 public:
  explicit Cmac(const Key128& key);

  /// MAC over an arbitrary-length message (including the empty message).
  Mac compute(std::span<const std::uint8_t> message) const;

  /// MACs over several independent messages, processed in lockstep groups
  /// of four CBC chains through Aes128::encrypt4 -- under the AES-NI
  /// backend the four aesenc dependency chains overlap, which is where the
  /// checker's multi-MAC trap verification gets its throughput. Results
  /// are byte-identical to calling compute() per message on any backend.
  std::vector<Mac> compute_batch(std::span<const std::span<const std::uint8_t>> messages) const;

  /// Constant-time-ish comparison (not strictly required in a simulation,
  /// but cheap to do right).
  static bool equal(const Mac& a, const Mac& b);

  /// Bytes an engine keeps on the heap: its key schedule.
  static constexpr std::size_t heap_bytes() { return sizeof(Schedule); }

 private:
  /// AES round keys plus the CMAC subkeys K1/K2. Held through a pointer so
  /// an engine (and every TenantState holding one) stays one word wide.
  struct Schedule {
    explicit Schedule(const Key128& key);
    Aes128 aes;
    Block k1{};
    Block k2{};
  };
  std::unique_ptr<const Schedule> sched_;
};

/// The key shared by the trusted installer and the (simulated) kernel.
/// Wrapping it in a distinct type keeps raw key bytes from leaking through
/// interfaces that should only see MAC capability.
class MacKey {
 public:
  explicit MacKey(const Key128& key) : cmac_(key) {}

  Mac mac(std::span<const std::uint8_t> message) const { return cmac_.compute(message); }
  bool verify(std::span<const std::uint8_t> message, const Mac& expected) const {
    return Cmac::equal(cmac_.compute(message), expected);
  }
  /// MAC several independent messages through the batched CMAC core (4-lane
  /// AES-NI lockstep); macs[i] covers messages[i]. Byte-identical to mac()
  /// per message on any backend.
  std::vector<Mac> mac_batch(std::span<const std::span<const std::uint8_t>> messages) const {
    return cmac_.compute_batch(messages);
  }
  /// Verify several {message, expected} pairs through the batched CMAC
  /// core; ok[i] is the verdict for pair i. Equivalent to verify() per
  /// pair -- callers that must preserve a fail-fast order walk the results
  /// in their own order (extra MACs computed on a failing batch are wasted
  /// wall-clock on a path that terminates the process anyway).
  std::vector<bool> verify_batch(std::span<const std::span<const std::uint8_t>> messages,
                                 std::span<const Mac> expected) const {
    const std::vector<Mac> macs = cmac_.compute_batch(messages);
    std::vector<bool> ok(macs.size());
    for (std::size_t i = 0; i < macs.size(); ++i) ok[i] = Cmac::equal(macs[i], expected[i]);
    return ok;
  }
  /// Bytes a key keeps on the heap (its CMAC engine's schedule).
  static constexpr std::size_t heap_bytes() { return Cmac::heap_bytes(); }

 private:
  Cmac cmac_;
};

}  // namespace asc::crypto
