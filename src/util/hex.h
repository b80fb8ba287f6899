// Hex encoding helpers and little-endian byte (de)serialization.
//
// Every multi-byte integer that crosses the application/kernel boundary in
// the ASC design (encoded policies, authenticated-string headers, policy
// state) is serialized little-endian, matching the IA-32 convention of the
// original prototype.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace asc::util {

/// Lowercase hex string for a byte range ("deadbeef").
std::string to_hex(std::span<const std::uint8_t> bytes);

/// The FNV-1a-64 offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a-64 of a byte string, continuing from the running digest `h`
/// (digests of a sequence chain: h = fnv1a(next, h)).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h = kFnv1aBasis);
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnv1aBasis);

/// Parse a hex string (no separators) into bytes. Throws asc::Error on
/// malformed input (odd length, non-hex character).
std::vector<std::uint8_t> from_hex(const std::string& hex);

/// Append `value` to `out` little-endian.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Read little-endian values from a buffer at `offset`. The caller must
/// ensure the read is in bounds; these helpers throw asc::Error otherwise.
std::uint16_t get_u16(std::span<const std::uint8_t> buf, std::size_t offset);
std::uint32_t get_u32(std::span<const std::uint8_t> buf, std::size_t offset);
std::uint64_t get_u64(std::span<const std::uint8_t> buf, std::size_t offset);

/// Write little-endian values in place.
void set_u32(std::span<std::uint8_t> buf, std::size_t offset, std::uint32_t value);

/// Append raw bytes.
void put_bytes(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes);

/// Convenience: bytes of a string (no NUL).
std::vector<std::uint8_t> bytes_of(const std::string& s);

}  // namespace asc::util
