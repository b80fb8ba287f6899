#include "util/hex.h"

#include "util/error.h"

namespace asc::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw Error("from_hex: invalid hex character");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, h);
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw Error("from_hex: odd-length input");
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) << 4 | hex_value(hex[i + 1])));
  }
  return out;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

namespace {
void check_bounds(std::size_t size, std::size_t offset, std::size_t need) {
  if (offset + need > size) throw Error("byte read out of bounds");
}
}  // namespace

std::uint16_t get_u16(std::span<const std::uint8_t> buf, std::size_t offset) {
  check_bounds(buf.size(), offset, 2);
  return static_cast<std::uint16_t>(buf[offset] | buf[offset + 1] << 8);
}

std::uint32_t get_u32(std::span<const std::uint8_t> buf, std::size_t offset) {
  check_bounds(buf.size(), offset, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | buf[offset + static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> buf, std::size_t offset) {
  check_bounds(buf.size(), offset, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | buf[offset + static_cast<std::size_t>(i)];
  return v;
}

void set_u32(std::span<std::uint8_t> buf, std::size_t offset, std::uint32_t value) {
  check_bounds(buf.size(), offset, 4);
  for (int i = 0; i < 4; ++i)
    buf[offset + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value >> (8 * i));
}

void put_bytes(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

}  // namespace asc::util
