#include "policy/capability.h"

#include <vector>

#include "util/error.h"
#include "util/hex.h"

namespace asc::policy {

std::size_t AuthenticatedFdSet::blob_size(std::size_t capacity) {
  return 4 + 4 * capacity + 16;
}

crypto::Mac AuthenticatedFdSet::mac_of(std::span<const std::uint8_t> blob, std::size_t capacity,
                                       const crypto::MacKey& key, std::uint64_t counter) {
  std::vector<std::uint8_t> msg(blob.begin(),
                                blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity));
  util::put_u64(msg, counter);
  return key.mac(msg);
}

void AuthenticatedFdSet::init(std::span<std::uint8_t> blob, std::size_t capacity,
                              const crypto::MacKey& key, std::uint64_t counter) {
  if (blob.size() < blob_size(capacity)) throw Error("AuthenticatedFdSet: blob too small");
  util::set_u32(blob, 0, 0);
  for (std::size_t i = 0; i < capacity; ++i) util::set_u32(blob, 4 + 4 * i, kEmptyFdSlot);
  const crypto::Mac m = mac_of(blob, capacity, key, counter);
  std::copy(m.begin(), m.end(), blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity));
}

bool AuthenticatedFdSet::verify(std::span<const std::uint8_t> blob, std::size_t capacity,
                                const crypto::MacKey& key, std::uint64_t counter) {
  if (blob.size() < blob_size(capacity)) return false;
  const crypto::Mac expect = mac_of(blob, capacity, key, counter);
  crypto::Mac stored{};
  std::copy(blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity),
            blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity + 16), stored.begin());
  return crypto::Cmac::equal(expect, stored);
}

std::optional<bool> AuthenticatedFdSet::contains(std::span<const std::uint8_t> blob,
                                                 std::size_t capacity, const crypto::MacKey& key,
                                                 std::uint64_t counter, std::uint32_t fd) {
  if (!verify(blob, capacity, key, counter)) return std::nullopt;
  for (std::size_t i = 0; i < capacity; ++i) {
    if (util::get_u32(blob, 4 + 4 * i) == fd) return true;
  }
  return false;
}

bool AuthenticatedFdSet::insert(std::span<std::uint8_t> blob, std::size_t capacity,
                                const crypto::MacKey& key, std::uint64_t& counter,
                                std::uint32_t fd) {
  if (fd == kEmptyFdSlot) return false;
  if (!verify(blob, capacity, key, counter)) return false;
  for (std::size_t i = 0; i < capacity; ++i) {
    if (util::get_u32(blob, 4 + 4 * i) == fd) return true;  // already present
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    if (util::get_u32(blob, 4 + 4 * i) == kEmptyFdSlot) {
      util::set_u32(blob, 4 + 4 * i, fd);
      util::set_u32(blob, 0, util::get_u32(blob, 0) + 1);
      ++counter;
      const crypto::Mac m = mac_of(blob, capacity, key, counter);
      std::copy(m.begin(), m.end(),
                blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity));
      return true;
    }
  }
  return false;  // full
}

bool AuthenticatedFdSet::remove(std::span<std::uint8_t> blob, std::size_t capacity,
                                const crypto::MacKey& key, std::uint64_t& counter,
                                std::uint32_t fd) {
  if (!verify(blob, capacity, key, counter)) return false;
  for (std::size_t i = 0; i < capacity; ++i) {
    if (util::get_u32(blob, 4 + 4 * i) == fd) {
      util::set_u32(blob, 4 + 4 * i, kEmptyFdSlot);
      util::set_u32(blob, 0, util::get_u32(blob, 0) - 1);
      ++counter;
      const crypto::Mac m = mac_of(blob, capacity, key, counter);
      std::copy(m.begin(), m.end(),
                blob.begin() + static_cast<std::ptrdiff_t>(4 + 4 * capacity));
      return true;
    }
  }
  return false;
}

}  // namespace asc::policy
