#include "crypto/cmac.h"

#include <algorithm>
#include <array>

namespace asc::crypto {

namespace {

// Left-shift a 128-bit value by one bit (big-endian byte order, as SP 800-38B
// treats blocks).
Block shift_left(const Block& in) {
  Block out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>((b << 1) | carry);
    carry = static_cast<std::uint8_t>(b >> 7);
  }
  return out;
}

Block derive_subkey(const Block& in) {
  Block out = shift_left(in);
  if (in[0] & 0x80) out[15] ^= 0x87;  // Rb for 128-bit blocks
  return out;
}

void xor_into(Block& dst, const Block& src) {
  for (int i = 0; i < 16; ++i) dst[static_cast<std::size_t>(i)] ^= src[static_cast<std::size_t>(i)];
}

}  // namespace

Cmac::Schedule::Schedule(const Key128& key) : aes(key) {
  Block l{};
  aes.encrypt_block(l);
  k1 = derive_subkey(l);
  k2 = derive_subkey(k1);
}

Cmac::Cmac(const Key128& key) : sched_(std::make_unique<const Schedule>(key)) {}

Mac Cmac::compute(std::span<const std::uint8_t> message) const {
  const Schedule& s = *sched_;
  const std::size_t n = message.size();
  // Number of blocks; the empty message is treated as one (padded) block.
  const std::size_t nblocks = n == 0 ? 1 : (n + 15) / 16;
  const bool last_complete = n != 0 && n % 16 == 0;

  Block x{};  // running CBC value, starts at zero
  for (std::size_t i = 0; i + 1 < nblocks; ++i) {
    Block m{};
    for (std::size_t j = 0; j < 16; ++j) m[j] = message[16 * i + j];
    xor_into(x, m);
    s.aes.encrypt_block(x);
  }

  Block last{};
  if (last_complete) {
    for (std::size_t j = 0; j < 16; ++j) last[j] = message[16 * (nblocks - 1) + j];
    xor_into(last, s.k1);
  } else {
    const std::size_t rem = n - 16 * (nblocks - 1);
    for (std::size_t j = 0; j < rem; ++j) last[j] = message[16 * (nblocks - 1) + j];
    last[rem] = 0x80;
    xor_into(last, s.k2);
  }
  xor_into(x, last);
  s.aes.encrypt_block(x);
  return x;
}

std::vector<Mac> Cmac::compute_batch(
    std::span<const std::span<const std::uint8_t>> messages) const {
  const Schedule& s = *sched_;
  const std::size_t count = messages.size();
  std::vector<Mac> out(count);

  // Per-lane shape, derived exactly as compute() does: block count (empty
  // message = one padded block) and the prepared final block (complete
  // last block XOR K1, or 0x80-padded partial XOR K2).
  struct Lane {
    std::span<const std::uint8_t> msg;
    std::size_t nblocks = 0;
    Block last{};
    Block x{};  // running CBC value
    std::size_t out_index = 0;
  };

  std::array<Lane, 4> lanes;
  for (std::size_t base = 0; base < count; base += 4) {
    const std::size_t group = std::min<std::size_t>(4, count - base);
    std::size_t rounds = 0;
    for (std::size_t l = 0; l < group; ++l) {
      Lane& lane = lanes[l];
      lane.msg = messages[base + l];
      lane.out_index = base + l;
      const std::size_t n = lane.msg.size();
      lane.nblocks = n == 0 ? 1 : (n + 15) / 16;
      lane.x = Block{};
      lane.last = Block{};
      if (n != 0 && n % 16 == 0) {
        for (std::size_t j = 0; j < 16; ++j) lane.last[j] = lane.msg[16 * (lane.nblocks - 1) + j];
        xor_into(lane.last, s.k1);
      } else {
        const std::size_t rem = n - 16 * (lane.nblocks - 1);
        for (std::size_t j = 0; j < rem; ++j) lane.last[j] = lane.msg[16 * (lane.nblocks - 1) + j];
        lane.last[rem] = 0x80;
        xor_into(lane.last, s.k2);
      }
      rounds = std::max(rounds, lane.nblocks);
    }

    // Lockstep CBC: each round XORs the next message block into every lane
    // still running, then encrypts all four lanes through one interleaved
    // encrypt4 (finished/absent lanes carry a dummy). Per lane this is the
    // exact chain compute() performs, so results are byte-identical.
    Block dummy{};
    for (std::size_t r = 0; r < rounds; ++r) {
      std::array<Block*, 4> slot{&dummy, &dummy, &dummy, &dummy};
      for (std::size_t l = 0; l < group; ++l) {
        Lane& lane = lanes[l];
        if (r >= lane.nblocks) continue;
        if (r + 1 == lane.nblocks) {
          xor_into(lane.x, lane.last);
        } else {
          Block m{};
          for (std::size_t j = 0; j < 16; ++j) m[j] = lane.msg[16 * r + j];
          xor_into(lane.x, m);
        }
        slot[l] = &lane.x;
      }
      s.aes.encrypt4(*slot[0], *slot[1], *slot[2], *slot[3]);
    }
    for (std::size_t l = 0; l < group; ++l) out[lanes[l].out_index] = lanes[l].x;
  }
  return out;
}

bool Cmac::equal(const Mac& a, const Mac& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < 16; ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace asc::crypto
