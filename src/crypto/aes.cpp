#include "crypto/aes.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/aesni.h"

namespace asc::crypto {

namespace {

std::atomic<Aes128::BackendPolicy>& policy_slot() {
  static std::atomic<Aes128::BackendPolicy> policy{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read once before threads start
    const char* env = std::getenv("ASC_AES");
    if (env != nullptr && std::strcmp(env, "scratch") == 0)
      return Aes128::BackendPolicy::ForceScratch;
    return Aes128::BackendPolicy::Auto;
  }()};
  return policy;
}

// Multiply in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct Tables {
  std::array<std::uint8_t, 256> sbox{};

  Tables() {
    // S-box via multiplicative inverse + affine transform (FIPS-197 §5.1.1).
    // Inverses are generated by walking the GF(2^8) multiplicative group with
    // generator 3 (and its inverse walk with 0xf6 = 3^-1-chain trick): we use
    // the classic log/alog construction.
    std::array<std::uint8_t, 256> alog{};
    std::array<std::uint8_t, 256> log{};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      alog[static_cast<std::size_t>(i)] = x;
      log[x] = static_cast<std::uint8_t>(i);
      x = static_cast<std::uint8_t>(x ^ gmul(x, 2));  // multiply by generator 3
    }
    for (int i = 0; i < 256; ++i) {
      std::uint8_t inv = 0;
      if (i != 0)
        inv = alog[static_cast<std::size_t>((255 - log[static_cast<std::size_t>(i)]) % 255)];
      // Affine transform: s = inv ^ rot(inv,1) ^ rot(inv,2) ^ rot(inv,3)
      //                     ^ rot(inv,4) ^ 0x63.
      std::uint8_t s = 0x63;
      std::uint8_t v = inv;
      for (int k = 0; k < 5; ++k) {
        s = static_cast<std::uint8_t>(s ^ v);
        v = static_cast<std::uint8_t>((v << 1) | (v >> 7));
      }
      sbox[static_cast<std::size_t>(i)] = s;
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint8_t sub(std::uint8_t b) { return tables().sbox[b]; }

void sub_bytes(Block& s) {
  for (auto& b : s) b = sub(b);
}

// State is column-major: s[4*c + r] is row r, column c (FIPS-197 layout with
// the block laid out byte-by-byte into columns).
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[static_cast<std::size_t>(4 * c + r)] = t[static_cast<std::size_t>(4 * ((c + r) % 4) + r)];
    }
  }
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[static_cast<std::size_t>(4 * c)];
    std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3));
    col[3] = static_cast<std::uint8_t>(gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2));
  }
}

}  // namespace

bool Aes128::aesni_supported() { return aesni::supported(); }

void Aes128::set_backend_policy(BackendPolicy policy) {
  policy_slot().store(policy, std::memory_order_relaxed);
}

Aes128::BackendPolicy Aes128::backend_policy() {
  return policy_slot().load(std::memory_order_relaxed);
}

Aes128::Aes128(const Key128& key) {
  backend_ = backend_policy() == BackendPolicy::Auto && aesni::supported() ? Backend::Aesni
                                                                           : Backend::Scratch;
  // Key expansion (FIPS-197 §5.2).
  for (int i = 0; i < 16; ++i)
    round_keys_[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  std::uint8_t rcon = 1;
  for (int i = 16; i < 176; i += 4) {
    std::uint8_t t0 = round_keys_[static_cast<std::size_t>(i - 4)];
    std::uint8_t t1 = round_keys_[static_cast<std::size_t>(i - 3)];
    std::uint8_t t2 = round_keys_[static_cast<std::size_t>(i - 2)];
    std::uint8_t t3 = round_keys_[static_cast<std::size_t>(i - 1)];
    if (i % 16 == 0) {
      // RotWord + SubWord + Rcon.
      std::uint8_t tmp = t0;
      t0 = static_cast<std::uint8_t>(sub(t1) ^ rcon);
      t1 = sub(t2);
      t2 = sub(t3);
      t3 = sub(tmp);
      rcon = gmul(rcon, 2);
    }
    round_keys_[static_cast<std::size_t>(i + 0)] =
        static_cast<std::uint8_t>(round_keys_[static_cast<std::size_t>(i - 16)] ^ t0);
    round_keys_[static_cast<std::size_t>(i + 1)] =
        static_cast<std::uint8_t>(round_keys_[static_cast<std::size_t>(i - 15)] ^ t1);
    round_keys_[static_cast<std::size_t>(i + 2)] =
        static_cast<std::uint8_t>(round_keys_[static_cast<std::size_t>(i - 14)] ^ t2);
    round_keys_[static_cast<std::size_t>(i + 3)] =
        static_cast<std::uint8_t>(round_keys_[static_cast<std::size_t>(i - 13)] ^ t3);
  }
}

void Aes128::encrypt_block(Block& block) const {
  if (backend_ == Backend::Aesni) {
    aesni::encrypt_block(round_keys_.data(), block.data());
    return;
  }
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      block[static_cast<std::size_t>(i)] ^= round_keys_[static_cast<std::size_t>(16 * round + i)];
    }
  };
  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes(block);
    shift_rows(block);
    mix_columns(block);
    add_round_key(round);
  }
  sub_bytes(block);
  shift_rows(block);
  add_round_key(10);
}

Block Aes128::encrypt(const Block& in) const {
  Block out = in;
  encrypt_block(out);
  return out;
}

void Aes128::encrypt4(Block& b0, Block& b1, Block& b2, Block& b3) const {
  if (backend_ == Backend::Aesni) {
    aesni::encrypt4(round_keys_.data(), b0.data(), b1.data(), b2.data(), b3.data());
    return;
  }
  encrypt_block(b0);
  encrypt_block(b1);
  encrypt_block(b2);
  encrypt_block(b3);
}

}  // namespace asc::crypto
