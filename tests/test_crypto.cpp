// AES-128, AES-CMAC and FNV-1a against published test vectors, plus MAC
// properties the ASC design depends on.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "util/hex.h"
#include "util/rng.h"

namespace asc::crypto {
namespace {

Key128 key_of(const std::string& hex) {
  Key128 k{};
  auto v = util::from_hex(hex);
  std::copy(v.begin(), v.end(), k.begin());
  return k;
}

// util::fnv1a, the digest of the fleet audit, the campaign's substream tags
// and the installer golden: the published FNV-1a-64 vectors, and chaining.
TEST(Fnv1a, MatchesPublishedVectorsAndChains) {
  EXPECT_EQ(util::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(util::fnv1a(util::bytes_of("foobar")), util::fnv1a("foobar"));
  EXPECT_EQ(util::fnv1a("bar", util::fnv1a("foo")), util::fnv1a("foobar"));
}

TEST(Aes, Fips197AppendixB) {
  Aes128 aes(key_of("2b7e151628aed2a6abf7158809cf4f3c"));
  Block b{};
  auto pt = util::from_hex("3243f6a8885a308d313198a2e0370734");
  std::copy(pt.begin(), pt.end(), b.begin());
  aes.encrypt_block(b);
  EXPECT_EQ(util::to_hex(b), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes, Fips197AppendixCKeyZeroPattern) {
  // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
  Aes128 aes(key_of("000102030405060708090a0b0c0d0e0f"));
  Block b{};
  auto pt = util::from_hex("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), b.begin());
  aes.encrypt_block(b);
  EXPECT_EQ(util::to_hex(b), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

struct CmacVector {
  std::size_t len;
  const char* msg_hex;
  const char* mac_hex;
};

// NIST SP 800-38B Appendix D.1 (AES-128).
const CmacVector kVectors[] = {
    {0, "", "bb1d6929e95937287fa37d129b756746"},
    {16, "6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
    {40,
     "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
     "dfa66747de9ae63030ca32611497c827"},
    {64,
     "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc119"
     "1a0a52eff69f2445df4f9b17ad2b417be66c3710",
     "51f0bebf7e3b9d92fc49741779363cfe"},
};

// Named by content, not by the raw bytes (pointers) gtest would print.
void PrintTo(const CmacVector& v, std::ostream* os) {
  *os << v.len << "-byte message -> " << v.mac_hex;
}

class CmacVectors : public ::testing::TestWithParam<CmacVector> {};

TEST_P(CmacVectors, MatchesNist) {
  Cmac cmac(key_of("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto msg = util::from_hex(GetParam().msg_hex);
  ASSERT_EQ(msg.size(), GetParam().len);
  EXPECT_EQ(util::to_hex(cmac.compute(msg)), GetParam().mac_hex);
}

INSTANTIATE_TEST_SUITE_P(Nist, CmacVectors, ::testing::ValuesIn(kVectors));

TEST(Cmac, SingleBitFlipsChangeTheMac) {
  // The whole security argument rests on MAC sensitivity: flipping any bit
  // of a message must change the MAC. (Not a proof, but a strong smoke
  // check across positions and lengths.)
  Cmac cmac(key_of("000102030405060708090a0b0c0d0e0f"));
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto msg = rng.next_bytes(1 + rng.next_below(96));
    const Mac original = cmac.compute(msg);
    const std::size_t byte = rng.next_below(msg.size());
    const int bit = static_cast<int>(rng.next_below(8));
    msg[byte] ^= static_cast<std::uint8_t>(1 << bit);
    EXPECT_FALSE(Cmac::equal(original, cmac.compute(msg)));
  }
}

TEST(Cmac, LengthExtensionDoesNotPreserveMac) {
  Cmac cmac(key_of("000102030405060708090a0b0c0d0e0f"));
  const auto msg = util::bytes_of("authenticated system call");
  auto longer = msg;
  longer.push_back(0);
  EXPECT_FALSE(Cmac::equal(cmac.compute(msg), cmac.compute(longer)));
}

TEST(Cmac, DistinctKeysDistinctMacs) {
  Cmac a(key_of("000102030405060708090a0b0c0d0e0f"));
  Cmac b(key_of("000102030405060708090a0b0c0d0e10"));
  const auto msg = util::bytes_of("policy");
  EXPECT_FALSE(Cmac::equal(a.compute(msg), b.compute(msg)));
}

class BackendGuard {
 public:
  explicit BackendGuard(Aes128::BackendPolicy p) : saved_(Aes128::backend_policy()) {
    Aes128::set_backend_policy(p);
  }
  ~BackendGuard() { Aes128::set_backend_policy(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Aes128::BackendPolicy saved_;
};

// The scratch implementation is the reference oracle for the AES-NI
// backend: identical ciphertext for random keys and blocks, through both
// the single-block and the 4-wide interleaved entry points.
TEST(Aes, AesniMatchesScratchOracle) {
  if (!Aes128::aesni_supported()) GTEST_SKIP() << "host has no AES-NI";
  util::Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    Key128 key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
    BackendGuard force(Aes128::BackendPolicy::ForceScratch);
    Aes128 scratch(key);
    ASSERT_EQ(scratch.backend(), Aes128::Backend::Scratch);
    Aes128::set_backend_policy(Aes128::BackendPolicy::Auto);
    Aes128 hw(key);
    ASSERT_EQ(hw.backend(), Aes128::Backend::Aesni);

    std::array<Block, 4> blocks{};
    for (auto& blk : blocks) {
      for (auto& b : blk) b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    for (const auto& blk : blocks) EXPECT_EQ(scratch.encrypt(blk), hw.encrypt(blk));

    std::array<Block, 4> a = blocks;
    std::array<Block, 4> b = blocks;
    scratch.encrypt4(a[0], a[1], a[2], a[3]);
    hw.encrypt4(b[0], b[1], b[2], b[3]);
    EXPECT_EQ(a, b);
  }
}

// encrypt4 must equal four independent encrypt_block calls on EVERY
// backend (the batch CMAC path builds on this).
TEST(Aes, Encrypt4MatchesFourSingles) {
  util::Rng rng(11);
  Key128 key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
  Aes128 aes(key);
  for (int trial = 0; trial < 16; ++trial) {
    std::array<Block, 4> blocks{};
    for (auto& blk : blocks) {
      for (auto& b : blk) b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::array<Block, 4> batch = blocks;
    aes.encrypt4(batch[0], batch[1], batch[2], batch[3]);
    for (int i = 0; i < 4; ++i) {
      Block single = blocks[static_cast<std::size_t>(i)];
      aes.encrypt_block(single);
      EXPECT_EQ(batch[static_cast<std::size_t>(i)], single);
    }
  }
}

// compute_batch must be byte-identical to per-message compute() for every
// length class (empty, partial, exact multiple, multi-block) and every
// batch size (off-by-one around the 4-lane group boundary), on whichever
// backend the host selects and on the scratch oracle.
TEST(Cmac, BatchMatchesSequentialCompute) {
  const std::vector<std::size_t> lengths = {0, 1, 15, 16, 17, 31, 32, 33, 48, 64, 65, 100, 256};
  util::Rng rng(23);
  std::vector<std::vector<std::uint8_t>> messages;
  for (const std::size_t len : lengths) messages.push_back(rng.next_bytes(len));

  for (const auto policy :
       {Aes128::BackendPolicy::ForceScratch, Aes128::BackendPolicy::Auto}) {
    BackendGuard guard(policy);
    const Cmac cmac(key_of("2b7e151628aed2a6abf7158809cf4f3c"));
    for (std::size_t count = 0; count <= messages.size(); ++count) {
      std::vector<std::span<const std::uint8_t>> spans;
      for (std::size_t i = 0; i < count; ++i) spans.emplace_back(messages[i]);
      const std::vector<Mac> batch = cmac.compute_batch(spans);
      ASSERT_EQ(batch.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(util::to_hex(batch[i]), util::to_hex(cmac.compute(spans[i])))
            << "count " << count << " message " << i;
      }
    }
  }
}

// The batched verifier agrees with verify() per pair, including mixed
// pass/fail batches.
TEST(MacKey, VerifyBatchMatchesVerify) {
  MacKey key(key_of("00112233445566778899aabbccddeeff"));
  util::Rng rng(31);
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<Mac> expected;
  for (int i = 0; i < 9; ++i) {
    messages.push_back(rng.next_bytes(rng.next_below(80)));
    Mac m = key.mac(messages.back());
    if (i % 3 == 1) m[5] ^= 1;  // corrupt every third expectation
    expected.push_back(m);
  }
  std::vector<std::span<const std::uint8_t>> spans(messages.begin(), messages.end());
  const std::vector<bool> ok = key.verify_batch(spans, expected);
  ASSERT_EQ(ok.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(ok[i], key.verify(spans[i], expected[i])) << "pair " << i;
    EXPECT_EQ(ok[i], i % 3 != 1) << "pair " << i;
  }
}

TEST(MacKey, VerifyRoundTrip) {
  MacKey key(key_of("00112233445566778899aabbccddeeff"));
  const auto msg = util::bytes_of("encoded policy bytes");
  const Mac m = key.mac(msg);
  EXPECT_TRUE(key.verify(msg, m));
  Mac wrong = m;
  wrong[3] ^= 1;
  EXPECT_FALSE(key.verify(msg, wrong));
}

}  // namespace
}  // namespace asc::crypto
