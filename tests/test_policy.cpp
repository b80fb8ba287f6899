// Policy model tests: descriptor bits, encoded policy/call layout,
// predecessor-set blob codec, authenticated strings, policy state,
// patterns (§5.1), metapolicies (§5.2), the authenticated fd set (§5.3).
#include <gtest/gtest.h>

#include "core/asc.h"
#include "policy/authstring.h"
#include "policy/capability.h"
#include "policy/descriptor.h"
#include "policy/metapolicy.h"
#include "policy/pattern.h"
#include "policy/policy.h"
#include "util/hex.h"
#include "util/rng.h"

namespace asc::policy {
namespace {

TEST(DescriptorTest, BitLayout) {
  Descriptor d;
  EXPECT_EQ(d.bits(), 0u);
  d.set_site();
  d.set_control_flow();
  d.set_arg_constrained(1);
  d.set_arg_authenticated_string(0);
  d.set_arg_pattern(2);
  EXPECT_TRUE(d.site_constrained());
  EXPECT_TRUE(d.control_flow_constrained());
  EXPECT_TRUE(d.arg_constrained(1));
  EXPECT_FALSE(d.arg_constrained(2));
  EXPECT_TRUE(d.arg_constrained(0));  // AS implies constrained
  EXPECT_TRUE(d.arg_is_authenticated_string(0));
  EXPECT_FALSE(d.arg_is_authenticated_string(1));
  EXPECT_TRUE(d.arg_has_pattern(2));
  EXPECT_THROW(d.arg_constrained(5), Error);
}

TEST(EncodedPolicy, LayoutIsDeterministicAndDescriptorSensitive) {
  EncodedPolicyInputs in;
  in.sysno = 5;
  Descriptor d;
  d.set_site();
  d.set_control_flow();
  d.set_arg_constrained(1);
  in.descriptor = d;
  in.call_site = 0x08048123;
  in.block_id = 0x00010004;
  in.arity = 3;
  in.const_values[1] = 0x42;
  in.pred_set = AsRef{0x08448020, 12, {}};
  in.lb_ptr = 0x08448000;
  const auto e1 = encode_policy(in);
  // u16 + u32 + u32 + u32 + u32 + (u32+u32+16) + u32 = 46 bytes
  EXPECT_EQ(e1.size(), 46u);
  auto in2 = in;
  in2.const_values[1] = 0x43;
  EXPECT_NE(encode_policy(in2), e1);
  auto in3 = in;
  in3.call_site += 1;
  EXPECT_NE(encode_policy(in3), e1);
  // Without the site bit, the call site vanishes from the encoding.
  auto in4 = in;
  Descriptor d4;
  d4.set_control_flow();
  d4.set_arg_constrained(1);
  in4.descriptor = d4;
  EXPECT_EQ(encode_policy(in4).size(), e1.size() - 4);
}

// The fixed buffer is sized for the longest descriptor there is: the call
// site, control flow, and every argument an authenticated string.
TEST(EncodedPolicy, LongestDescriptorFillsTheBoundExactly) {
  EncodedPolicyInputs in;
  Descriptor d;
  d.set_site();
  d.set_control_flow();
  for (int i = 0; i < os::kMaxSyscallArgs; ++i) d.set_arg_authenticated_string(i);
  in.descriptor = d;
  in.arity = os::kMaxSyscallArgs;
  for (std::size_t i = 0; i < in.as_args.size(); ++i) {
    in.as_args[i] = AsRef{0x08448000 + 0x40 * static_cast<std::uint32_t>(i), 7, {}};
    in.as_args[i].mac.fill(static_cast<std::uint8_t>(0xa0 + i));
  }
  EncodedPolicy buf;
  EXPECT_EQ(encode_policy(in, buf), kMaxEncodedPolicy);
  EXPECT_EQ(kMaxEncodedPolicy, 162u);
  // The vector form is the same bytes.
  const std::vector<std::uint8_t> v = encode_policy(in);
  EXPECT_EQ(v, std::vector<std::uint8_t>(buf.begin(), buf.end()));
}

TEST(EncodedPolicy, RejectsArityBeyondTheArgumentRegisters) {
  EncodedPolicyInputs in;
  in.arity = os::kMaxSyscallArgs + 1;
  EncodedPolicy buf;
  EXPECT_THROW(encode_policy(in, buf), Error);
}

TEST(PredSetBlob, RoundTripsWithCapsAndPatterns) {
  const std::vector<std::uint32_t> preds{0, 0x10004, 0x10009};
  const std::vector<std::uint32_t> caps{0x10002};
  const std::vector<PatternRef> pats{{0, 0x08448100}, {1, 0x08448200}};
  const auto blob = encode_pred_set(preds, caps, pats);
  std::vector<std::uint32_t> p2, c2;
  std::vector<PatternRef> t2;
  ASSERT_TRUE(decode_pred_set(blob, p2, c2, t2));
  EXPECT_EQ(p2, preds);
  EXPECT_EQ(c2, caps);
  EXPECT_EQ(t2, pats);
}

TEST(PredSetBlob, RejectsTruncatedOrOversized) {
  const auto blob = encode_pred_set({1, 2, 3}, {}, {});
  std::vector<std::uint32_t> p, c;
  std::vector<PatternRef> t;
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    std::vector<std::uint8_t> trunc(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_pred_set(trunc, p, c, t)) << "cut=" << cut;
  }
  auto extra = blob;
  extra.push_back(0);
  EXPECT_FALSE(decode_pred_set(extra, p, c, t));
}

TEST(AuthString, LayoutAndVerification) {
  crypto::MacKey key(test_key());
  const auto content = util::bytes_of("/dev/console");
  const auto blob = build_authenticated_string(key, content);
  ASSERT_EQ(blob.size(), kAsHeaderSize + content.size());
  EXPECT_EQ(util::get_u32(blob, 0), content.size());
  crypto::Mac mac{};
  std::copy(blob.begin() + 4, blob.begin() + 20, mac.begin());
  EXPECT_TRUE(key.verify(content, mac));
}

TEST(AuthString, RejectsOversizedContent) {
  crypto::MacKey key(test_key());
  std::vector<std::uint8_t> big(kAsMaxLength + 1, 'x');
  EXPECT_THROW(build_authenticated_string(key, big), Error);
}

TEST(PolicyState, CounterActsAsNonce) {
  const auto a = encode_policy_state(7, 1);
  const auto b = encode_policy_state(7, 2);
  EXPECT_NE(a, b);
}

TEST(PolicyState, MessageIsLastBlockThenCounterLittleEndian) {
  const auto msg = encode_policy_state(0x04030201u, 0x0c0b0a0908070605ull);
  ASSERT_EQ(msg.size(), kPolicyStateMessageSize);
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(msg[i], i + 1) << "byte " << i;
}

TEST(BlockIds, FrankensteinComposition) {
  EXPECT_EQ(make_block_id(3, 9, true), (3u << 16) | 9u);
  EXPECT_EQ(make_block_id(3, 9, false), 9u);
  EXPECT_EQ(make_block_id(3, kStartBlockLocal, true), 3u << 16);
}

// ---- §5.1 patterns ----

struct PatternCase {
  const char* pattern;
  const char* arg;
  bool matches;
};

// gtest prints a parameter into the case's listed name, which ctest uses as
// the test name; without a printer that is the struct's raw bytes, i.e. the
// literals' addresses, which move with every build and run.
void PrintTo(const PatternCase& c, std::ostream* os) {
  *os << '"' << c.pattern << "\" vs \"" << c.arg << "\" -> " << (c.matches ? "match" : "no match");
}

const PatternCase kPatternCases[] = {
    {"/tmp/*", "/tmp/foo123", true},
    {"/tmp/*", "/etc/passwd", false},
    {"/tmp/*", "/tmp/", true},
    {"*", "", true},
    {"?at", "cat", true},
    {"?at", "at", false},
    {"/tmp/{foo,bar}*baz", "/tmp/foofoobaz", true},   // the paper's example
    {"/tmp/{foo,bar}*baz", "/tmp/barbaz", true},
    {"/tmp/{foo,bar}*baz", "/tmp/quxbaz", false},
    {"a*b*c", "abc", true},
    {"a*b*c", "axxbyyc", true},
    {"a*b*c", "ac", false},
    {"{a,ab}b", "abb", true},
    {"{ab,a}b", "ab", true},  // needs backtracking to the second choice
    {"literal", "literal", true},
    {"literal", "literally", false},
};

class PatternMatch : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternMatch, ProofRoundTrip) {
  const auto& c = GetParam();
  const auto hint = match_and_prove(c.pattern, c.arg);
  EXPECT_EQ(hint.has_value(), c.matches) << c.pattern << " vs " << c.arg;
  if (hint.has_value()) {
    EXPECT_TRUE(verify_match(c.pattern, c.arg, *hint))
        << "honest hint must verify: " << c.pattern << " vs " << c.arg;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, PatternMatch, ::testing::ValuesIn(kPatternCases));

TEST(Pattern, PaperExampleHint) {
  // §5.1: pattern "/tmp/{foo,bar}*baz", argument "/tmp/foofoobaz",
  // hint (0, 3): choice 0 ("foo"), star consumes 3 chars.
  const auto hint = match_and_prove("/tmp/{foo,bar}*baz", "/tmp/foofoobaz");
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, (std::vector<std::uint32_t>{0, 3}));
}

TEST(Pattern, WrongHintFailsEvenIfArgumentMatches) {
  // "If the argument does not match the pattern or the hint is incorrect,
  // the check will fail."
  EXPECT_TRUE(verify_match("/tmp/*", "/tmp/abc", {3}));
  EXPECT_FALSE(verify_match("/tmp/*", "/tmp/abc", {2}));
  EXPECT_FALSE(verify_match("/tmp/*", "/tmp/abc", {4}));
  EXPECT_FALSE(verify_match("/tmp/*", "/tmp/abc", {}));
  EXPECT_FALSE(verify_match("/tmp/*", "/tmp/abc", {3, 0}));  // trailing junk
}

TEST(Pattern, FuzzedHintsNeverVerifyNonMatches) {
  util::Rng rng(99);
  const std::string pattern = "/tmp/{log,run}-*.dat";
  for (int i = 0; i < 300; ++i) {
    std::string arg = "/";
    const std::size_t len = rng.next_below(20);
    for (std::size_t j = 0; j < len; ++j) {
      arg.push_back(static_cast<char>('a' + rng.next_below(26)));
    }
    std::vector<std::uint32_t> hint;
    for (std::size_t j = 0; j < rng.next_below(4); ++j) {
      hint.push_back(static_cast<std::uint32_t>(rng.next_below(24)));
    }
    if (verify_match(pattern, arg, hint)) {
      // The verifier accepted: the argument must genuinely match.
      EXPECT_TRUE(match_and_prove(pattern, arg).has_value()) << arg;
    }
  }
}

TEST(Pattern, MalformedPatternsThrowOnValidate) {
  EXPECT_THROW(validate_pattern("/tmp/{unclosed"), Error);
  EXPECT_THROW(validate_pattern("{a,{b}}"), Error);
  EXPECT_THROW(validate_pattern("}oops"), Error);
  EXPECT_NO_THROW(validate_pattern("/tmp/{a,b}*?"));
}

TEST(Pattern, VerifyCostIsLinear) {
  // Pathological pattern for a backtracking matcher; the verifier with an
  // honest hint does linear work regardless.
  std::string pattern;
  for (int i = 0; i < 10; ++i) pattern += "a*";
  pattern += "b";
  std::string arg(40, 'a');
  arg.push_back('b');
  const auto hint = match_and_prove(pattern, arg);
  ASSERT_TRUE(hint.has_value());
  EXPECT_TRUE(verify_match(pattern, arg, *hint));
  EXPECT_LE(verify_cost(pattern, arg), pattern.size() + arg.size());
}

// ---- §5.2 metapolicies & templates ----

TEST(MetapolicyTest, FindsHolesForUnconstrainedRequiredArgs) {
  std::vector<SyscallPolicy> pols(1);
  pols[0].sys = os::SysId::Open;
  pols[0].arity = 3;
  pols[0].args[0].kind = ArgPolicy::Kind::Unconstrained;
  const auto holes = find_holes(pols, Metapolicy::strict_paths());
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0].arg, 0);
  EXPECT_EQ(holes[0].sys, os::SysId::Open);
}

TEST(MetapolicyTest, SatisfiedPolicyHasNoHoles) {
  std::vector<SyscallPolicy> pols(1);
  pols[0].sys = os::SysId::Open;
  pols[0].arity = 3;
  pols[0].args[0].kind = ArgPolicy::Kind::String;
  pols[0].args[0].str = "/etc/motd";
  EXPECT_TRUE(find_holes(pols, Metapolicy::strict_paths()).empty());
}

TEST(MetapolicyTest, FillingHolesProducesCompletePolicy) {
  PolicyTemplate t;
  t.policies.resize(1);
  t.policies[0].sys = os::SysId::Open;
  t.policies[0].arity = 3;
  t.holes = find_holes(t.policies, Metapolicy::strict_paths());
  ASSERT_FALSE(t.complete());
  t.fill_with_pattern(0, "/tmp/*");
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.policies[0].args[0].kind, ArgPolicy::Kind::Pattern);
  EXPECT_EQ(t.policies[0].args[0].str, "/tmp/*");
}

TEST(MetapolicyTest, PatternRequirementRejectsConstFill) {
  PolicyTemplate t;
  t.policies.resize(1);
  t.policies[0].sys = os::SysId::Open;
  t.policies[0].arity = 3;
  Metapolicy m;
  SyscallMeta meta{};
  meta.args[0] = ArgRequirement::MustPattern;
  m.set(os::SysId::Open, meta);
  t.holes = find_holes(t.policies, m);
  ASSERT_EQ(t.holes.size(), 1u);
  EXPECT_THROW(t.fill_with_const(0, 7), Error);
  t.fill_with_pattern(0, "/tmp/*");
  EXPECT_TRUE(t.complete());
}

// ---- §5.3 authenticated fd set ----

TEST(AuthFdSet, InsertRemoveContains) {
  crypto::MacKey key(test_key());
  const std::size_t cap = 8;
  std::vector<std::uint8_t> blob(AuthenticatedFdSet::blob_size(cap));
  std::uint64_t counter = 0;
  AuthenticatedFdSet::init(blob, cap, key, counter);
  EXPECT_TRUE(AuthenticatedFdSet::verify(blob, cap, key, counter));
  EXPECT_EQ(AuthenticatedFdSet::contains(blob, cap, key, counter, 4).value_or(true), false);
  EXPECT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 4));
  EXPECT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 5));
  EXPECT_EQ(counter, 2u);
  EXPECT_EQ(AuthenticatedFdSet::contains(blob, cap, key, counter, 4).value_or(false), true);
  EXPECT_TRUE(AuthenticatedFdSet::remove(blob, cap, key, counter, 4));
  EXPECT_EQ(AuthenticatedFdSet::contains(blob, cap, key, counter, 4).value_or(true), false);
  EXPECT_FALSE(AuthenticatedFdSet::remove(blob, cap, key, counter, 99));
}

TEST(AuthFdSet, TamperingIsDetected) {
  crypto::MacKey key(test_key());
  const std::size_t cap = 4;
  std::vector<std::uint8_t> blob(AuthenticatedFdSet::blob_size(cap));
  std::uint64_t counter = 0;
  AuthenticatedFdSet::init(blob, cap, key, counter);
  ASSERT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 3));
  // Direct slot edit without re-MAC:
  auto evil = blob;
  util::set_u32(evil, 4, 9);
  EXPECT_FALSE(AuthenticatedFdSet::verify(evil, cap, key, counter));
  EXPECT_FALSE(AuthenticatedFdSet::insert(evil, cap, key, counter, 5));
}

TEST(AuthFdSet, ReplayOfOldBlobIsDetected) {
  crypto::MacKey key(test_key());
  const std::size_t cap = 4;
  std::vector<std::uint8_t> blob(AuthenticatedFdSet::blob_size(cap));
  std::uint64_t counter = 0;
  AuthenticatedFdSet::init(blob, cap, key, counter);
  ASSERT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 3));
  const auto snapshot = blob;  // valid at counter 1
  ASSERT_TRUE(AuthenticatedFdSet::remove(blob, cap, key, counter, 3));  // counter 2
  blob = snapshot;  // attacker restores the old memory
  EXPECT_FALSE(AuthenticatedFdSet::verify(blob, cap, key, counter));
}

TEST(AuthFdSet, FullSetRejectsInsert) {
  crypto::MacKey key(test_key());
  const std::size_t cap = 2;
  std::vector<std::uint8_t> blob(AuthenticatedFdSet::blob_size(cap));
  std::uint64_t counter = 0;
  AuthenticatedFdSet::init(blob, cap, key, counter);
  EXPECT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 1));
  EXPECT_TRUE(AuthenticatedFdSet::insert(blob, cap, key, counter, 2));
  EXPECT_FALSE(AuthenticatedFdSet::insert(blob, cap, key, counter, 3));
}

}  // namespace
}  // namespace asc::policy
