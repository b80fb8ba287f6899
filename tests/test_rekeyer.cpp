// The differential re-keying engine (installer/rekeyer.h): re-signing an
// installed image under a new key by recomputing ONLY the MAC surface named
// in its SignManifest must be indistinguishable from a fresh install under
// that key -- byte for byte -- and the kernel's live-rekey protocol
// (Kernel::rekey) must move a running guest between keys without a single
// trap ever verifying under mixed old/new material.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/libtoy.h"
#include "fault/campaign.h"
#include "installer/rekeyer.h"
#include "util/executor.h"
#include "workloads.h"

namespace asc {
namespace {

using fault::Campaign;
using fault::CampaignConfig;
using fault::CampaignResult;
using fault::GuestProgram;
using fault::Strike;

const auto kPers = os::Personality::LinuxSim;

installer::InstallResult install_under(const binary::Image& img, const crypto::Key128& key,
                                       util::Executor* ex = nullptr) {
  installer::Installer inst(key, kPers);
  installer::InstallOptions opt;
  opt.program_id = 7;  // fixed id: the allocator counter must not differ
  opt.executor = ex;
  return inst.install(img, opt);
}

std::vector<std::pair<std::string, binary::Image>> oracle_images() {
  return {
      {"cat", apps::build_tool_cat(kPers)},
      {"sort", apps::build_tool_sort(kPers)},
      {"gzip", apps::build_gzip(kPers)},
      {"vuln_echo", apps::build_vuln_echo(kPers)},
  };
}

// ---- the differential oracle ----
// rekey(install(P, k1), k1 -> k2) == install(P, k2), byte for byte, while
// touching only O(MAC surface) bytes -- never the text, CFG, or policies.
TEST(Rekeyer, RekeyedImageMatchesFreshInstallByteForByte) {
  const crypto::Key128 k1 = test_key();
  const crypto::Key128 k2 = derived_key(42);
  for (const auto& [name, img] : oracle_images()) {
    const installer::InstallResult old_inst = install_under(img, k1);
    const installer::InstallResult new_inst = install_under(img, k2);
    const installer::RekeyResult rk =
        installer::Rekeyer::rekey(old_inst.image, old_inst.manifest, k1, k2);
    EXPECT_EQ(rk.image.serialize(), new_inst.image.serialize())
        << name << ": rekeyed image differs from a fresh install under the new key";
    // The surface a rekey recomputes is tiny relative to the image.
    const std::uint64_t surface = old_inst.manifest.mac_surface_bytes();
    EXPECT_GT(surface, 0u) << name;
    const auto& text = old_inst.image.find_section(binary::SectionKind::Text)->bytes;
    EXPECT_LT(surface, text.size())
        << name << ": MAC surface should be smaller than the text it covers";
  }
}

TEST(Rekeyer, ManifestRoundTripsThroughSerialization) {
  for (const auto& [name, img] : oracle_images()) {
    const installer::InstallResult inst = install_under(img, test_key());
    const std::vector<std::uint8_t> blob = inst.manifest.serialize();
    const installer::SignManifest back = installer::SignManifest::deserialize(blob);
    EXPECT_EQ(back, inst.manifest) << name;
    // And the deserialized copy drives a correct rekey.
    const crypto::Key128 k2 = derived_key(7);
    const installer::RekeyResult a =
        installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), k2);
    const installer::RekeyResult b =
        installer::Rekeyer::rekey(inst.image, back, test_key(), k2);
    EXPECT_EQ(a.image.serialize(), b.image.serialize()) << name;
  }
}

TEST(Rekeyer, TruncatedManifestIsRejected) {
  const installer::InstallResult inst =
      install_under(apps::build_tool_cat(kPers), test_key());
  std::vector<std::uint8_t> blob = inst.manifest.serialize();
  blob.resize(blob.size() / 2);
  EXPECT_THROW(installer::SignManifest::deserialize(blob), Error);
  blob.clear();
  EXPECT_THROW(installer::SignManifest::deserialize(blob), Error);
  // A patch offset near 2^32 must not wrap past the message-bounds check.
  installer::SignManifest wrapped = inst.manifest;
  ASSERT_FALSE(wrapped.calls.empty());
  wrapped.calls.front().patches.push_back(installer::ManifestPatch{0xfffffff8u, 0});
  EXPECT_THROW(installer::SignManifest::deserialize(wrapped.serialize()), Error);
}

TEST(Rekeyer, DeterministicAcrossJobCounts) {
  const crypto::Key128 k2 = derived_key(99);
  for (const auto& [name, img] : oracle_images()) {
    const installer::InstallResult inst = install_under(img, test_key());
    util::Executor e1(1);
    const installer::RekeyResult ref =
        installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), k2, &e1);
    for (const int jobs : {2, 8}) {
      util::Executor ex(jobs);
      const installer::RekeyResult got =
          installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), k2, &ex);
      EXPECT_EQ(ref.image.serialize(), got.image.serialize())
          << name << " rekey differs at jobs=" << jobs;
      ASSERT_EQ(ref.view.patches.size(), got.view.patches.size()) << name;
      for (std::size_t i = 0; i < ref.view.patches.size(); ++i) {
        EXPECT_EQ(ref.view.patches[i].addr, got.view.patches[i].addr) << name;
        EXPECT_EQ(ref.view.patches[i].bytes, got.view.patches[i].bytes) << name;
      }
    }
  }
}

// Rekeying is verify-then-sign: an image whose MAC surface does not verify
// under the claimed old key must be refused, never silently re-signed (that
// would launder a tampered image into a validly signed one).
TEST(Rekeyer, RefusesAnImageTamperedUnderTheOldKey) {
  installer::InstallResult inst = install_under(apps::build_tool_cat(kPers), test_key());
  ASSERT_FALSE(inst.manifest.calls.empty());
  const std::uint32_t slot = inst.manifest.calls.front().mac_slot;
  binary::Section& asdata = inst.image.section(binary::SectionKind::AsData);
  asdata.bytes.at(slot - asdata.vaddr()) ^= 0x01;
  EXPECT_THROW(
      installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), derived_key(1)),
      Error);
  // Same refusal when the caller simply presents the wrong old key.
  asdata.bytes.at(slot - asdata.vaddr()) ^= 0x01;  // restore
  EXPECT_THROW(
      installer::Rekeyer::rekey(inst.image, inst.manifest, derived_key(2), derived_key(1)),
      Error);
}

TEST(Rekeyer, RekeyedImageRunsUnderTheNewKeyOnly) {
  const crypto::Key128 k2 = derived_key(5);
  const installer::InstallResult inst =
      install_under(apps::build_tool_cat(kPers), test_key());
  const installer::RekeyResult rk =
      installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), k2);

  System sys_new(kPers, k2);
  testing::prepare_fs(sys_new.kernel().fs());
  const vm::RunResult ok = sys_new.machine().run(rk.image, {"/lines.txt", "/in.c"});
  EXPECT_TRUE(ok.completed);
  EXPECT_EQ(ok.violation, os::Violation::None) << ok.violation_detail;

  // The old-key kernel must fail-stop on the rekeyed image (and vice versa
  // is already covered by the paper's key-mismatch tests).
  System sys_old(kPers);
  testing::prepare_fs(sys_old.kernel().fs());
  const vm::RunResult bad = sys_old.machine().run(rk.image, {"/lines.txt", "/in.c"});
  EXPECT_FALSE(bad.completed);
  EXPECT_NE(bad.violation, os::Violation::None);
}

// ---- the live-rekey protocol ----
// Kernel::rekey at a quiesced point moves a RUNNING guest to the new key:
// bytes swapped, tiers flushed, policy state re-MAC'd -- and the guest
// completes byte-identically to an undisturbed run.
TEST(Rekeyer, LiveRekeyMidRunIsTransparent) {
  const installer::InstallResult inst =
      install_under(apps::build_tool_cat(kPers), test_key());

  System ref(kPers);
  testing::prepare_fs(ref.kernel().fs());
  const vm::RunResult clean = ref.machine().run(inst.image, {"/lines.txt", "/in.c"});
  ASSERT_TRUE(clean.completed);

  const crypto::Key128 k2 = derived_key(11);
  const installer::RekeyResult rk =
      installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), k2);

  System sys(kPers);
  testing::prepare_fs(sys.kernel().fs());
  int calls = 0;
  testing::on_pre_trap(sys.kernel(), [&](os::Process& p, std::uint32_t) {
    if (++calls != 3) return;
    // The patches land on watched MAC slots; only the rotation dropping
    // every site record (and its watch ranges) first keeps them from
    // re-entering the invalidation spine.
    ASSERT_TRUE(sys.kernel().rekey(p, k2, rk.view));
    EXPECT_EQ(p.mem.watch_stats().live_ranges, 0u);
  });
  const vm::RunResult r = sys.machine().run(inst.image, {"/lines.txt", "/in.c"});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.violation, os::Violation::None) << r.violation_detail;
  EXPECT_EQ(r.stdout_data, clean.stdout_data);
  EXPECT_EQ(r.exit_code, clean.exit_code);
  EXPECT_EQ(sys.kernel().rekey_counters().rekeys, 1u);
  EXPECT_EQ(sys.kernel().rekey_counters().macs_applied, rk.view.patches.size() + 1);
}

GuestProgram cat_guest() {
  GuestProgram g;
  g.name = "cat";
  g.image = apps::build_tool_cat(kPers);
  g.argv = {"/lines.txt", "/in.c"};
  g.prepare_fs = testing::prepare_fs;
  return g;
}

GuestProgram vuln_echo_guest() {
  GuestProgram g;
  g.name = "vuln_echo";
  g.image = apps::build_vuln_echo(kPers);
  g.stdin_data = "/lines.txt\n";
  g.helpers.emplace_back("/bin/ls", apps::build_tool_cat(kPers));
  g.prepare_fs = testing::prepare_fs;
  return g;
}

// ---- the rekey-toctou campaign ----
// 120 seeded strikes of Kernel::rekey at every TrapStage boundary, across a
// spawning and a non-spawning guest: a request landing mid-trap defers to
// the next trap boundary, so EVERY run must be benign -- no trap may ever
// verify under mixed old/new material, and a coherent rekey is invisible to
// the guest. Zero wrong verdicts, zero silent bypasses, zero host crashes.
TEST(Rekeyer, ToctouCampaignNeverEscapes) {
  CampaignConfig cfg;
  cfg.seed = 20260808;
  cfg.runs_per_point = 60;  // 2 guests x 60 = 120 executions
  cfg.points = {{Strike::RekeyToctou}};
  const CampaignResult r = Campaign(cfg).run_all({cat_guest(), vuln_echo_guest()});

  EXPECT_EQ(static_cast<int>(r.verdicts.size()), 120);
  EXPECT_EQ(r.host_crash, 0) << r.summary();
  EXPECT_EQ(r.silent_bypass, 0) << r.summary();
  EXPECT_EQ(r.wrong_verdict, 0) << r.summary();
  EXPECT_EQ(r.detected, 0) << "a coherent rekey must never trip a verdict\n" << r.summary();
  EXPECT_GE(r.total_applied(), 100) << r.summary();
  EXPECT_TRUE(r.invariant_holds()) << r.summary();
}

}  // namespace
}  // namespace asc
