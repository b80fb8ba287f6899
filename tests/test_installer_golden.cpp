// The installer's golden oracle: every bundled app's installed image,
// SignManifest and policies (LinuxSim) and its analysis (BsdSim) must match
// tests/golden/installed_images.golden digest for digest. Independent of the
// rekeyer differential, which cannot tell a signer error apart once install
// and rekey sign through the same function.
#include <fstream>

#include <gtest/gtest.h>

#include "golden_dump.h"

#ifndef ASC_TESTS_DIR
#define ASC_TESTS_DIR "."
#endif

namespace asc {
namespace {

TEST(InstallerGolden, BundledAppsMatchTheGoldenDigests) {
  std::ifstream in(std::string(ASC_TESTS_DIR) + "/golden/installed_images.golden",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file; regenerate with installed_images_dump()";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(golden, testing::installed_images_dump());
}

}  // namespace
}  // namespace asc
