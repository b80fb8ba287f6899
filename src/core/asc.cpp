#include "core/asc.h"

#include <algorithm>
#include <array>

namespace asc {

crypto::Key128 test_key() {
  crypto::Key128 k{};
  const char* seed = "asc-repro-key-16";
  for (int i = 0; i < 16; ++i) k[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed[i]);
  return k;
}

crypto::Key128 derived_key(std::uint64_t seed) {
  std::array<std::uint8_t, 8> msg{};
  for (int i = 0; i < 8; ++i) {
    msg[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  const crypto::Mac m = crypto::MacKey(test_key()).mac(msg);
  crypto::Key128 k{};
  std::copy(m.begin(), m.end(), k.begin());
  return k;
}

System::System(os::Personality personality, const crypto::Key128& key, os::Enforcement mode,
               os::CostModel cost)
    : personality_(personality), installer_(key, personality), machine_(personality, cost) {
  // Order is immaterial: enforcement reads the kernel's key/policies/cost
  // at inspect time, not when the mode is set.
  machine_.kernel().set_key(key);
  machine_.kernel().set_enforcement(mode);
}

installer::InstallResult System::install(const binary::Image& image,
                                         const installer::InstallOptions& options) {
  return installer_.install(image, options);
}

installer::InstallResult System::install_and_register(const std::string& path,
                                                      const binary::Image& image,
                                                      const installer::InstallOptions& options) {
  installer::InstallResult r = install(image, options);
  machine_.register_program(path, r.image);
  return r;
}

}  // namespace asc
