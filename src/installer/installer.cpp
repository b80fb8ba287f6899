#include "installer/installer.h"

namespace asc::installer {

Installer::Installer(const crypto::Key128& key, os::Personality personality)
    : key_(key), personality_(personality) {}

GeneratedPolicies Installer::analyze(const binary::Image& input,
                                     const InstallOptions& options) const {
  return generate_policies(input, personality_, options);
}

InstallResult Installer::rewrite(const binary::Image& input, GeneratedPolicies gp,
                                 const InstallOptions& options) {
  InstallOptions resolved = options;
  if (resolved.program_id == 0) resolved.program_id = next_program_id_++;
  InstallResult result = rewrite_with_policies(input, std::move(gp), resolved);
  sign(result.image, result.manifest, key_, options.executor);
  return result;
}

InstallResult Installer::install(const binary::Image& input, const InstallOptions& options) {
  return rewrite(input, analyze(input, options), options);
}

}  // namespace asc::installer
