// The trusted installer (§3.3, Fig. 2).
//
// Run by the security administrator with the MAC key. Reads a relocatable
// binary, generates policies by conservative static analysis, rewrites the
// binary so every system call is an authenticated system call, and signs
// it. The two-step analyze()/rewrite() form supports the metapolicy workflow
// of §5.2: analyze, inspect/fill the policy template, then rewrite. Only
// the signing step (installer::sign, rekeyer.h) uses the key.
#pragma once

#include <cstdint>

#include "binary/image.h"
#include "crypto/cmac.h"
#include "installer/policygen.h"
#include "installer/rewriter.h"
#include "os/syscalls.h"

namespace asc::installer {

class Installer {
 public:
  /// The key is provided by the security administrator at startup and is
  /// shared only with the kernel.
  Installer(const crypto::Key128& key, os::Personality personality);

  /// Step 1: static analysis + policy generation (no key needed; this is
  /// the part the paper also ran on OpenBSD).
  GeneratedPolicies analyze(const binary::Image& input,
                            const InstallOptions& options = {}) const;

  /// Step 2: rewrite with (possibly administrator-edited) policies, then
  /// sign.
  InstallResult rewrite(const binary::Image& input, GeneratedPolicies gp,
                        const InstallOptions& options = {});

  /// One-shot: analyze + rewrite. Throws if the metapolicy leaves holes.
  InstallResult install(const binary::Image& input, const InstallOptions& options = {});

  /// Program ids are unique per installer instance (machine-wide in the
  /// deployment story), making block ids machine-unique (§5.5).
  std::uint16_t next_program_id() const { return next_program_id_; }

 private:
  crypto::MacKey key_;
  os::Personality personality_;
  std::uint16_t next_program_id_ = 1;
};

}  // namespace asc::installer
