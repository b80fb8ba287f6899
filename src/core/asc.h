// asc::System -- the one-stop public API.
//
// Bundles the trusted installer and a simulated machine that share the MAC
// key, which is the paper's deployment model: the administrator gives the
// key to the installer at install time and to the kernel at boot; nothing
// else ever sees it.
//
// Quickstart:
//   asc::System sys(asc::os::Personality::LinuxSim);
//   auto inst = sys.install(asc::apps::build_bison(sys.personality()));
//   sys.machine().register_program("/bin/bison", inst.image);
//   auto r = sys.machine().run(inst.image, {"grammar.y"});
//   // r.completed, r.stdout_data, r.violation ...
#pragma once

#include <string>

#include "apps/apps.h"
#include "binary/image.h"
#include "crypto/cmac.h"
#include "installer/installer.h"
#include "os/kernel.h"
#include "vm/machine.h"

namespace asc {

/// Deterministic key for examples/tests/benches. A real deployment would
/// generate one per machine.
crypto::Key128 test_key();

/// Deterministic key family for rekey tests, the `asctool rekey` CLI, and
/// per-tenant fleet keys: CMAC of the seed under test_key(), so any two
/// distinct seeds give unrelated keys and seed 0 != test_key(). A real
/// deployment would draw fresh keys from a CSPRNG / KMS instead.
crypto::Key128 derived_key(std::uint64_t seed);

class System {
 public:
  /// Creates an installer and a machine sharing `key`. `mode` is the mode
  /// the kernel enforces (Asc by default; pass Enforcement::Off for
  /// baseline runs). A list of modes goes through
  /// kernel().set_enforcement() afterwards.
  explicit System(os::Personality personality, const crypto::Key128& key = test_key(),
                  os::Enforcement mode = os::Enforcement::Asc, os::CostModel cost = {});

  os::Personality personality() const { return personality_; }
  installer::Installer& installer() { return installer_; }
  vm::Machine& machine() { return machine_; }
  os::Kernel& kernel() { return machine_.kernel(); }

  /// Analyze + rewrite in one step.
  installer::InstallResult install(const binary::Image& image,
                                   const installer::InstallOptions& options = {});

  /// Install and register under a path (for spawn / run_path).
  installer::InstallResult install_and_register(const std::string& path,
                                                const binary::Image& image,
                                                const installer::InstallOptions& options = {});

 private:
  os::Personality personality_;
  installer::Installer installer_;
  vm::Machine machine_;
};

}  // namespace asc
