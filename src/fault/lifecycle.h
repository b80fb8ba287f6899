// The seeded lifecycle runner: the one driver behind fault campaigns, the
// chaos engine and the fleet.
//
// A lifecycle is one guest on its own System (= its own kernel = its own
// TenantState shard): the template signed under some key, one or more runs
// of it, and the churn or fault events a plan schedules between and inside
// those runs. The runner owns every piece the plans share, one
// implementation each:
//
//   * the guest pool, installed once under test_key() with each image's
//     key-independent SignManifest, plus a clean reference run that also
//     captures the CrossReplay donor snapshots (install_pool);
//   * rekeying a template and its spawn helpers to a new key
//     (InstalledGuest::rekey, one Rekeyer pass per image);
//   * the one kernel configuration every lifecycle runs under, and run-once
//     with host-crash capture (Tenant::run);
//   * the oracle: after every run, watch accounting balances and no
//     pid-keyed tier record survives; at the end, the audit log is coherent
//     (Tenant::run, Tenant::finish);
//   * classification of a tampered run (Tenant::classify);
//   * the live-rekey event with its deferred helper swap
//     (Tenant::live_rekey);
//   * the tenant-ordered fan-out over the executor (fan_out).
//
// The drivers are plan builders over these pieces: Campaign (campaign.h)
// sweeps seeded FaultSpecs, one fresh tenant per spec; ChaosEngine
// (chaos.h) draws a random churn-and-fault plan per tenant; fleet::Driver
// (fleet/fleet.h) runs key-rotation, monitor-swap and respawn cadences.
//
// Every trap hook goes through the kernel's stage hook. A tenant installs
// one wrapper that lands a deferred helper swap at the next depth-0 PreTrap
// and then calls the plan's hook, so hooked runs stay on the threaded
// engine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "binary/image.h"
#include "core/asc.h"
#include "fault/fault.h"
#include "installer/rekeyer.h"
#include "os/fs.h"
#include "util/executor.h"
#include "vm/machine.h"

namespace asc::fault {

/// Every lifecycle kernel's personality and cycle limit. The largest
/// campaign run measured about 51k modeled cycles, so the limit only stops
/// a runaway guest.
inline constexpr os::Personality kPersonality = os::Personality::LinuxSim;
inline constexpr std::uint64_t kCycleLimit = 200'000'000;

/// A guest program plus everything a run of it needs.
struct GuestProgram {
  std::string name;
  binary::Image image;  // pre-installation image
  std::vector<std::string> argv;
  std::string stdin_data;
  /// Programs registered (installed) for spawn, as {path, image}.
  std::vector<std::pair<std::string, binary::Image>> helpers;
  /// Per-run filesystem fixture.
  std::function<void(os::SimFs&)> prepare_fs;
};

/// A fixture that writes each {path, content} file fresh.
std::function<void(os::SimFs&)> fixture(std::vector<std::pair<std::string, std::string>> files);

/// Tight getpid loop (48 calls): the guest whose site promotes to the Inline
/// tier, so promo-toctou strikes land inside the trap-less window.
GuestProgram getpid_loop_guest(os::Personality p);

enum class Outcome : std::uint8_t {
  Benign,        // behaved identically to the clean run
  Detected,      // audited verdict with an expected Violation class
  WrongVerdict,  // audited verdict, but an unexpected Violation class
  SilentBypass,  // accepted, yet behavior diverged with no verdict at all
  HostCrash,     // an exception escaped the simulator
  NotApplied,    // the mutation never found an applicable target
};

std::string outcome_name(Outcome o);

/// One signed copy of a guest: the image and its spawn helpers, all signed
/// under `key`. `view` holds the MAC slots re-signed from the copy this one
/// was rekeyed from -- the payload of a live Kernel::rekey onto it.
struct SignedGuest {
  crypto::Key128 key{};
  binary::Image image;
  std::vector<std::pair<std::string, binary::Image>> helpers;
  os::RekeyView view;
};

/// One guest of the pool, installed once, with its clean reference.
struct InstalledGuest {
  GuestProgram prog;
  SignedGuest base;  // as installed, under test_key()
  installer::SignManifest manifest;
  std::vector<installer::SignManifest> helper_manifests;
  /// The clean reference run (policy-state shadow off, so every call
  /// materializes a distinct {lastBlock, MAC} record).
  vm::RunResult clean;
  /// Traps the clean run took across all its processes: the FaultSpec
  /// trigger space.
  int clean_traps = 0;
  /// Policy-state record at each trap of the clean run (1-based): the
  /// CrossReplay donors, captured from another address space.
  std::map<int, std::vector<std::uint8_t>> snapshots;

  /// `from` and its helpers re-signed under `to` (O(MAC surface)).
  SignedGuest rekey(const SignedGuest& from, const crypto::Key128& to) const;
  bool behaves_like_clean(const vm::RunResult& r) const;
};

/// Install every guest once and run its clean reference, serially. Throws
/// if a clean run fails or makes no system call.
std::vector<InstalledGuest> install_pool(std::vector<GuestProgram> guests);

/// One lifecycle: a guest on its own System under the one kernel
/// configuration (inline tier on at threshold 2, health promotion after 2
/// clean verifications with backoff capped at 64, kCycleLimit). Starts on
/// the guest's base template.
class Tenant {
 public:
  explicit Tenant(const InstalledGuest& guest, os::FailureMode mode = os::FailureMode::FailStop,
                  std::uint32_t budget = 0);
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  os::Kernel& kernel() { return sys_.kernel(); }
  /// The plan's stage hook (empty = none).
  os::Kernel::StageHook hook;

  /// Switch the kernel key, the helper registrations and the template the
  /// next run executes to `s`.
  void use(const SignedGuest& s);
  /// Live-rotate process `p` onto `to` (Kernel::rekey). Its helpers are
  /// registered when the swap lands: now, or at the next depth-0 PreTrap
  /// if the kernel parked the request. True if applied now.
  bool live_rekey(os::Process& p, const SignedGuest& to);
  /// Hook `inj` up as the plan, with the payloads its class needs: a
  /// foreign key (key mismatch, mid-trap rotation), a coherent rekey of the
  /// current template, and the CrossReplay donor `donor_pick` selects.
  void arm(FaultInjector& inj, std::uint64_t donor_pick);

  /// One run of the current template on a freshly prepared filesystem,
  /// then the bookkeeping oracle. nullopt (and a trip) on a host crash.
  std::optional<vm::RunResult> run(const std::string& where);
  /// Violation records audited since the last run began.
  std::vector<const os::VerdictRecord*> violations();
  /// Trip unless the last run audited no violation and matched the clean
  /// reference.
  void expect_clean(const vm::RunResult& r, const std::string& where);
  /// Classify the last run as `inj`'s tamper run. Wrong verdicts, silent
  /// bypasses and (under fail-stop) detections that did not kill trip.
  Outcome classify(const FaultInjector& inj, const vm::RunResult& r);
  void trip(std::string what) { trips_.push_back(std::move(what)); }
  /// Run the audit-coherence oracle; return every trip, prefixed by `who`.
  std::vector<std::string> finish(const std::string& who);

  int runs = 0;
  std::uint64_t syscalls = 0;  // across all runs (main processes)
  std::uint64_t cycles = 0;    // modeled, across all runs

 private:
  System sys_;
  const InstalledGuest& guest_;
  const SignedGuest* current_;
  std::unique_ptr<SignedGuest> rekey_to_;  // arm()'s RekeyToctou payload
  std::vector<std::pair<std::string, binary::Image>> pending_helpers_;
  std::size_t mark_ = 0;  // audit-log size when the last run began
  std::vector<std::string> trips_;
};

/// Run `lifecycle(t)` for every tenant t in [0, n) over the executor
/// (nullptr = the process-global pool). Results land in tenant order, so
/// anything folded from them is identical at any job count.
template <class T>
std::vector<T> fan_out(util::Executor* executor, std::size_t n,
                       const std::function<T(std::size_t)>& lifecycle) {
  return util::resolve_executor(executor).parallel_map<T>(n, lifecycle);
}

}  // namespace asc::fault
