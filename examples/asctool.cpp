// asctool -- the trusted installer as a command-line tool, operating on TXE
// image files on the host filesystem (the deployment workflow of Fig. 2).
//
//   asctool build <name> <out.txe>       write a relocatable guest program
//   asctool inspect <img.txe>            dump header, sections, symbols
//   asctool install <in.txe> <out.txe>   analyze + rewrite (prints policies);
//                                also writes <out.txe>.manifest, the compact
//                                SignManifest the differential Rekeyer needs
//   asctool rekey <in.txe> <out.txe> --key-seed N [--old-key-seed M]
//                                re-sign an installed image under
//                                derived_key(N) without re-analysis: only
//                                the MAC surface recorded in
//                                <in.txe>.manifest is recomputed. The old
//                                key defaults to the install key; pass
//                                --old-key-seed for an already-rekeyed
//                                input. Run the result with
//                                `run --key-seed N`.
//   asctool run [flags] <img.txe> [args...]     execute under enforcement
//     --stats                    print the kernel's tier-lattice counters
//                                (eager / cached / shadowed / inline hits,
//                                promotions, demotions by cause, live-rekey
//                                counters) as one aligned table
//     --key-seed N               verify under derived_key(N) instead of the
//                                default install key (images produced by
//                                `rekey --key-seed N`)
//     --rekey-at M               live-rotate the kernel to a new key after
//                                the M-th syscall via Kernel::rekey (needs
//                                <img.txe>.manifest); --rekey-seed S picks
//                                the new key's seed (default 1)
//     --no-shadow                disable the policy-state shadow; every call
//                                runs the eager §3.2 state-MAC protocol
//     --no-inline                disable the trap-less Inline tier (on by
//                                default); every call traps into the monitor
//     --jobs N                   (any command) worker threads for the
//                                installer's parallel analysis/signing
//                                phases; defaults to the ASC_JOBS
//                                environment variable, else the hardware
//                                concurrency. Output is identical at any
//                                job count; --jobs 1 is the serial path.
//     --monitor MODE             off | asc (default) | daemon | ktable;
//                                selects the mode the kernel enforces.
//                                daemon/ktable train their policy
//                                table with one unmonitored run of the same
//                                command line first.
//     --failure-mode MODE        fail-stop (default) | budgeted:N |
//                                audit-only; graceful-degradation reaction
//                                to an established violation
//     --dispatch MODE            threaded (default; predecoded threaded-code
//                                engine) | switch (reference decode-and-
//                                switch interpreter). Architecturally
//                                byte-identical; only host wall-clock
//                                differs. ASC_DISPATCH=switch flips the
//                                default.
//     --aes MODE                 auto (default; AES-NI when the host has
//                                it) | scratch (the FIPS-197 reference
//                                oracle). Identical MACs either way.
//                                ASC_AES=scratch flips the default.
//
// The lifecycle runner (src/fault/lifecycle.h) behind three subcommands.
// Each exits nonzero if the fail-stop invariant breaks or an oracle trips;
// results are identical at any --jobs count.
//   asctool campaign [--seed N] [--runs N] [--class POINT]... [--spec R]...
//                    [--mode fail-stop|budgeted|audit-only] [--budget N]
//                                seeded fault-injection sweep over cat,
//                                vuln_echo and the getpid loop; prints the
//                                point x Violation matrix. A POINT is
//                                STRIKE[@TIER]. --spec replays one
//                                "[repro ...]" line exactly.
//   asctool chaos [--tenants N] [--seed N] [--trace]
//                 [--stages s1,s2,...] [--classes p1,p2,...]
//                                lifecycle storm: churn, stage-targeted
//                                faults, injected internal faults
//   asctool fleet [--tenants N] [--seed N] [--rotate N] [--swap N]
//                 [--respawn N] [--tamper t1,t2,...] [--trace] [--audit]
//                                multi-tenant fleet with churn cadences and
//                                one merged audit stream
//
// Demo session:
//   ./example_asctool build gzip /tmp/gzip.txe
//   ./example_asctool install /tmp/gzip.txe /tmp/gzip.auth.txe
//   ./example_asctool run /tmp/gzip.auth.txe /f.txt
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>

#include "core/asc.h"
#include "fault/campaign.h"
#include "fault/chaos.h"
#include "fleet/fleet.h"
#include "installer/rekeyer.h"
#include "monitor/ktable.h"
#include "os/tiertable.h"
#include "monitor/training.h"
#include "util/executor.h"

using namespace asc;

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

int cmd_build(const std::string& name, const std::string& out) {
  for (auto& [n, img] : apps::build_all(os::Personality::LinuxSim)) {
    if (n == name) {
      write_file(out, img.serialize());
      std::printf("wrote relocatable %s (%zu bytes)\n", out.c_str(), img.serialize().size());
      return 0;
    }
  }
  std::fprintf(stderr, "unknown program %s; try: ", name.c_str());
  for (auto& [n, img] : apps::build_all(os::Personality::LinuxSim)) {
    std::fprintf(stderr, "%s ", n.c_str());
    (void)img;
  }
  std::fprintf(stderr, "\n");
  return 1;
}

int cmd_inspect(const std::string& path) {
  const binary::Image img = binary::Image::deserialize(read_file(path));
  std::printf("name: %s\nentry: 0x%x\nrelocatable: %d\nauthenticated: %d\nprogram id: %u\n",
              img.name.c_str(), img.entry, img.relocatable, img.authenticated, img.program_id);
  for (const auto& s : img.sections) {
    std::printf("section %-8s vaddr 0x%08x size %u\n", binary::section_name(s.kind).c_str(),
                s.vaddr(), s.size());
  }
  std::printf("%zu symbols, %zu relocations\n", img.symbols.size(), img.relocs.size());
  int shown = 0;
  for (const auto& sym : img.symbols) {
    if (sym.kind == binary::SymbolKind::Function && shown++ < 10) {
      std::printf("  func %-20s 0x%08x (%u bytes)\n", sym.name.c_str(), sym.addr, sym.size);
    }
  }
  return 0;
}

int cmd_install(const std::string& in, const std::string& out) {
  const binary::Image img = binary::Image::deserialize(read_file(in));
  installer::Installer inst(test_key(), os::Personality::LinuxSim);
  auto result = inst.install(img);
  write_file(out, result.image.serialize());
  // The manifest makes the image rekeyable without re-analysis: it records
  // every MAC slot and the exact bytes each MAC covers, key-independently.
  write_file(out + ".manifest", result.manifest.serialize());
  std::printf("installed %s -> %s: %zu authenticated call sites "
              "(+%s.manifest: %llu MACs over %llu surface bytes)\n",
              in.c_str(), out.c_str(), result.policies.size(), out.c_str(),
              static_cast<unsigned long long>(result.manifest.mac_count()),
              static_cast<unsigned long long>(result.manifest.mac_surface_bytes()));
  for (const auto& w : result.warnings) std::printf("REPORT: %s\n", w.c_str());
  for (std::size_t i = 0; i < result.policies.size() && i < 3; ++i) {
    std::printf("%s\n", result.policies[i].to_string().c_str());
  }
  if (result.policies.size() > 3) {
    std::printf("... (%zu more policies)\n", result.policies.size() - 3);
  }
  return 0;
}

int cmd_rekey(const std::string& in, const std::string& out, std::uint64_t key_seed,
              std::optional<std::uint64_t> old_key_seed) {
  const binary::Image img = binary::Image::deserialize(read_file(in));
  const installer::SignManifest man =
      installer::SignManifest::deserialize(read_file(in + ".manifest"));
  const crypto::Key128 old_key =
      old_key_seed.has_value() ? derived_key(*old_key_seed) : test_key();
  installer::RekeyResult r = installer::Rekeyer::rekey(img, man, old_key, derived_key(key_seed));
  write_file(out, r.image.serialize());
  // The manifest is key-independent; copy it so the output is rekeyable too.
  write_file(out + ".manifest", man.serialize());
  std::printf("rekeyed %s -> %s under key seed %llu: %llu MACs recomputed over "
              "%llu surface bytes (no re-analysis)\n",
              in.c_str(), out.c_str(), static_cast<unsigned long long>(key_seed),
              static_cast<unsigned long long>(man.mac_count()),
              static_cast<unsigned long long>(man.mac_surface_bytes()));
  return 0;
}

/// Configuration of the enforcement + audit layers for `asctool run`,
/// gathered from command-line flags.
struct RunConfig {
  bool stats = false;
  bool shadow = true;
  /// Trap-less Inline tier (os/tiertable.h). On by default for asctool runs
  /// so --stats shows the full lattice; --no-inline pins every call onto the
  /// trapping tiers, mirroring --no-shadow.
  bool inline_tier = true;
  os::Enforcement monitor = os::Enforcement::Asc;
  os::FailureMode failure = os::FailureMode::FailStop;
  std::uint32_t budget = 0;
  vm::DispatchMode dispatch = vm::default_dispatch_mode();
  /// Verification key: derived_key(key_seed) when set (images produced by
  /// `rekey --key-seed N`), else the default install key.
  std::optional<std::uint64_t> key_seed;
  /// Live rotation: after the rekey_at-th syscall, re-sign via the
  /// differential Rekeyer and rotate the kernel to derived_key(rekey_seed)
  /// mid-run (Kernel::rekey). 0 = no rotation.
  std::uint64_t rekey_at = 0;
  std::uint64_t rekey_seed = 1;
};

bool parse_u64_flag(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  *out = std::stoull(s);
  return true;
}

bool parse_dispatch_flag(const std::string& s, vm::DispatchMode* out) {
  if (s == "switch") *out = vm::DispatchMode::Switch;
  else if (s == "threaded") *out = vm::DispatchMode::Threaded;
  else return false;
  return true;
}

bool parse_aes_flag(const std::string& s) {
  if (s == "scratch") {
    crypto::Aes128::set_backend_policy(crypto::Aes128::BackendPolicy::ForceScratch);
  } else if (s == "auto") {
    crypto::Aes128::set_backend_policy(crypto::Aes128::BackendPolicy::Auto);
  } else {
    return false;
  }
  return true;
}

bool parse_monitor_flag(const std::string& s, os::Enforcement* out) {
  if (s == "off") *out = os::Enforcement::Off;
  else if (s == "asc") *out = os::Enforcement::Asc;
  else if (s == "daemon") *out = os::Enforcement::Daemon;
  else if (s == "ktable") *out = os::Enforcement::KernelTable;
  else return false;
  return true;
}

bool parse_failure_mode_flag(const std::string& s, os::FailureMode* mode, std::uint32_t* budget) {
  if (s == "fail-stop") {
    *mode = os::FailureMode::FailStop;
  } else if (s == "audit-only") {
    *mode = os::FailureMode::AuditOnly;
  } else if (s.rfind("budgeted:", 0) == 0) {
    const std::string n = s.substr(9);
    if (n.empty() || n.find_first_not_of("0123456789") != std::string::npos) return false;
    *mode = os::FailureMode::Budgeted;
    *budget = static_cast<std::uint32_t>(std::stoul(n));
  } else {
    return false;
  }
  return true;
}

void seed_demo_fs(os::SimFs& fs) {
  const std::string demo = "demo file contents\nsecond line\n";
  auto ino = fs.open("/", "/f.txt", os::SimFs::kWrOnly | os::SimFs::kCreat, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0,
           std::vector<std::uint8_t>(demo.begin(), demo.end()), false);
}

int cmd_run(const std::string& path, const std::vector<std::string>& args,
            const RunConfig& cfg) {
  const binary::Image img = binary::Image::deserialize(read_file(path));
  const crypto::Key128 run_key =
      cfg.key_seed.has_value() ? derived_key(*cfg.key_seed) : test_key();
  System sys(os::Personality::LinuxSim, run_key, cfg.monitor);
  sys.machine().set_dispatch(cfg.dispatch);
  sys.kernel().set_policy_shadow(cfg.shadow);
  sys.kernel().set_inline_tier(cfg.inline_tier);
  sys.kernel().set_failure_mode(cfg.failure);
  sys.kernel().set_violation_budget(cfg.budget);
  seed_demo_fs(sys.kernel().fs());

  if (cfg.monitor == os::Enforcement::Daemon || cfg.monitor == os::Enforcement::KernelTable) {
    // Table-driven monitors need a per-program policy in the kernel. Train
    // one with an unmonitored run of the same command line in a scratch
    // system, so the monitored run starts with a clean audit log.
    System trainer(os::Personality::LinuxSim, run_key, os::Enforcement::Off);
    seed_demo_fs(trainer.kernel().fs());
    auto pol = monitor::train_policy(trainer.machine(), img, {{args, ""}});
    sys.kernel().set_monitor_policy(img.name, pol);
    std::printf("[%s monitor: trained policy with %zu allowed syscalls]\n",
                os::enforcement_name(cfg.monitor).c_str(), pol.allowed.size());
  }

  // Live rotation demo: re-sign the image differentially up front, then
  // rotate the kernel to the new key at the rekey_at-th syscall, before the
  // kernel checks it. PreTrap fires at the caller's trap depth (0), so the
  // rotation always applies immediately; counters land in --stats.
  std::optional<installer::RekeyResult> live;
  if (cfg.rekey_at > 0) {
    const installer::SignManifest man =
        installer::SignManifest::deserialize(read_file(path + ".manifest"));
    live = installer::Rekeyer::rekey(img, man, run_key, derived_key(cfg.rekey_seed));
    sys.kernel().set_stage_hook([&, calls = std::uint64_t{0}](
                                    os::Process& p, os::TrapContext&, os::TrapStage s) mutable {
      if (s == os::TrapStage::PreTrap && ++calls == cfg.rekey_at) {
        sys.kernel().rekey(p, derived_key(cfg.rekey_seed), live->view);
      }
    });
  }

  auto r = sys.machine().run(img, args);
  std::printf("%s", r.stdout_data.c_str());
  if (r.violation != os::Violation::None) {
    std::printf("[killed by monitor: %s -- %s]\n", os::violation_name(r.violation).c_str(),
                r.violation_detail.c_str());
    return 2;
  }
  // Under budgeted / audit-only failure modes violations may have been
  // tolerated without killing the guest; surface them.
  std::size_t tolerated = 0;
  for (const auto& rec : sys.kernel().audit_log()) {
    if (rec.kind == os::AuditKind::Violation && !rec.killed) ++tolerated;
  }
  if (tolerated > 0) {
    std::printf("[%zu violation%s tolerated under %s]\n", tolerated, tolerated == 1 ? "" : "s",
                os::failure_mode_name(sys.kernel().failure_mode()).c_str());
    for (const auto& rec : sys.kernel().audit_log()) {
      std::printf("  %s\n", rec.to_string().c_str());
    }
  }
  std::printf("[exit %d, %llu syscalls, %llu cycles]\n", r.exit_code,
              static_cast<unsigned long long>(r.syscalls),
              static_cast<unsigned long long>(r.cycles));
  if (cfg.stats) {
    // One aligned table for the whole verification lattice: every verified
    // call lands in exactly one tier row, so the hit column sums to the
    // syscall count. Eager and inline have no miss concept (a failed inline
    // probe demotes the site and the call re-enters as a lower tier).
    const os::TierStats ts = sys.kernel().tier_stats();
    auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    auto rate = [](std::uint64_t hit, std::uint64_t miss) {
      return hit + miss == 0 ? 0.0 : 100.0 * static_cast<double>(hit) /
                                         static_cast<double>(hit + miss);
    };
    std::printf("[kernel tier stats]\n");
    std::printf("  %-10s %10s %10s %9s\n", "tier", "hits", "misses", "hit-rate");
    std::printf("  %-10s %10llu %10s %9s\n", "eager", u(ts.eager), "-", "-");
    std::printf("  %-10s %10llu %10llu %8.1f%%\n", "cached", u(ts.cached),
                u(ts.cache_misses), rate(ts.cached, ts.cache_misses));
    std::printf("  %-10s %10llu %10llu %8.1f%%\n", "shadowed", u(ts.shadowed),
                u(ts.shadow_misses), rate(ts.shadowed, ts.shadow_misses));
    std::printf("  %-10s %10llu %10s %9s\n", "inline", u(ts.inline_hits), "-", "-");
    std::printf("  promotions=%llu demotions=%llu", u(ts.promotions),
                u(ts.demotions_total()));
    for (std::size_t c = 0; c < os::kNumDemotionCauses; ++c) {
      if (ts.demotions[c] == 0) continue;
      std::printf(" %s=%llu",
                  os::demotion_cause_name(static_cast<os::DemotionCause>(c)).c_str(),
                  u(ts.demotions[c]));
    }
    std::printf("\n");
    // Live-rekey counters (Kernel::rekey): rotations applied to the running
    // process, requests parked until a trap boundary, and MAC slots patched
    // (including the policy-state re-MAC). Key-rotation demotions show up
    // in the demotion-by-cause list above.
    const os::RekeyCounters& rc = sys.kernel().rekey_counters();
    std::printf("  rekeys=%llu deferred=%llu macs-applied=%llu\n", u(rc.rekeys),
                u(rc.deferred), u(rc.macs_applied));
    // Execution-engine counters: which dispatch ran, which AES core signed,
    // and (threaded only) what the predecoder did.
    std::printf("[execution engine]\n");
    std::printf("  dispatch=%s aes=%s\n",
                cfg.dispatch == vm::DispatchMode::Threaded ? "threaded" : "switch",
                crypto::Aes128::backend_policy() == crypto::Aes128::BackendPolicy::Auto &&
                        crypto::Aes128::aesni_supported()
                    ? "aesni"
                    : "scratch");
    if (cfg.dispatch == vm::DispatchMode::Threaded) {
      const vm::PredecodeStats& ps = r.predecode;
      std::printf("  blocks=%llu uops=%llu superinstructions=%llu invalidations=%llu "
                  "exec-writes=%llu flushes=%llu\n",
                  u(ps.blocks), u(ps.uops), u(ps.superinstructions), u(ps.invalidations),
                  u(ps.exec_writes), u(ps.flushes));
    }
    // Kernel bookkeeping soundness: at teardown every hooked watch range
    // must have been released, and the health machine must have no residue.
    const auto& w = r.final_watch;
    std::printf("[watch-range accounting]\n");
    std::printf("  registered=%llu released=%llu peak-ranges=%llu live=%llu/%llu refs %s\n",
                u(w.registered), u(w.released), u(w.peak_ranges), u(w.live_ranges),
                u(w.live_refs),
                w.live_ranges == 0 && w.registered == w.released ? "(balanced)"
                                                                : "(LEAKED)");
    const auto& hs = sys.kernel().tier_table().health_stats();
    if (hs.internal_faults > 0) {
      std::printf("[health machine]\n");
      std::printf("  internal-faults=%llu degradations=%llu quarantines=%llu "
                  "repromotions=%llu recoveries=%llu\n",
                  u(hs.internal_faults), u(hs.degradations), u(hs.quarantines),
                  u(hs.repromotions), u(hs.recoveries));
    }
  }
  return r.completed ? r.exit_code : 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: asctool [--jobs N] build <name> <out.txe> | inspect <img.txe> |\n"
               "       install <in.txe> <out.txe> |\n"
               "       rekey <in.txe> <out.txe> --key-seed N [--old-key-seed M] |\n"
               "       run [--stats] [--no-shadow] [--no-inline] [--key-seed N]\n"
               "           [--rekey-at M] [--rekey-seed S]\n"
               "           [--monitor off|asc|daemon|ktable]\n"
               "           [--failure-mode fail-stop|budgeted:N|audit-only]\n"
               "           [--dispatch switch|threaded] [--aes scratch|auto]\n"
               "           <img.txe> [args...] |\n"
               "       campaign [--seed N] [--runs N] [--class POINT]...\n"
               "           [--spec POINT:T:0xS[:STAGE]]...\n"
               "           [--mode fail-stop|budgeted|audit-only] [--budget N] |\n"
               "       chaos [--tenants N] [--seed N] [--trace] [--stages s,...]\n"
               "           [--classes POINT,...] |\n"
               "       fleet [--tenants N] [--seed N] [--rotate N] [--swap N] [--respawn N]\n"
               "           [--tamper t,...] [--trace] [--audit]\n"
               "       --jobs N: worker threads for the installer's parallel phases and the\n"
               "                 lifecycle fan-out (default: ASC_JOBS, else hardware\n"
               "                 concurrency); output is identical at any job count\n"
               "       rekey re-signs an installed image differentially (no re-analysis)\n"
               "       using <in.txe>.manifest, written by install alongside its output\n"
               "       stages: trap enforce dispatch audit\n"
               "       POINT: STRIKE[@TIER], TIER in cached shadowed inline (default eager)\n"
               "       strikes:");
  for (std::size_t i = 0; i < fault::kNumStrikes; ++i) {
    std::fprintf(stderr, " %s", fault::strike_name(static_cast<fault::Strike>(i)).c_str());
  }
  std::fprintf(stderr, "\n");
  return 1;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parse every name of the comma-separated `csv` into `out`; false on an
/// unknown name or an empty list.
template <class T, class Parse>
bool parse_csv(const std::string& csv, Parse parse, std::vector<T>* out) {
  for (const auto& name : split_csv(csv)) {
    const std::optional<T> v = parse(name);
    if (!v) return false;
    out->push_back(*v);
  }
  return !out->empty();
}

/// Walk the `--flag [value]` arguments after a lifecycle subcommand.
/// `on(flag, value)` handles one (value is empty for `switches`) and
/// returns false on an unknown flag or a bad value.
bool each_flag(const std::vector<std::string>& av, const std::vector<std::string>& switches,
               const std::function<bool(const std::string&, const std::string&)>& on) {
  for (std::size_t i = 1; i < av.size(); ++i) {
    const std::string& flag = av[i];
    const bool sw = std::find(switches.begin(), switches.end(), flag) != switches.end();
    if (!sw && i + 1 == av.size()) return false;
    if (!on(flag, sw ? std::string() : av[++i])) return false;
  }
  return true;
}

bool parse_int_flag(const std::string& s, int* out, int min) {
  std::uint64_t v = 0;
  if (!parse_u64_flag(s, &v) || v > 1'000'000'000 || static_cast<int>(v) < min) return false;
  *out = static_cast<int>(v);
  return true;
}

int cmd_campaign(const std::vector<std::string>& av) {
  fault::CampaignConfig cfg;
  const bool ok = each_flag(av, {}, [&](const std::string& f, const std::string& a) {
    if (f == "--seed") return parse_u64_flag(a, &cfg.seed);
    if (f == "--runs") return parse_int_flag(a, &cfg.runs_per_point, 0);
    if (f == "--budget") {
      int b = 0;
      if (!parse_int_flag(a, &b, 0)) return false;
      cfg.violation_budget = static_cast<std::uint32_t>(b);
      return true;
    }
    if (f == "--mode") {
      if (a == "fail-stop") cfg.mode = os::FailureMode::FailStop;
      else if (a == "budgeted") cfg.mode = os::FailureMode::Budgeted;
      else if (a == "audit-only") cfg.mode = os::FailureMode::AuditOnly;
      else return false;
      return true;
    }
    if (f == "--class") {
      const auto point = fault::point_from_name(a);
      if (point) cfg.points.push_back(*point);
      return point.has_value();
    }
    if (f == "--spec") {
      const auto spec = fault::parse_spec(a);
      if (spec) cfg.explicit_specs.push_back(*spec);
      return spec.has_value();
    }
    return false;
  });
  if (!ok) return usage();

  const auto pers = fault::kPersonality;
  const auto fs = fault::fixture({{"/lines.txt", "pear\napple\nmango\ncherry\nbanana\n"}});
  const std::vector<fault::GuestProgram> guests{
      {"cat", apps::build_tool_cat(pers), {"/lines.txt"}, "", {}, fs},
      {"vuln_echo", apps::build_vuln_echo(pers), {}, "/lines.txt\n",
       {{"/bin/ls", apps::build_tool_cat(pers)}}, fs},
      fault::getpid_loop_guest(pers)};
  fault::CampaignResult total;
  for (const auto& guest : guests) {
    std::printf("== %s (seed=%llu, %d runs/point, mode=%s) ==\n", guest.name.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.runs_per_point,
                os::failure_mode_name(cfg.mode).c_str());
    const fault::CampaignResult r = fault::Campaign(cfg).run(guest);
    if (!cfg.explicit_specs.empty()) {
      for (const auto& v : r.verdicts) {
        std::printf("  [%s] %s %s: %s (%s)\n", fault::outcome_name(v.outcome).c_str(),
                    v.program.c_str(), v.repro.c_str(), v.detail.c_str(),
                    os::violation_name(v.violation).c_str());
      }
    }
    std::printf("%s\n", r.summary().c_str());
    total.merge(r);
  }
  std::printf("== combined ==\n%s", total.summary().c_str());
  if (!total.invariant_holds()) {
    std::printf("\nINVARIANT VIOLATIONS:\n");
    for (const auto& v : total.verdicts) {
      if (v.outcome == fault::Outcome::WrongVerdict || v.outcome == fault::Outcome::SilentBypass ||
          v.outcome == fault::Outcome::HostCrash || !v.trips.empty()) {
        std::printf("  [%s] %s: %s (%s)\n    replay: asctool campaign --spec %s\n",
                    fault::outcome_name(v.outcome).c_str(), v.program.c_str(),
                    v.detail.c_str(), os::violation_name(v.violation).c_str(),
                    v.repro.c_str());
      }
    }
    std::printf("FAIL: fail-stop invariant broken\n");
    return 1;
  }
  std::printf("OK: %d applied mutations, invariant holds\n", total.total_applied());
  return 0;
}

int cmd_chaos(const std::vector<std::string>& av) {
  fault::ChaosConfig cfg;
  bool trace = false;
  const bool ok = each_flag(av, {"--trace"}, [&](const std::string& f, const std::string& a) {
    if (f == "--trace") return trace = true;
    if (f == "--tenants") return parse_int_flag(a, &cfg.tenants, 1);
    if (f == "--seed") return parse_u64_flag(a, &cfg.seed);
    if (f == "--stages") return parse_csv(a, fault::trap_stage_from_name, &cfg.stages);
    if (f == "--classes") return parse_csv(a, fault::point_from_name, &cfg.points);
    return false;
  });
  if (!ok) return usage();
  std::printf("== chaos soak: %d tenants, seed %llu ==\n", cfg.tenants,
              static_cast<unsigned long long>(cfg.seed));
  const fault::ChaosResult r = fault::ChaosEngine(cfg).run();
  if (trace) {
    for (const auto& line : r.verdict_trace) std::printf("%s\n", line.c_str());
  }
  std::printf("%s", r.summary().c_str());
  if (!r.ok()) {
    std::printf("FAIL: kernel lifecycle bookkeeping oracle tripped\n");
    return 1;
  }
  std::printf("OK: %zu lifecycles, all oracles held\n", r.lifecycles.size());
  return 0;
}

int cmd_fleet(const std::vector<std::string>& av) {
  fleet::FleetConfig cfg;
  bool trace = false;
  bool audit = false;
  const bool ok =
      each_flag(av, {"--trace", "--audit"}, [&](const std::string& f, const std::string& a) {
        if (f == "--trace") return trace = true;
        if (f == "--audit") return audit = true;
        if (f == "--tenants") return parse_int_flag(a, &cfg.tenants, 1);
        if (f == "--seed") return parse_u64_flag(a, &cfg.seed);
        if (f == "--rotate") return parse_int_flag(a, &cfg.rotate_every, 0);
        if (f == "--swap") return parse_int_flag(a, &cfg.swap_every, 0);
        if (f == "--respawn") return parse_int_flag(a, &cfg.respawn_every, 0);
        if (f == "--tamper") {
          for (const auto& t : split_csv(a)) {
            int tenant = 0;
            if (!parse_int_flag(t, &tenant, 0)) return false;
            cfg.tamper_tenants.push_back(tenant);
          }
          return !cfg.tamper_tenants.empty();
        }
        return false;
      });
  if (!ok) return usage();
  std::printf("== fleet: %d tenants, seed %llu ==\n", cfg.tenants,
              static_cast<unsigned long long>(cfg.seed));
  const fleet::FleetResult r = fleet::Driver(cfg).run();
  if (trace) {
    for (const auto& line : r.verdict_trace) std::printf("%s\n", line.c_str());
  }
  if (audit) {
    for (const auto& line : r.audit.lines) std::printf("%s\n", line.c_str());
  }
  std::printf("%s", r.summary().c_str());
  if (!r.ok()) {
    std::printf("FAIL: fleet invariant oracle tripped\n");
    return 1;
  }
  std::printf("OK: %zu tenant lifecycles, all oracles held\n", r.tenants.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // --jobs is accepted by every command (it sizes the process-global
    // executor pool); strip it before dispatch. Without the flag the pool
    // follows ASC_JOBS, else the hardware concurrency.
    std::vector<std::string> av;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--jobs" && i + 1 < argc) {
        const std::string n = argv[++i];
        if (n.empty() || n.find_first_not_of("0123456789") != std::string::npos ||
            std::stoul(n) == 0) {
          std::fprintf(stderr, "asctool: bad --jobs %s (want a positive integer)\n", n.c_str());
          return 1;
        }
        util::Executor::set_global_jobs(static_cast<int>(std::stoul(n)));
      } else {
        av.push_back(a);
      }
    }
    const auto ac = static_cast<int>(av.size());
    const std::string cmd = ac > 0 ? av[0] : "";
    if (cmd == "build" && ac == 3) return cmd_build(av[1], av[2]);
    if (cmd == "inspect" && ac == 2) return cmd_inspect(av[1]);
    if (cmd == "install" && ac == 3) return cmd_install(av[1], av[2]);
    if (cmd == "campaign") return cmd_campaign(av);
    if (cmd == "chaos") return cmd_chaos(av);
    if (cmd == "fleet") return cmd_fleet(av);
    if (cmd == "rekey" && ac >= 3) {
      std::uint64_t key_seed = 1;
      std::optional<std::uint64_t> old_key_seed;
      std::vector<std::string> pos;
      for (int i = 1; i < ac; ++i) {
        const std::string a = av[i];
        std::uint64_t v = 0;
        if (a == "--key-seed" && i + 1 < ac) {
          if (!parse_u64_flag(av[++i], &key_seed)) {
            std::fprintf(stderr, "asctool: bad --key-seed %s (want an integer)\n", av[i].c_str());
            return 1;
          }
        } else if (a == "--old-key-seed" && i + 1 < ac) {
          if (!parse_u64_flag(av[++i], &v)) {
            std::fprintf(stderr, "asctool: bad --old-key-seed %s (want an integer)\n",
                         av[i].c_str());
            return 1;
          }
          old_key_seed = v;
        } else {
          pos.push_back(a);
        }
      }
      if (pos.size() == 2) return cmd_rekey(pos[0], pos[1], key_seed, old_key_seed);
    }
    if (cmd == "run" && ac >= 2) {
      RunConfig cfg;
      std::vector<std::string> args;
      int i = 1;
      for (; i < ac; ++i) {
        const std::string a = av[i];
        if (a == "--stats") {
          cfg.stats = true;
        } else if (a == "--no-shadow") {
          cfg.shadow = false;
        } else if (a == "--no-inline") {
          cfg.inline_tier = false;
        } else if (a == "--monitor" && i + 1 < ac) {
          if (!parse_monitor_flag(av[++i], &cfg.monitor)) {
            std::fprintf(stderr, "asctool: bad --monitor %s (off|asc|daemon|ktable)\n",
                         av[i].c_str());
            return 1;
          }
        } else if (a == "--dispatch" && i + 1 < ac) {
          if (!parse_dispatch_flag(av[++i], &cfg.dispatch)) {
            std::fprintf(stderr, "asctool: bad --dispatch %s (switch|threaded)\n", av[i].c_str());
            return 1;
          }
        } else if (a == "--aes" && i + 1 < ac) {
          if (!parse_aes_flag(av[++i])) {
            std::fprintf(stderr, "asctool: bad --aes %s (scratch|auto)\n", av[i].c_str());
            return 1;
          }
        } else if (a == "--key-seed" && i + 1 < ac) {
          std::uint64_t v = 0;
          if (!parse_u64_flag(av[++i], &v)) {
            std::fprintf(stderr, "asctool: bad --key-seed %s (want an integer)\n", av[i].c_str());
            return 1;
          }
          cfg.key_seed = v;
        } else if (a == "--rekey-at" && i + 1 < ac) {
          if (!parse_u64_flag(av[++i], &cfg.rekey_at) || cfg.rekey_at == 0) {
            std::fprintf(stderr, "asctool: bad --rekey-at %s (want a positive integer)\n",
                         av[i].c_str());
            return 1;
          }
        } else if (a == "--rekey-seed" && i + 1 < ac) {
          if (!parse_u64_flag(av[++i], &cfg.rekey_seed)) {
            std::fprintf(stderr, "asctool: bad --rekey-seed %s (want an integer)\n",
                         av[i].c_str());
            return 1;
          }
        } else if (a == "--failure-mode" && i + 1 < ac) {
          if (!parse_failure_mode_flag(av[++i], &cfg.failure, &cfg.budget)) {
            std::fprintf(stderr,
                         "asctool: bad --failure-mode %s (fail-stop|budgeted:N|audit-only)\n",
                         av[i].c_str());
            return 1;
          }
        } else {
          break;  // first non-flag is the image path
        }
      }
      if (i < ac) {
        const std::string img_path = av[i++];
        for (; i < ac; ++i) args.push_back(av[i]);
        return cmd_run(img_path, args, cfg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asctool: %s\n", e.what());
    return 1;
  }
  return usage();
}
