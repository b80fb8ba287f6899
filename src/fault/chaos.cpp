#include "fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "installer/rekeyer.h"
#include "isa/isa.h"
#include "policy/descriptor.h"
#include "policy/policy.h"
#include "util/error.h"
#include "util/executor.h"
#include "util/rng.h"

namespace asc::fault {

std::string chaos_plan_name(ChaosPlan p) {
  switch (p) {
    case ChaosPlan::Clean: return "clean";
    case ChaosPlan::Tamper: return "tamper";
    case ChaosPlan::Internal: return "internal";
  }
  return "?";
}

namespace {

crypto::Key128 chaos_mismatched_key() {
  crypto::Key128 k = test_key();
  for (auto& b : k) b = static_cast<std::uint8_t>(b ^ 0x3c);
  return k;
}

/// Rotation-churn target: a genuinely different key the tenant rekeys its
/// template to before the fault run.
crypto::Key128 chaos_rotation_key() { return derived_key(0xC4A00001ULL); }

/// RekeyToctou payload key: where a coherent mid-run Kernel::rekey lands.
crypto::Key128 chaos_rekey_key() { return derived_key(0xC4A00002ULL); }

void chaos_fs(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc,
                       0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  put("/f.txt", "aaaaaabbbbcccccccccddd\nmore text here\n" + std::string(512, 'q'));
  put("/lines.txt", "pear\napple\nmango\ncherry\nbanana\n");
  put("/in.c", "int main() { return 42; }\n" + std::string(600, 'x') + "\n");
  put("/etc/vuln.conf", "mode=list\n");
}

/// The clean reference: behavior baseline, syscall count, and the per-call
/// policy-state snapshots CrossReplay donors come from.
struct CleanRef {
  bool completed = false;
  int exit_code = 0;
  std::string out;
  std::string err;
  int n_calls = 0;
  std::map<int, std::vector<std::uint8_t>> snapshots;
};

/// One guest, installed once under test_key(). The key-independent
/// SignManifest kept with each image lets rotation churn and RekeyToctou
/// payloads rekey the ONE template (installer::Rekeyer, O(MAC surface))
/// instead of re-installing.
struct InstalledHelper {
  std::string path;
  binary::Image image;
  installer::SignManifest manifest;
};
struct GuestArtifacts {
  const GuestProgram* prog = nullptr;
  binary::Image installed;
  installer::SignManifest manifest;
  std::vector<InstalledHelper> helpers;
  CleanRef clean;
};

/// Tight getpid loop: the only default guest whose sites actually promote to
/// the Inline tier, so promo-toctou tampers land inside the trap-less
/// window. Joined to the pool only when ChaosConfig::inline_tier is set.
GuestProgram inline_loop_guest(os::Personality p) {
  using namespace asc::apps;
  tasm::Assembler a("pidloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, 48);
  a.store(SP, 0, R11);
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  a.call("sys_getpid");
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  emit_libc(a, p);
  GuestProgram g;
  g.name = "pidloop";
  g.image = a.link();
  g.prepare_fs = chaos_fs;
  return g;
}

}  // namespace

std::vector<GuestProgram> default_chaos_guests(os::Personality p) {
  // Rerun-idempotent guests only: every run starts from a re-prepared
  // filesystem, so a lifecycle's recovery run must reproduce the clean
  // reference byte-for-byte (rm/mv-style destructive tools would diverge on
  // their own leftovers). vuln_echo spawns a child, so teardown storms
  // include nested processes.
  std::vector<GuestProgram> out;
  {
    GuestProgram g;
    g.name = "cat";
    g.image = apps::build_tool_cat(p);
    g.argv = {"/lines.txt", "/in.c"};
    g.prepare_fs = chaos_fs;
    out.push_back(std::move(g));
  }
  {
    GuestProgram g;
    g.name = "sort";
    g.image = apps::build_tool_sort(p);
    g.argv = {"/lines.txt"};
    g.prepare_fs = chaos_fs;
    out.push_back(std::move(g));
  }
  {
    GuestProgram g;
    g.name = "cp";
    g.image = apps::build_tool_cp(p);
    g.argv = {"/lines.txt", "/chaos-copy.txt"};
    g.prepare_fs = chaos_fs;
    out.push_back(std::move(g));
  }
  {
    GuestProgram g;
    g.name = "gzip";
    g.image = apps::build_gzip(p);
    g.argv = {"/f.txt"};
    g.prepare_fs = chaos_fs;
    out.push_back(std::move(g));
  }
  {
    GuestProgram g;
    g.name = "vuln_echo";
    g.image = apps::build_vuln_echo(p);
    g.stdin_data = "/lines.txt\n";
    g.helpers.emplace_back("/bin/ls", apps::build_tool_cat(p));
    g.prepare_fs = chaos_fs;
    out.push_back(std::move(g));
  }
  return out;
}

std::string ChaosResult::summary() const {
  char buf[240];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "chaos: %zu lifecycles (clean=%d tamper=%d internal=%d) "
                "detected=%d benign=%d not-applied=%d\n",
                lifecycles.size(), clean_plans, tamper_plans, internal_plans, detected,
                benign, not_applied);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "health: internal-faults=%llu degradations=%llu quarantines=%llu "
                "repromotions=%llu recoveries=%llu\n",
                static_cast<unsigned long long>(health.internal_faults),
                static_cast<unsigned long long>(health.degradations),
                static_cast<unsigned long long>(health.quarantines),
                static_cast<unsigned long long>(health.repromotions),
                static_cast<unsigned long long>(health.recoveries));
  out += buf;
  std::snprintf(buf, sizeof buf, "oracle trips: %zu\n", trips.size());
  out += buf;
  for (const auto& t : trips) out += "  " + t + "\n";
  return out;
}

ChaosResult ChaosEngine::run() {
  std::vector<GuestProgram> pool =
      cfg_.guests.empty() ? default_chaos_guests(cfg_.personality) : cfg_.guests;
  if (cfg_.inline_tier && cfg_.guests.empty()) {
    pool.push_back(inline_loop_guest(cfg_.personality));
  }
  if (pool.empty()) throw Error("chaos: empty guest pool");

  // ---- install every guest once, harvest clean references serially ----
  std::vector<GuestArtifacts> arts(pool.size());
  for (std::size_t g = 0; g < pool.size(); ++g) {
    GuestArtifacts& art = arts[g];
    art.prog = &pool[g];
    System inst_sys(cfg_.personality);
    installer::InstallResult gi = inst_sys.install(pool[g].image);
    art.installed = std::move(gi.image);
    art.manifest = std::move(gi.manifest);
    for (const auto& [path, img] : pool[g].helpers) {
      installer::InstallResult hi = inst_sys.install(img);
      art.helpers.push_back(
          InstalledHelper{path, std::move(hi.image), std::move(hi.manifest)});
    }
    // Reference run with the shadow off: the eager protocol materializes a
    // distinct {lastBlock, MAC} record at every call, which is what the
    // CrossReplay donor snapshots need (under lazy write-back every snapshot
    // would hold the same stale bytes).
    System sys(cfg_.personality);
    sys.kernel().set_policy_shadow(false);
    if (pool[g].prepare_fs) pool[g].prepare_fs(sys.kernel().fs());
    for (const auto& h : art.helpers) sys.machine().register_program(h.path, h.image);
    sys.machine().set_cycle_limit(cfg_.cycle_limit);
    int calls = 0;
    sys.machine().pre_syscall_hook = [&](os::Process& p, std::uint32_t) {
      ++calls;
      const auto& regs = p.cpu.regs;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (policy::Descriptor(regs[isa::kRegPolicyDescriptor]).control_flow_constrained() &&
          p.mem.in_range(lb, policy::kPolicyStateSize)) {
        art.clean.snapshots[calls] = p.mem.read_bytes(lb, policy::kPolicyStateSize);
      }
    };
    const vm::RunResult r =
        sys.machine().run(art.installed, pool[g].argv, pool[g].stdin_data);
    if (!r.completed || r.violation != os::Violation::None) {
      throw Error("chaos: clean reference run of " + pool[g].name +
                  " failed: " + r.violation_detail);
    }
    art.clean.completed = r.completed;
    art.clean.exit_code = r.exit_code;
    art.clean.out = r.stdout_data;
    art.clean.err = r.stderr_data;
    art.clean.n_calls = calls;
    if (calls == 0) throw Error("chaos: " + pool[g].name + " makes no system calls");
  }

  // With the inline tier on, the default Tamper pool widens to the extended
  // class list (promo-toctou included); the legacy default stays byte-stable.
  const auto classes = !cfg_.classes.empty()
                           ? cfg_.classes
                           : (cfg_.inline_tier ? extended_mutation_classes()
                                               : all_mutation_classes());
  const auto stage_pool = cfg_.stages.empty() ? all_trap_stages() : cfg_.stages;
  const util::Rng root(cfg_.seed);

  // ---- one tenant lifecycle ----
  auto lifecycle = [&](int tenant) -> LifecycleVerdict {
    LifecycleVerdict lc;
    lc.tenant = tenant;
    util::Rng rng = root.derive(0xC4A05EEDULL ^ static_cast<std::uint64_t>(tenant));
    const GuestArtifacts& art = arts[rng.next_below(arts.size())];
    lc.guest = art.prog->name;

    const std::uint64_t roll = rng.next_below(100);
    lc.plan = roll < 30 ? ChaosPlan::Clean : roll < 70 ? ChaosPlan::Tamper
                                                       : ChaosPlan::Internal;
    // Churn decisions (drawn unconditionally so plan choice never shifts
    // the stream consumed by later draws).
    const bool rotate_churn = rng.chance(2, 5);
    const bool monitor_swap = rng.chance(3, 10);
    const bool shadow_toggle = rng.chance(3, 10);
    const std::uint64_t mode_roll = rng.next_below(3);
    // Guest tamper must fail-stop (the acceptance criterion), so Tamper
    // plans pin FailStop; the permissive modes exercise the health machine
    // and churn paths instead.
    const os::FailureMode mode =
        lc.plan == ChaosPlan::Tamper
            ? os::FailureMode::FailStop
            : (mode_roll == 0 ? os::FailureMode::FailStop
                              : mode_roll == 1 ? os::FailureMode::Budgeted
                                               : os::FailureMode::AuditOnly);

    System sys(cfg_.personality);
    sys.kernel().set_failure_mode(mode);
    if (mode == os::FailureMode::Budgeted) sys.kernel().set_violation_budget(2);
    sys.kernel().tier_table().set_health_promote_threshold(cfg_.promote_threshold);
    sys.kernel().tier_table().set_health_backoff_cap(cfg_.backoff_cap);
    if (cfg_.inline_tier) {
      sys.kernel().set_inline_tier(true);
      sys.kernel().tier_table().set_inline_threshold(2);
    }
    for (const auto& h : art.helpers) sys.machine().register_program(h.path, h.image);
    sys.machine().set_cycle_limit(cfg_.cycle_limit);

    // The CURRENT template: rotation churn swaps in a rekeyed image, and
    // the recovery run resets back to the test_key() original.
    const binary::Image* run_image = &art.installed;
    crypto::Key128 cur_key = test_key();
    std::optional<installer::RekeyResult> rotated;
    std::vector<std::pair<std::string, binary::Image>> rotated_helpers;

    auto trip = [&](const std::string& what) {
      lc.trips.push_back("tenant " + std::to_string(tenant) + " (" + lc.guest + ", " +
                         chaos_plan_name(lc.plan) + " " + lc.plan_repr +
                         ", seed=" + std::to_string(cfg_.seed) + "): " + what);
    };

    // Every run starts from a re-prepared filesystem so reruns are
    // comparable against the clean reference.
    auto run_once = [&](vm::RunResult& r) -> bool {
      if (art.prog->prepare_fs) art.prog->prepare_fs(sys.kernel().fs());
      try {
        r = sys.machine().run(*run_image, art.prog->argv, art.prog->stdin_data);
      } catch (const std::exception& e) {
        trip(std::string("host crash: ") + e.what());
        return false;
      } catch (...) {
        trip("host crash: non-standard exception");
        return false;
      }
      return true;
    };

    // The invariant oracles, audited after EVERY run: between runs no
    // process is alive, so every pid-keyed structure must be empty and the
    // main process's watch accounting must balance.
    auto audit_bookkeeping = [&](const vm::RunResult& r, const char* where) {
      const auto& w = r.final_watch;
      if (w.live_ranges != 0 || w.live_refs != 0) {
        trip(std::string(where) + ": teardown leaked " + std::to_string(w.live_ranges) +
             " watch ranges / " + std::to_string(w.live_refs) + " refs");
      }
      if (w.registered != w.released) {
        trip(std::string(where) + ": watch accounting unbalanced (registered=" +
             std::to_string(w.registered) + " released=" + std::to_string(w.released) + ")");
      }
      if (sys.kernel().tier_table().sites() != 0) {
        trip(std::string(where) + ": site records for dead pids");
      }
      if (sys.kernel().tier_table().pids() != 0) {
        trip(std::string(where) + ": shadow/health records for dead pids");
      }
    };

    auto behaves_like_clean = [&](const vm::RunResult& r) {
      return r.completed == art.clean.completed && r.exit_code == art.clean.exit_code &&
             r.stdout_data == art.clean.out && r.stderr_data == art.clean.err;
    };

    auto violations_since = [&](std::size_t mark) {
      std::vector<const os::VerdictRecord*> out;
      const auto& recs = sys.kernel().audit_log();
      for (std::size_t i = mark; i < recs.size(); ++i) {
        if (recs[i].kind == os::AuditKind::Violation) out.push_back(&recs[i]);
      }
      return out;
    };

    // ---- churn before the fault run ----
    // Rotation churn is a GENUINE rotation: the tenant rekeys its template
    // to a fresh key (O(MAC surface) via the Rekeyer) and the kernel moves
    // to that key -- flushing the shard's fast paths exactly as set_key
    // always did, but every subsequent trap now verifies new material.
    if (rotate_churn) {
      rotated = installer::Rekeyer::rekey(art.installed, art.manifest, test_key(),
                                          chaos_rotation_key());
      for (const auto& h : art.helpers) {
        rotated_helpers.emplace_back(
            h.path,
            installer::Rekeyer::rekey(h.image, h.manifest, test_key(), chaos_rotation_key())
                .image);
      }
      for (const auto& [path, img] : rotated_helpers) {
        sys.machine().register_program(path, img);
      }
      sys.kernel().set_key(chaos_rotation_key());
      run_image = &rotated->image;
      cur_key = chaos_rotation_key();
    }
    if (monitor_swap) sys.kernel().set_enforcement(os::Enforcement::Asc);  // fresh monitor
    if (shadow_toggle) {
      sys.kernel().set_policy_shadow(false);  // flushes every live record
      sys.kernel().set_policy_shadow(true);
    }

    // ---- the fault run ----
    std::size_t audit_mark = sys.kernel().audit_log().size();
    vm::RunResult fr;

    if (lc.plan == ChaosPlan::Tamper) {
      FaultSpec spec;
      spec.cls = classes[rng.next_below(classes.size())];
      spec.trigger_call =
          1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(art.clean.n_calls)));
      spec.seed = rng.next_u64();
      std::vector<os::TrapStage> allowed;
      for (const auto s : stage_pool) {
        if (stage_allowed(spec.cls, s)) allowed.push_back(s);
      }
      if (allowed.empty()) allowed.push_back(os::TrapStage::Trap);
      if (stage_targetable(spec.cls)) {
        spec.stage = allowed[rng.next_below(allowed.size())];
      }
      const std::uint64_t donor_pick = rng.next_u64();  // drawn unconditionally

      auto attempt = [&](const FaultSpec& s) -> Outcome {
        FaultInjector inj(s);
        if (s.cls == MutationClass::RotationDuringTrap) {
          inj.set_rotation_key(chaos_mismatched_key());
        }
        std::optional<installer::RekeyResult> rekey_rk;
        if (s.cls == MutationClass::RekeyToctou) {
          // Coherent payload for the CURRENT template/key: the strike must
          // be benign, so the view (and any spawn helpers) have to match
          // what actually runs under the new key.
          rekey_rk = installer::Rekeyer::rekey(*run_image, art.manifest, cur_key,
                                               chaos_rekey_key());
          std::vector<std::pair<std::string, binary::Image>> rekeyed_helpers;
          for (std::size_t h = 0; h < art.helpers.size(); ++h) {
            const binary::Image& base =
                rotated_helpers.empty() ? art.helpers[h].image : rotated_helpers[h].second;
            rekeyed_helpers.emplace_back(
                art.helpers[h].path,
                installer::Rekeyer::rekey(base, art.helpers[h].manifest, cur_key,
                                          chaos_rekey_key())
                    .image);
          }
          inj.set_rekey(chaos_rekey_key(), rekey_rk->view, std::move(rekeyed_helpers));
        }
        if (s.cls == MutationClass::KeyMismatch) {
          sys.kernel().set_key(chaos_mismatched_key());
        }
        if (s.cls == MutationClass::CrossReplay) {
          std::vector<int> donors;
          for (const auto& [call, bytes] : art.clean.snapshots) {
            if (call != s.trigger_call) donors.push_back(call);
          }
          if (!donors.empty()) {
            inj.set_replay_state(art.clean.snapshots.at(donors[donor_pick % donors.size()]));
          }
        }
        inj.arm(sys.machine());
        audit_mark = sys.kernel().audit_log().size();
        if (!run_once(fr)) return Outcome::HostCrash;
        audit_bookkeeping(fr, "fault run");
        const auto viols = violations_since(audit_mark);
        if (!viols.empty()) {
          const os::VerdictRecord* first = viols.front();
          lc.violation = first->violation;
          const auto& exp = expected_violations(s.cls);
          if (std::find(exp.begin(), exp.end(), first->violation) == exp.end()) {
            trip("wrong verdict " + os::violation_name(first->violation) + " [repro " +
                 lc.guest + " " + spec_repr(s) + "]");
            return Outcome::WrongVerdict;
          }
          if (!first->killed) {
            trip("tamper detected but did not fail-stop [repro " + lc.guest + " " +
                 spec_repr(s) + "]");
          }
          return Outcome::Detected;
        }
        if (!inj.applied()) return Outcome::NotApplied;
        if (!behaves_like_clean(fr)) {
          trip("silent bypass: behavior diverged without a verdict [repro " + lc.guest +
               " " + spec_repr(s) + "]");
          return Outcome::SilentBypass;
        }
        return Outcome::Benign;
      };

      lc.plan_repr = spec_repr(spec);
      lc.fault_outcome = attempt(spec);
      ++lc.runs;
      if (lc.fault_outcome == Outcome::NotApplied && spec.trigger_call > 1) {
        FaultSpec retry = spec;
        retry.trigger_call = 1;
        lc.plan_repr = spec_repr(retry);
        lc.fault_outcome = attempt(retry);
        ++lc.runs;
      }
    } else if (lc.plan == ChaosPlan::Internal) {
      // Injected internal inconsistencies: a shadow-nonce desync the kernel's
      // per-trap self-check must catch, plus two oracle-style reports that
      // push the pid through Degraded into Quarantined (and deepen once).
      const int bump_at = 2 + static_cast<int>(rng.next_below(3));
      const int report_at = bump_at + 2 + static_cast<int>(rng.next_below(3));
      int injected = 0;
      int calls = 0;
      lc.plan_repr = "bump@" + std::to_string(bump_at) + "+report@" +
                     std::to_string(report_at) + ",@" + std::to_string(report_at + 1);
      sys.machine().pre_syscall_hook = [&](os::Process& p, std::uint32_t) {
        ++calls;
        if (calls == bump_at && sys.kernel().tier_table().shadow(p.pid) != nullptr) {
          // Desynchronize the kernel's own nonce copy; the next trap's
          // self-check must flag it and resync under the bumped counter.
          ++p.asc_counter;
          ++injected;
        }
        if (calls == report_at || calls == report_at + 1) {
          sys.kernel().report_internal_fault(p, "chaos: oracle-reported inconsistency");
          ++injected;
        }
      };
      if (!run_once(fr)) return lc;
      ++lc.runs;
      audit_bookkeeping(fr, "internal run");
      if (!violations_since(audit_mark).empty()) {
        trip("internal fault escalated to a Violation verdict (must never touch the "
             "violation budget)");
      }
      if (!behaves_like_clean(fr)) {
        trip("internal fault changed guest behavior (quarantine must be transparent)");
      }
      const auto& hs = sys.kernel().tier_table().health_stats();
      if (hs.internal_faults != static_cast<std::uint64_t>(injected)) {
        trip("health machine counted " + std::to_string(hs.internal_faults) +
             " internal faults, injected " + std::to_string(injected));
      }
      if (injected >= 2 && hs.quarantines == 0 && hs.degradations != 0) {
        // Two faults on one pid must reach Quarantined (unless the second
        // landed on a different process of a spawning guest).
        const bool spawning = !art.helpers.empty();
        if (!spawning) trip("repeated internal faults never quarantined the pid");
      }
      sys.machine().pre_syscall_hook = nullptr;
    } else {
      if (!run_once(fr)) return lc;
      ++lc.runs;
      audit_bookkeeping(fr, "clean run");
      if (!violations_since(audit_mark).empty()) {
        trip("clean churn run yielded a Violation verdict");
      }
      if (!behaves_like_clean(fr)) trip("clean churn run diverged from the reference");
    }

    // ---- the recovery run ----
    // Whatever the fault did -- kill, rotation, rekey, teardown, quarantine
    // -- the SAME kernel must run the guest again, byte-identically to the
    // clean reference. Hooks are cleared, the key restored, and the run
    // template reset to the test_key() original first (KeyMismatch /
    // RotationDuringTrap / RekeyToctou / rotation churn leave a foreign key
    // or a rekeyed template installed; set_key is the documented rotation
    // path and flushes coherently). A still-pending Kernel::rekey request
    // is fine: it lands at the recovery run's first trap boundary, verifies
    // the fresh guest under the restored key, and moves it coherently.
    sys.machine().pre_syscall_hook = nullptr;
    sys.kernel().set_stage_hook({});
    sys.kernel().set_key(test_key());
    run_image = &art.installed;
    for (const auto& h : art.helpers) sys.machine().register_program(h.path, h.image);
    audit_mark = sys.kernel().audit_log().size();
    vm::RunResult rr;
    if (run_once(rr)) {
      ++lc.runs;
      audit_bookkeeping(rr, "recovery run");
      if (!violations_since(audit_mark).empty()) {
        trip("recovery run yielded a Violation verdict");
      }
      if (!behaves_like_clean(rr)) trip("recovery run diverged from the clean reference");
    }

    // ---- audit-log coherence oracle ----
    {
      const auto& recs = sys.kernel().audit_log();
      for (std::size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].kind == os::AuditKind::InternalFault) {
          bool followed = false;
          for (std::size_t j = i + 1; j < recs.size() && !followed; ++j) {
            followed = recs[j].kind == os::AuditKind::Health && recs[j].pid == recs[i].pid;
          }
          if (!followed) {
            trip("InternalFault record without a matching Health transition (pid " +
                 std::to_string(recs[i].pid) + ")");
          }
        }
        if (recs[i].kind == os::AuditKind::Violation && recs[i].prog.empty()) {
          trip("Violation record missing its program name");
        }
      }
    }

    lc.health = sys.kernel().tier_table().health_stats();
    char line[240];
    std::snprintf(line, sizeof line,
                  "#%03d %-9s plan=%-8s mode=%s repr=%s outcome=%s v=%s "
                  "hf=%llu d/q=%llu/%llu rp/rc=%llu/%llu runs=%d trips=%zu",
                  tenant, lc.guest.c_str(), chaos_plan_name(lc.plan).c_str(),
                  os::failure_mode_name(mode).c_str(), lc.plan_repr.c_str(),
                  outcome_name(lc.fault_outcome).c_str(),
                  os::violation_name(lc.violation).c_str(),
                  static_cast<unsigned long long>(lc.health.internal_faults),
                  static_cast<unsigned long long>(lc.health.degradations),
                  static_cast<unsigned long long>(lc.health.quarantines),
                  static_cast<unsigned long long>(lc.health.repromotions),
                  static_cast<unsigned long long>(lc.health.recoveries), lc.runs,
                  lc.trips.size());
    lc.trace_line = line;
    return lc;
  };

  // ---- fan the lifecycles out; aggregate in tenant order ----
  std::vector<LifecycleVerdict> lcs =
      util::resolve_executor(cfg_.executor)
          .parallel_map<LifecycleVerdict>(static_cast<std::size_t>(cfg_.tenants),
                                          [&](std::size_t t) {
                                            return lifecycle(static_cast<int>(t));
                                          });

  ChaosResult result;
  for (LifecycleVerdict& lc : lcs) {
    switch (lc.plan) {
      case ChaosPlan::Clean: ++result.clean_plans; break;
      case ChaosPlan::Tamper: ++result.tamper_plans; break;
      case ChaosPlan::Internal: ++result.internal_plans; break;
    }
    if (lc.plan == ChaosPlan::Tamper) {
      if (lc.fault_outcome == Outcome::Detected) ++result.detected;
      if (lc.fault_outcome == Outcome::Benign) ++result.benign;
      if (lc.fault_outcome == Outcome::NotApplied) ++result.not_applied;
    }
    result.health.internal_faults += lc.health.internal_faults;
    result.health.degradations += lc.health.degradations;
    result.health.quarantines += lc.health.quarantines;
    result.health.repromotions += lc.health.repromotions;
    result.health.recoveries += lc.health.recoveries;
    result.trips.insert(result.trips.end(), lc.trips.begin(), lc.trips.end());
    result.verdict_trace.push_back(lc.trace_line);
    result.lifecycles.push_back(std::move(lc));
  }
  return result;
}

}  // namespace asc::fault
