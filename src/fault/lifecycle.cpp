#include "fault/lifecycle.h"

#include <algorithm>

#include "apps/libtoy.h"
#include "isa/isa.h"
#include "policy/descriptor.h"
#include "policy/policy.h"
#include "tasm/assembler.h"
#include "util/error.h"

namespace asc::fault {

namespace {

/// A key the guests were never signed under: the target of a mid-trap
/// rotation.
crypto::Key128 foreign_key() {
  crypto::Key128 k = test_key();
  for (auto& b : k) b = static_cast<std::uint8_t>(b ^ 0x5a);
  return k;
}

/// The one kernel configuration: the inline tier on with a low promotion
/// threshold so sites promote within a run, and a small health threshold so
/// the full Quarantined -> Degraded -> Healthy arc fits in one guest run.
void configure(System& sys) {
  os::Kernel& k = sys.kernel();
  k.set_inline_tier(true);
  k.tier_table().set_inline_threshold(2);
  k.tier_table().set_health_promote_threshold(2);
  k.tier_table().set_health_backoff_cap(64);
  sys.machine().set_cycle_limit(kCycleLimit);
}

}  // namespace

std::string outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Benign: return "benign";
    case Outcome::Detected: return "detected";
    case Outcome::WrongVerdict: return "wrong-verdict";
    case Outcome::SilentBypass: return "silent-bypass";
    case Outcome::HostCrash: return "host-crash";
    case Outcome::NotApplied: return "not-applied";
  }
  return "?";
}

std::function<void(os::SimFs&)> fixture(std::vector<std::pair<std::string, std::string>> files) {
  // Shared, so every guest holding the fixture copies a pointer, not files.
  return [files = std::make_shared<const std::vector<std::pair<std::string, std::string>>>(
              std::move(files))](os::SimFs& fs) {
    for (const auto& [path, content] : *files) {
      const auto ino =
          fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
      fs.write(static_cast<std::uint32_t>(ino), 0,
               std::vector<std::uint8_t>(content.begin(), content.end()), false);
    }
  };
}

GuestProgram getpid_loop_guest(os::Personality p) {
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
  return g;
}

SignedGuest InstalledGuest::rekey(const SignedGuest& from, const crypto::Key128& to) const {
  installer::RekeyResult rr = installer::Rekeyer::rekey(from.image, manifest, from.key, to);
  SignedGuest out{to, std::move(rr.image), {}, std::move(rr.view)};
  for (std::size_t h = 0; h < from.helpers.size(); ++h) {
    out.helpers.emplace_back(
        from.helpers[h].first,
        installer::Rekeyer::rekey(from.helpers[h].second, helper_manifests[h], from.key, to)
            .image);
  }
  return out;
}

bool InstalledGuest::behaves_like_clean(const vm::RunResult& r) const {
  return r.completed == clean.completed && r.exit_code == clean.exit_code &&
         r.stdout_data == clean.stdout_data && r.stderr_data == clean.stderr_data;
}

std::vector<InstalledGuest> install_pool(std::vector<GuestProgram> guests) {
  if (guests.empty()) throw Error("lifecycle: empty guest pool");
  std::vector<InstalledGuest> pool(guests.size());
  for (std::size_t i = 0; i < guests.size(); ++i) {
    InstalledGuest& g = pool[i];
    g.prog = std::move(guests[i]);
    System inst(kPersonality);
    installer::InstallResult gi = inst.install(g.prog.image);
    g.base.key = test_key();
    g.base.image = std::move(gi.image);
    g.manifest = std::move(gi.manifest);
    for (const auto& [path, img] : g.prog.helpers) {
      installer::InstallResult hi = inst.install(img);
      g.base.helpers.emplace_back(path, std::move(hi.image));
      g.helper_manifests.push_back(std::move(hi.manifest));
    }

    // The reference runs with the shadow off: under lazy write-back the
    // guest record lags the kernel's shadow, so every snapshot would hold
    // the same stale bytes. The eager protocol materializes a distinct
    // record at every call -- what an attacker scraping a victim address
    // space would capture.
    System sys(kPersonality);
    configure(sys);
    sys.kernel().set_policy_shadow(false);
    if (g.prog.prepare_fs) g.prog.prepare_fs(sys.kernel().fs());
    for (const auto& [path, img] : g.base.helpers) sys.machine().register_program(path, img);
    sys.kernel().set_stage_hook([&g](os::Process& p, os::TrapContext&, os::TrapStage s) {
      if (s != os::TrapStage::PreTrap) return;
      ++g.clean_traps;
      const auto& regs = p.cpu.regs;
      const std::uint32_t lb = regs[isa::kRegStatePtr];
      if (policy::Descriptor(regs[isa::kRegPolicyDescriptor]).control_flow_constrained() &&
          p.mem.in_range(lb, policy::kPolicyStateSize)) {
        g.snapshots[g.clean_traps] = p.mem.read_bytes(lb, policy::kPolicyStateSize);
      }
    });
    g.clean = sys.machine().run(g.base.image, g.prog.argv, g.prog.stdin_data);
    if (!g.clean.completed || g.clean.violation != os::Violation::None) {
      throw Error("lifecycle: clean reference run of " + g.prog.name +
                  " failed: " + g.clean.violation_detail);
    }
    if (g.clean_traps == 0) throw Error("lifecycle: " + g.prog.name + " makes no system calls");
  }
  return pool;
}

Tenant::Tenant(const InstalledGuest& guest, os::FailureMode mode, std::uint32_t budget)
    : sys_(kPersonality), guest_(guest), current_(&guest.base) {
  configure(sys_);
  kernel().set_failure_mode(mode);
  kernel().set_violation_budget(budget);
  for (const auto& [path, img] : guest.base.helpers) sys_.machine().register_program(path, img);
  kernel().set_stage_hook([this](os::Process& p, os::TrapContext& ctx, os::TrapStage s) {
    // A parked rekey lands inside the upcoming depth-0 trap; swap the helper
    // registrations first, so a spawn after the key swap hands the kernel a
    // child signed under the new key.
    if (s == os::TrapStage::PreTrap && !pending_helpers_.empty() &&
        kernel().trap_depth() == 0) {
      for (const auto& [path, img] : pending_helpers_) sys_.machine().register_program(path, img);
      pending_helpers_.clear();
    }
    if (hook) hook(p, ctx, s);
  });
}

void Tenant::use(const SignedGuest& s) {
  kernel().set_key(s.key);
  for (const auto& [path, img] : s.helpers) sys_.machine().register_program(path, img);
  current_ = &s;
}

bool Tenant::live_rekey(os::Process& p, const SignedGuest& to) {
  if (kernel().rekey(p, to.key, to.view)) {
    for (const auto& [path, img] : to.helpers) sys_.machine().register_program(path, img);
    return true;
  }
  if (kernel().trap_depth() > 0) pending_helpers_ = to.helpers;  // parked, not refused
  return false;
}

void Tenant::arm(FaultInjector& inj, std::uint64_t donor_pick) {
  inj.set_rotation_key(foreign_key());
  if (inj.spec().point.strike == Strike::RekeyToctou) {
    // A coherent payload for the CURRENT template: the strike must be
    // benign, so the view and the helpers match what actually runs.
    rekey_to_ = std::make_unique<SignedGuest>(guest_.rekey(*current_, derived_key(0xC4A00002ULL)));
    inj.set_rekey([this](os::Process& p) { return live_rekey(p, *rekey_to_); });
  }
  inj.set_replay_donors(guest_.snapshots, donor_pick);
  hook = [this, &inj](os::Process& p, os::TrapContext& ctx, os::TrapStage s) {
    inj.on_stage(kernel(), p, ctx, s);
  };
}

std::optional<vm::RunResult> Tenant::run(const std::string& where) {
  if (guest_.prog.prepare_fs) guest_.prog.prepare_fs(kernel().fs());
  mark_ = kernel().audit_log().size();
  vm::RunResult r;
  try {
    r = sys_.machine().run(current_->image, guest_.prog.argv, guest_.prog.stdin_data);
  } catch (const std::exception& e) {
    trip(where + ": host crash: " + e.what());
    return std::nullopt;
  } catch (...) {
    trip(where + ": host crash: non-standard exception");
    return std::nullopt;
  }
  ++runs;
  syscalls += r.syscalls;
  cycles += r.cycles;
  // Between runs no process is alive: every pid-keyed record must be gone
  // and the main process's watch accounting must balance.
  const auto& w = r.final_watch;
  if (w.live_ranges != 0 || w.live_refs != 0) {
    trip(where + ": teardown leaked " + std::to_string(w.live_ranges) + " watch ranges / " +
         std::to_string(w.live_refs) + " refs");
  }
  if (w.registered != w.released) {
    trip(where + ": watch accounting unbalanced (registered=" + std::to_string(w.registered) +
         " released=" + std::to_string(w.released) + ")");
  }
  if (kernel().tier_table().sites() != 0) trip(where + ": site records for dead pids");
  if (kernel().tier_table().pids() != 0) trip(where + ": shadow/health records for dead pids");
  return r;
}

std::vector<const os::VerdictRecord*> Tenant::violations() {
  std::vector<const os::VerdictRecord*> out;
  const auto& recs = kernel().audit_log();
  for (std::size_t i = mark_; i < recs.size(); ++i) {
    if (recs[i].kind == os::AuditKind::Violation) out.push_back(&recs[i]);
  }
  return out;
}

void Tenant::expect_clean(const vm::RunResult& r, const std::string& where) {
  if (!violations().empty()) trip(where + " yielded a Violation verdict");
  if (!guest_.behaves_like_clean(r)) trip(where + " diverged from the clean reference");
}

Outcome Tenant::classify(const FaultInjector& inj, const vm::RunResult& r) {
  const std::string repro = " [repro " + guest_.prog.name + " " + spec_repr(inj.spec()) + "]";
  const auto viols = violations();
  if (!viols.empty()) {
    const os::VerdictRecord& first = *viols.front();
    const auto& exp = expected_violations(inj.spec().point.strike);
    if (std::find(exp.begin(), exp.end(), first.violation) == exp.end()) {
      trip("wrong verdict " + os::violation_name(first.violation) + repro);
      return Outcome::WrongVerdict;
    }
    if (!first.killed && kernel().failure_mode() == os::FailureMode::FailStop) {
      trip("tamper detected but did not fail-stop" + repro);
    }
    return Outcome::Detected;
  }
  if (!inj.applied()) return Outcome::NotApplied;
  if (guest_.behaves_like_clean(r)) return Outcome::Benign;
  trip("silent bypass: behavior diverged without a verdict" + repro);
  return Outcome::SilentBypass;
}

FaultSpec draw_spec(FaultPoint point, int clean_traps, const std::vector<os::TrapStage>& stages,
                    util::Rng& rng) {
  FaultSpec spec;
  spec.point = point;
  spec.trigger_call = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(clean_traps)));
  spec.seed = rng.next_u64();
  std::vector<os::TrapStage> allowed;
  for (const auto s : stages.empty() ? all_trap_stages() : stages) {
    if (stage_allowed(point.strike, s)) allowed.push_back(s);
  }
  if (!allowed.empty()) spec.stage = allowed[rng.next_below(allowed.size())];
  return spec;
}

void run_drawn(FaultSpec spec, const std::function<Outcome(const FaultSpec&)>& attempt) {
  if (attempt(spec) == Outcome::NotApplied && spec.trigger_call > 1) {
    spec.trigger_call = 1;
    attempt(spec);
  }
}

std::vector<std::string> Tenant::finish(const std::string& who) {
  // Every InternalFault record is followed by a Health transition of the
  // same pid; every Violation record names its program.
  const auto& recs = kernel().audit_log();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].kind == os::AuditKind::InternalFault &&
        std::none_of(recs.begin() + static_cast<std::ptrdiff_t>(i) + 1, recs.end(),
                     [&](const os::VerdictRecord& h) {
                       return h.kind == os::AuditKind::Health && h.pid == recs[i].pid;
                     })) {
      trip("InternalFault record without a matching Health transition (pid " +
           std::to_string(recs[i].pid) + ")");
    }
    if (recs[i].kind == os::AuditKind::Violation && recs[i].prog.empty()) {
      trip("Violation record missing its program name");
    }
  }
  std::vector<std::string> out;
  for (const auto& t : trips_) out.push_back(who + t);
  return out;
}

}  // namespace asc::fault
