// asc-faultsim -- deterministic fault-injection campaigns against the ASC
// verification surface.
//
// Runs guest programs once cleanly, then replays them under seeded mutations
// (call-MAC bit flips, descriptor flips, AS header/body corruption,
// predecessor-set and policy-state tampering, cross-process state replay,
// register swaps at trap time, kernel/installer key mismatch) and prints a
// coverage matrix of mutation class x Violation verdict. Exit status is
// nonzero if the fail-stop invariant is broken: any host crash, silent
// bypass, or wrong-verdict run.
//
//   asc-faultsim                       default campaign (cat + vuln_echo)
//   asc-faultsim --seed 7 --runs 16    bigger sweep, different seed
//   asc-faultsim --mode audit-only     permissive kernel: log, don't kill
//   asc-faultsim --mode budgeted --budget 2
//   asc-faultsim --jobs 8              mutated replays on 8 worker threads
//                                      (default: ASC_JOBS, else hardware
//                                      concurrency; verdicts are identical
//                                      at any job count)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "fault/campaign.h"
#include "tasm/assembler.h"
#include "util/executor.h"

using namespace asc;

namespace {

// Minimal filesystem fixture for the default guests (cat and vuln_echo's
// /bin/ls stand-in both read /lines.txt).
void prepare_fs(os::SimFs& fs) {
  const std::string body = "pear\napple\nmango\ncherry\nbanana\n";
  auto ino = fs.open("/", "/lines.txt",
                     os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0,
           std::vector<std::uint8_t>(body.begin(), body.end()), false);
}

std::vector<fault::GuestProgram> default_guests(os::Personality pers) {
  fault::GuestProgram cat;
  cat.name = "cat";
  cat.image = apps::build_tool_cat(pers);
  cat.argv = {"/lines.txt"};
  cat.prepare_fs = prepare_fs;

  fault::GuestProgram vuln;
  vuln.name = "vuln_echo";
  vuln.image = apps::build_vuln_echo(pers);
  vuln.stdin_data = "/lines.txt\n";
  vuln.helpers.emplace_back("/bin/ls", apps::build_tool_cat(pers));
  vuln.prepare_fs = prepare_fs;
  return {std::move(cat), std::move(vuln)};
}

// Tight getpid loop whose sites promote to the Inline tier: the target the
// promo-toctou class needs (it only fires at already-promoted sites).
fault::GuestProgram loop_guest(os::Personality pers) {
  using namespace asc::apps;
  tasm::Assembler a("pidloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, 64);
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
  emit_libc(a, pers);
  fault::GuestProgram g;
  g.name = "pidloop";
  g.image = a.link();
  g.prepare_fs = prepare_fs;
  return g;
}

int usage() {
  std::fprintf(stderr,
               "usage: asc-faultsim [--seed N] [--runs N] [--class NAME] [--jobs N]\n"
               "                    [--mode fail-stop|budgeted|audit-only] [--budget N]\n"
               "                    [--spec CLASS:TRIGGER:0xSEED[:STAGE]]\n"
               "--jobs N: worker threads for the mutated replays (default: ASC_JOBS,\n"
               "          else hardware concurrency); results match --jobs 1 exactly\n"
               "--spec R: replay exactly one reproducer line (repeatable); R is the\n"
               "          [repro ...] token a failing campaign printed\n"
               "classes:");
  for (const auto c : fault::extended_mutation_classes()) {
    std::fprintf(stderr, " %s", fault::mutation_class_name(c).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fault::CampaignConfig cfg;
  cfg.runs_per_class = 8;
  cfg.cycle_limit = 200'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--runs") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.runs_per_class = std::atoi(v);
    } else if (a == "--budget") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.violation_budget = static_cast<std::uint32_t>(std::atoi(v));
    } else if (a == "--mode") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "fail-stop") == 0) {
        cfg.mode = os::FailureMode::FailStop;
      } else if (std::strcmp(v, "budgeted") == 0) {
        cfg.mode = os::FailureMode::Budgeted;
      } else if (std::strcmp(v, "audit-only") == 0) {
        cfg.mode = os::FailureMode::AuditOnly;
      } else {
        return usage();
      }
    } else if (a == "--jobs") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return usage();
      util::Executor::set_global_jobs(std::atoi(v));
    } else if (a == "--spec") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto spec = fault::parse_spec(v);
      if (!spec) {
        std::fprintf(stderr, "asc-faultsim: bad spec '%s'\n", v);
        return usage();
      }
      cfg.explicit_specs.push_back(*spec);
    } else if (a == "--class") {
      const char* v = next();
      if (v == nullptr) return usage();
      bool found = false;
      for (const auto c : fault::extended_mutation_classes()) {
        if (fault::mutation_class_name(c) == v) {
          cfg.classes.push_back(c);
          found = true;
        }
      }
      if (!found) return usage();
    } else {
      return usage();
    }
  }

  const auto pers = os::Personality::LinuxSim;
  // promo-toctou only fires at sites already promoted to the Inline tier, so
  // when it is in play the campaign kernels get the tier enabled with a low
  // threshold and the guest set gains a loop guest that actually promotes.
  const bool wants_promo =
      std::find(cfg.classes.begin(), cfg.classes.end(),
                fault::MutationClass::PromoToctou) != cfg.classes.end() ||
      std::any_of(cfg.explicit_specs.begin(), cfg.explicit_specs.end(),
                  [](const fault::FaultSpec& s) {
                    return s.cls == fault::MutationClass::PromoToctou;
                  });
  if (wants_promo) {
    cfg.configure_kernel = [](os::Kernel& k) {
      k.set_inline_tier(true);
      k.tier_table().set_inline_threshold(2);
    };
  }
  std::vector<fault::GuestProgram> guests = default_guests(pers);
  if (wants_promo) guests.push_back(loop_guest(pers));
  fault::Campaign campaign(cfg);
  fault::CampaignResult total;
  for (const auto& guest : guests) {
    std::printf("== %s (seed=%llu, %d runs/class, mode=%s) ==\n", guest.name.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.runs_per_class,
                os::failure_mode_name(cfg.mode).c_str());
    const fault::CampaignResult r = campaign.run(guest);
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
      if (v.outcome == fault::Outcome::Benign || v.outcome == fault::Outcome::Detected ||
          v.outcome == fault::Outcome::NotApplied) {
        continue;
      }
      std::printf("  [%s] %s: %s (%s)\n    replay: asc-faultsim --spec %s\n",
                  fault::outcome_name(v.outcome).c_str(), v.program.c_str(),
                  v.detail.c_str(), os::violation_name(v.violation).c_str(),
                  v.repro.c_str());
    }
    std::printf("FAIL: fail-stop invariant broken\n");
    return 1;
  }
  std::printf("OK: %d applied mutations, invariant holds\n", total.total_applied());
  return 0;
}
