#include "fault/chaos.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "apps/apps.h"
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

/// The guest pool. Rerun-idempotent guests only: every run starts from a
/// re-prepared filesystem, so a lifecycle's recovery run must reproduce the
/// clean reference byte-for-byte (rm/mv-style destructive tools would
/// diverge on their own leftovers). vuln_echo spawns a child, so teardown
/// storms include nested processes; the getpid loop's site promotes to the
/// Inline tier, where @inline points strike.
std::vector<GuestProgram> chaos_guests(os::Personality p) {
  const auto fs = fixture(
      {{"/f.txt", "aaaaaabbbbcccccccccddd\nmore text here\n" + std::string(512, 'q')},
       {"/lines.txt", "pear\napple\nmango\ncherry\nbanana\n"},
       {"/in.c", "int main() { return 42; }\n" + std::string(600, 'x') + "\n"},
       {"/etc/vuln.conf", "mode=list\n"}});
  std::vector<GuestProgram> out;
  out.push_back({"cat", apps::build_tool_cat(p), {"/lines.txt", "/in.c"}, "", {}, fs});
  out.push_back({"sort", apps::build_tool_sort(p), {"/lines.txt"}, "", {}, fs});
  out.push_back({"cp", apps::build_tool_cp(p), {"/lines.txt", "/chaos-copy.txt"}, "", {}, fs});
  out.push_back({"gzip", apps::build_gzip(p), {"/f.txt"}, "", {}, fs});
  out.push_back({"vuln_echo", apps::build_vuln_echo(p), {}, "/lines.txt\n", {}, fs});
  out.back().helpers.emplace_back("/bin/ls", apps::build_tool_cat(p));
  out.push_back(getpid_loop_guest(p));
  return out;
}

}  // namespace

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
  const std::vector<InstalledGuest> pool = install_pool(chaos_guests(kPersonality));
  const auto points = cfg_.points.empty() ? default_points() : cfg_.points;
  const util::Rng root(cfg_.seed);

  // ---- one tenant lifecycle: a seeded random plan ----
  auto lifecycle = [&](std::size_t t) -> LifecycleVerdict {
    LifecycleVerdict lc;
    lc.tenant = static_cast<int>(t);
    util::Rng rng = root.derive(0xC4A05EEDULL ^ static_cast<std::uint64_t>(t));
    const InstalledGuest& guest = pool[rng.next_below(pool.size())];
    lc.guest = guest.prog.name;

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
    Tenant tenant(guest, mode, mode == os::FailureMode::Budgeted ? 2 : 0);

    // ---- churn before the fault run ----
    // Rotation churn is a GENUINE rotation: the template is rekeyed to a
    // fresh key and the kernel moves to it -- flushing the shard's fast
    // paths -- so every later trap verifies new material.
    std::optional<SignedGuest> rotated;
    if (rotate_churn) {
      rotated = guest.rekey(guest.base, derived_key(0xC4A00001ULL));
      tenant.use(*rotated);
    }
    if (monitor_swap) tenant.kernel().set_enforcement(os::Enforcement::Asc);  // revokes promotions
    if (shadow_toggle) {
      tenant.kernel().set_policy_shadow(false);  // flushes every live record
      tenant.kernel().set_policy_shadow(true);
    }

    // ---- the fault run ----
    std::optional<FaultInjector> inj;
    if (lc.plan == ChaosPlan::Tamper) {
      const FaultSpec spec =
          draw_spec(points[rng.next_below(points.size())], guest.clean_traps, cfg_.stages, rng);
      const std::uint64_t donor_pick = rng.next_u64();
      run_drawn(spec, [&](const FaultSpec& s) {
        lc.plan_repr = spec_repr(s);
        tenant.arm(inj.emplace(s), donor_pick);
        const auto r = tenant.run("fault run");
        if (!r) return lc.fault_outcome = Outcome::HostCrash;
        if (const auto viols = tenant.violations(); !viols.empty()) {
          lc.violation = viols.front()->violation;
        }
        return lc.fault_outcome = tenant.classify(*inj, *r);
      });
    } else if (lc.plan == ChaosPlan::Internal) {
      // Injected internal inconsistencies: a shadow-nonce desync the kernel's
      // per-trap self-check must catch, plus two oracle-style reports that
      // push the pid through Degraded into Quarantined (and deepen once).
      const int bump_at = 2 + static_cast<int>(rng.next_below(3));
      const int report_at = bump_at + 2 + static_cast<int>(rng.next_below(3));
      int injected = 0;
      lc.plan_repr = "bump@" + std::to_string(bump_at) + "+report@" +
                     std::to_string(report_at) + ",@" + std::to_string(report_at + 1);
      tenant.hook = [&, calls = 0](os::Process& p, os::TrapContext&, os::TrapStage s) mutable {
        if (s != os::TrapStage::PreTrap) return;
        ++calls;
        if (calls == bump_at && tenant.kernel().tier_table().shadow(p.pid) != nullptr) {
          // Desynchronize the kernel's own nonce copy; the next trap's
          // self-check must flag it and resync under the bumped counter.
          ++p.asc_counter;
          ++injected;
        }
        if (calls == report_at || calls == report_at + 1) {
          tenant.kernel().report_internal_fault(p, "chaos: oracle-reported inconsistency");
          ++injected;
        }
      };
      // Quarantine must be transparent and never touch the violation budget.
      if (const auto r = tenant.run("internal run")) tenant.expect_clean(*r, "internal run");
      const auto& hs = tenant.kernel().tier_table().health_stats();
      if (hs.internal_faults != static_cast<std::uint64_t>(injected)) {
        tenant.trip("health machine counted " + std::to_string(hs.internal_faults) +
                    " internal faults, injected " + std::to_string(injected));
      }
      // Two faults on one pid must reach Quarantined (unless the second
      // landed on a different process of a spawning guest).
      if (injected >= 2 && hs.quarantines == 0 && hs.degradations != 0 &&
          guest.base.helpers.empty()) {
        tenant.trip("repeated internal faults never quarantined the pid");
      }
    } else if (const auto r = tenant.run("clean run")) {
      tenant.expect_clean(*r, "clean run");
    }

    // ---- the recovery run ----
    // Whatever the fault did -- kill, rotation, rekey, teardown, quarantine
    // -- the SAME kernel must run the guest again, byte-identically to the
    // clean reference, once the plan's hook is gone and the base template
    // and key are back (set_key is the documented rotation path and flushes
    // coherently). A still-parked Kernel::rekey is fine: it lands at the
    // recovery run's first trap boundary and moves the guest coherently.
    tenant.hook = nullptr;
    tenant.use(guest.base);
    if (const auto r = tenant.run("recovery run")) tenant.expect_clean(*r, "recovery run");

    lc.trips = tenant.finish("tenant " + std::to_string(t) + " (" + lc.guest + ", " +
                             chaos_plan_name(lc.plan) + " " + lc.plan_repr +
                             ", seed=" + std::to_string(cfg_.seed) + "): ");
    lc.runs = tenant.runs;
    lc.health = tenant.kernel().tier_table().health_stats();
    char line[240];
    std::snprintf(line, sizeof line,
                  "#%03d %-9s plan=%-8s mode=%s repr=%s outcome=%s v=%s "
                  "hf=%llu d/q=%llu/%llu rp/rc=%llu/%llu runs=%d trips=%zu",
                  lc.tenant, lc.guest.c_str(), chaos_plan_name(lc.plan).c_str(),
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
          .parallel_map<LifecycleVerdict>(static_cast<std::size_t>(cfg_.tenants), lifecycle);
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
