#include "fault/campaign.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace asc::fault {

void CampaignResult::merge(const CampaignResult& other) {
  verdicts.insert(verdicts.end(), other.verdicts.begin(), other.verdicts.end());
  benign += other.benign;
  detected += other.detected;
  wrong_verdict += other.wrong_verdict;
  silent_bypass += other.silent_bypass;
  host_crash += other.host_crash;
  not_applied += other.not_applied;
  for (const auto& [cls, row] : other.matrix) {
    for (const auto& [v, n] : row) matrix[cls][v] += n;
  }
  trips.insert(trips.end(), other.trips.begin(), other.trips.end());
}

std::string CampaignResult::summary() const {
  // Column set: every Violation observed anywhere in the matrix.
  std::vector<os::Violation> cols;
  for (const auto& [cls, row] : matrix) {
    for (const auto& [v, n] : row) {
      if (std::find(cols.begin(), cols.end(), v) == cols.end()) cols.push_back(v);
    }
  }
  std::sort(cols.begin(), cols.end());

  char buf[160];
  std::string out = "mutation class x Violation coverage matrix\n";
  std::snprintf(buf, sizeof buf, "%-22s", "");
  out += buf;
  for (const auto v : cols) {
    std::snprintf(buf, sizeof buf, " %16s", os::violation_name(v).c_str());
    out += buf;
  }
  out += "\n";
  for (const auto& [cls, row] : matrix) {
    std::snprintf(buf, sizeof buf, "%-22s", mutation_class_name(cls).c_str());
    out += buf;
    for (const auto v : cols) {
      const auto it = row.find(v);
      std::snprintf(buf, sizeof buf, " %16d", it == row.end() ? 0 : it->second);
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof buf,
                "applied=%d detected=%d benign=%d wrong=%d bypass=%d crash=%d skipped=%d\n",
                total_applied(), detected, benign, wrong_verdict, silent_bypass, host_crash,
                not_applied);
  out += buf;
  if (!trips.empty()) out += "oracle trips: " + std::to_string(trips.size()) + "\n";
  for (const auto& t : trips) out += "  " + t + "\n";
  return out;
}

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

CampaignResult Campaign::run(const GuestProgram& prog) {
  // Install the program (and spawn helpers) once and take the clean
  // reference; every mutated run below gets a fresh tenant.
  const std::vector<InstalledGuest> pool = install_pool({prog});
  const InstalledGuest& guest = pool.front();

  // ---- one mutated execution ----
  auto execute = [&](const FaultSpec& spec) -> RunVerdict {
    RunVerdict v;
    v.program = prog.name;
    v.spec = spec;
    v.repro = spec_repr(spec);
    Tenant tenant(guest, cfg_.mode, cfg_.violation_budget);
    FaultInjector inj(spec);
    tenant.arm(inj, spec.seed);
    const auto r = tenant.run("mutated run");
    v.mutation = inj.description();
    v.outcome = r ? tenant.classify(inj, *r) : Outcome::HostCrash;
    v.cycles = r ? r->cycles : 0;
    const auto viols = tenant.violations();
    for (const os::VerdictRecord* rec : viols) v.guest_killed |= rec->killed;
    v.violations_audited = static_cast<int>(viols.size());
    if (!viols.empty()) {
      v.violation = viols.front()->violation;
      v.detail = viols.front()->detail;
    }
    v.trips = tenant.finish(prog.name + " " + v.repro + ": ");
    if (v.outcome == Outcome::HostCrash) v.detail = v.trips.front();
    if (v.outcome == Outcome::SilentBypass) {
      v.detail = "behavior diverged without an audited verdict: " + v.mutation;
    }
    // Any unexpected verdict carries its own single-line reproducer, so one
    // failing run out of thousands can be replayed alone.
    if (v.outcome == Outcome::WrongVerdict || v.outcome == Outcome::SilentBypass ||
        v.outcome == Outcome::HostCrash) {
      v.detail += " [repro " + prog.name + " " + v.repro + "]";
    }
    return v;
  };

  CampaignResult result;
  auto record = [&](RunVerdict v) {
    switch (v.outcome) {
      case Outcome::Benign:
        ++result.benign;
        ++result.matrix[v.spec.cls][os::Violation::None];
        break;
      case Outcome::Detected:
        ++result.detected;
        ++result.matrix[v.spec.cls][v.violation];
        break;
      case Outcome::WrongVerdict:
        ++result.wrong_verdict;
        ++result.matrix[v.spec.cls][v.violation];
        break;
      case Outcome::SilentBypass:
        ++result.silent_bypass;
        break;
      case Outcome::HostCrash:
        ++result.host_crash;
        break;
      case Outcome::NotApplied:
        ++result.not_applied;
        break;
    }
    result.trips.insert(result.trips.end(), v.trips.begin(), v.trips.end());
    result.verdicts.push_back(std::move(v));
  };

  // ---- the seeded mutation sweep ----
  // The spec list is drawn serially (the seeded RNG sequence IS the
  // campaign's identity); the mutated executions fan out over the pool.
  const auto classes = cfg_.classes.empty() ? all_mutation_classes() : cfg_.classes;
  const auto stage_pool = cfg_.stages.empty() ? all_trap_stages() : cfg_.stages;
  const util::Rng root(cfg_.seed);
  const std::uint64_t tag = fnv1a(prog.name);
  std::vector<FaultSpec> specs;
  const bool replaying = !cfg_.explicit_specs.empty();
  if (replaying) {
    specs = cfg_.explicit_specs;
  } else {
    specs.reserve(classes.size() * static_cast<std::size_t>(cfg_.runs_per_class));
    for (const auto cls : classes) {
      // Per-class substreams: adding a class never shifts another's specs.
      util::Rng rng = root.derive(tag ^ (static_cast<std::uint64_t>(cls) << 32));
      util::Rng stage_rng =
          root.derive(tag ^ (static_cast<std::uint64_t>(cls) << 32) ^ 0x57a6e5u);
      // Per-class pool: only the boundaries this class may strike at (e.g.
      // AsBodyCorrupt excludes Enforce -- see fault::stage_allowed).
      std::vector<os::TrapStage> pool;
      for (const auto s : stage_pool) {
        if (stage_allowed(cls, s)) pool.push_back(s);
      }
      if (pool.empty()) pool.push_back(os::TrapStage::Trap);
      for (int i = 0; i < cfg_.runs_per_class; ++i) {
        FaultSpec spec;
        spec.cls = cls;
        spec.trigger_call =
            1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(guest.clean_traps)));
        spec.seed = rng.next_u64();
        if (stage_targetable(cls)) {
          spec.stage = pool[stage_rng.next_below(pool.size())];
        }
        specs.push_back(spec);
      }
    }
  }

  std::vector<RunVerdict> verdicts =
      fan_out<RunVerdict>(cfg_.executor, specs.size(), [&](std::size_t k) {
        FaultSpec spec = specs[k];
        RunVerdict v = execute(spec);
        if (!replaying && v.outcome == Outcome::NotApplied && spec.trigger_call > 1) {
          // The class had no target at or after the trigger (e.g. the last
          // AS argument already went by); retry from the first call.
          // Replayed explicit specs are exempt: a reproducer must run
          // exactly the spec it names.
          spec.trigger_call = 1;
          v = execute(spec);
        }
        return v;
      });
  for (RunVerdict& v : verdicts) record(std::move(v));
  return result;
}

CampaignResult Campaign::run_all(const std::vector<GuestProgram>& progs) {
  CampaignResult total;
  for (const auto& prog : progs) total.merge(run(prog));
  return total;
}

}  // namespace asc::fault
