#include "fault/campaign.h"

#include <algorithm>
#include <cstdio>

#include "util/hex.h"
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
  for (const auto& [point, row] : other.matrix) {
    for (const auto& [v, n] : row) matrix[point][v] += n;
  }
  trips.insert(trips.end(), other.trips.begin(), other.trips.end());
}

std::string CampaignResult::summary() const {
  // Column set: every Violation observed anywhere in the matrix.
  std::vector<os::Violation> cols;
  for (const auto& [point, row] : matrix) {
    for (const auto& [v, n] : row) {
      if (std::find(cols.begin(), cols.end(), v) == cols.end()) cols.push_back(v);
    }
  }
  std::sort(cols.begin(), cols.end());

  char buf[160];
  std::string out = "point x Violation coverage matrix\n";
  std::snprintf(buf, sizeof buf, "%-30s", "");
  out += buf;
  for (const auto v : cols) {
    std::snprintf(buf, sizeof buf, " %16s", os::violation_name(v).c_str());
    out += buf;
  }
  out += "\n";
  for (const auto& [point, row] : matrix) {
    std::snprintf(buf, sizeof buf, "%-30s", point_name(point).c_str());
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
        ++result.matrix[v.spec.point][os::Violation::None];
        break;
      case Outcome::Detected:
        ++result.detected;
        ++result.matrix[v.spec.point][v.violation];
        break;
      case Outcome::WrongVerdict:
        ++result.wrong_verdict;
        ++result.matrix[v.spec.point][v.violation];
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
  const auto points = cfg_.points.empty() ? default_points() : cfg_.points;
  const util::Rng root(cfg_.seed);
  const std::uint64_t tag = util::fnv1a(prog.name);
  const bool replaying = !cfg_.explicit_specs.empty();
  std::vector<FaultSpec> specs = cfg_.explicit_specs;
  if (!replaying) {
    specs.reserve(points.size() * static_cast<std::size_t>(cfg_.runs_per_point));
    for (const FaultPoint point : points) {
      // Per-point substreams: adding a point never shifts another's specs.
      util::Rng rng = root.derive(tag ^ (static_cast<std::uint64_t>(point.strike) << 32) ^
                                  (static_cast<std::uint64_t>(point.tier) << 40));
      for (int i = 0; i < cfg_.runs_per_point; ++i) {
        specs.push_back(draw_spec(point, guest.clean_traps, cfg_.stages, rng));
      }
    }
  }

  // Replayed explicit specs get no NotApplied retry: a reproducer must run
  // exactly the spec it names.
  auto run_spec = [&](std::size_t k) {
    if (replaying) return execute(specs[k]);
    RunVerdict v;
    run_drawn(specs[k], [&](const FaultSpec& s) {
      v = execute(s);
      return v.outcome;
    });
    return v;
  };
  std::vector<RunVerdict> verdicts =
      util::resolve_executor(cfg_.executor).parallel_map<RunVerdict>(specs.size(), run_spec);
  for (RunVerdict& v : verdicts) record(std::move(v));
  return result;
}

CampaignResult Campaign::run_all(const std::vector<GuestProgram>& progs) {
  CampaignResult total;
  for (const auto& prog : progs) total.merge(run(prog));
  return total;
}

}  // namespace asc::fault
