// Table 7 companion: fleet-scale multi-tenant kernel throughput.
//
// Runs the fleet::Driver at 1k and 10k tenants (100k with ASC_FLEET_FULL=1
// in the environment -- the nightly soak's full-size row), each at
// jobs = 1, 2, 8 on util::Executor, with the default churn
// cadences (staggered genuine key rotations, monitor swaps, respawn
// storms). Every tenant rekeys the shared installed templates to its own
// key via the differential installer::Rekeyer before its first run.
//
// Every column is deterministic and host-independent (perfbench's `fleet`
// workload measures the host clock):
//   deterministic    the verdict trace AND the aggregated audit digest must
//                    be byte-identical at jobs 1/2/8. GATED.
//   modeled_vsps_j8  verified syscalls per modeled second: total verified
//                    syscalls divided by the LPT makespan of the per-tenant
//                    modeled cycles on 8 workers, at a 1 GHz virtual clock.
//                    Deterministic, host-independent. GATED: must not fall
//                    more than the tolerance below the baseline.
//   per_tenant_bytes retained TenantState shard bytes per tenant after
//                    teardown. Deterministic. GATED: must not grow.
//
// Machine-readable copy in BENCH_table7.json
// (scripts/check_bench_regression.py knows the schema).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "util/executor.h"

namespace {

using namespace asc;

const int kJobs[] = {1, 2, 8};

/// LPT makespan of `weights` on `jobs` bins: the modeled wall of an ideal
/// dynamic schedule.
double lpt_makespan(std::vector<double> weights, int jobs) {
  if (weights.empty()) return 0.0;
  std::sort(weights.begin(), weights.end(), std::greater<>());
  std::vector<double> bins(static_cast<std::size_t>(std::max(1, jobs)), 0.0);
  for (const double w : weights) {
    *std::min_element(bins.begin(), bins.end()) += w;
  }
  return *std::max_element(bins.begin(), bins.end());
}

fleet::FleetResult run_fleet(int tenants, int jobs) {
  util::Executor ex(jobs);
  fleet::FleetConfig cfg;
  cfg.seed = 1;
  cfg.tenants = tenants;
  cfg.executor = &ex;
  return fleet::Driver(cfg).run();
}

struct Row {
  std::string name;
  int tenants = 0;
  bool deterministic = true;
  std::size_t trips = 0;
  std::uint64_t syscalls = 0;
  double modeled_vsps_j8 = 0;  // verified syscalls / modeled second @ 8 jobs
  std::size_t per_tenant_bytes = 0;
};

Row run_row(const std::string& name, int tenants) {
  Row r;
  r.name = name;
  r.tenants = tenants;
  const fleet::FleetResult ref = run_fleet(tenants, kJobs[0]);
  for (int j = 1; j < 3; ++j) {
    const fleet::FleetResult fr = run_fleet(tenants, kJobs[j]);
    r.deterministic &=
        fr.verdict_trace == ref.verdict_trace && fr.audit.digest == ref.audit.digest;
  }
  r.trips = ref.trips.size();
  r.syscalls = ref.total_syscalls;
  r.per_tenant_bytes =
      ref.tenants.empty() ? 0 : ref.total_shard_bytes / ref.tenants.size();
  // Modeled throughput: per-tenant modeled cycles, LPT-packed onto 8
  // workers, at a 1 GHz virtual clock. Deterministic and host-independent.
  std::vector<double> weights;
  weights.reserve(ref.tenants.size());
  for (const auto& tv : ref.tenants) {
    weights.push_back(static_cast<double>(tv.cycles > 0 ? tv.cycles : 1));
  }
  const double makespan_cycles = lpt_makespan(std::move(weights), 8);
  const double modeled_seconds = makespan_cycles / 1e9;
  r.modeled_vsps_j8 =
      modeled_seconds > 0 ? static_cast<double>(r.syscalls) / modeled_seconds : 0;
  return r;
}

void run_table() {
  std::printf("\n=== Table 7 companion: fleet-scale multi-tenant throughput ===\n");
  std::vector<Row> rows;
  rows.push_back(run_row("fleet_1k", 1000));
  rows.push_back(run_row("fleet_10k", 10000));
  const char* full = std::getenv("ASC_FLEET_FULL");
  if (full != nullptr && full[0] != '\0' && full[0] != '0') {
    rows.push_back(run_row("fleet_100k", 100000));
  } else {
    std::printf("(fleet_100k skipped: set ASC_FLEET_FULL=1 for the full-size row)\n");
  }

  std::printf("%-10s %7s %4s %5s %12s %10s\n", "Fleet", "tenants", "det", "trips",
              "model_vsps_8", "bytes/ten");
  FILE* json = std::fopen("BENCH_table7.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"table\": \"table7\",\n"
                       "  \"unit\": \"verified_syscalls_per_modeled_second + bytes\",\n"
                       "  \"rows\": [\n");
  }
  bool first = true;
  for (const Row& r : rows) {
    std::printf("%-10s %7d %4s %5zu %12.0f %10zu\n", r.name.c_str(), r.tenants,
                r.deterministic ? "yes" : "NO", r.trips, r.modeled_vsps_j8, r.per_tenant_bytes);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"name\": \"%s\", \"tenants\": %d, \"deterministic\": %s, "
                   "\"trips\": %zu, \"syscalls\": %llu, "
                   "\"modeled_vsps_j8\": %.1f, \"per_tenant_bytes\": %zu}",
                   first ? "" : ",\n", r.name.c_str(), r.tenants,
                   r.deterministic ? "true" : "false", r.trips,
                   static_cast<unsigned long long>(r.syscalls), r.modeled_vsps_j8,
                   r.per_tenant_bytes);
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  std::printf("(determinism, modeled throughput, and per-tenant bytes are gated -- "
              "BENCH_table7.json)\n");
}

}  // namespace

int main() {
  run_table();
  return 0;
}
