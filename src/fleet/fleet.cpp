#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "apps/apps.h"
#include "util/error.h"
#include "util/rng.h"

namespace asc::fleet {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<fault::GuestProgram> default_fleet_guests(os::Personality p) {
  // Rerun-idempotent, light guests: a respawned lifecycle re-prepares the
  // filesystem and must reproduce the clean reference byte-for-byte.
  // vuln_echo spawns a child, so fleet churn includes nested processes.
  const auto fs = fault::fixture({{"/lines.txt", "pear\napple\nmango\ncherry\nbanana\n"},
                                  {"/notes.txt", "fleet tenant fixture\nsecond line\n"},
                                  {"/etc/vuln.conf", "mode=list\n"}});
  std::vector<fault::GuestProgram> out;
  out.push_back({"cat", apps::build_tool_cat(p), {"/lines.txt", "/notes.txt"}, "", {}, fs});
  out.push_back({"sort", apps::build_tool_sort(p), {"/lines.txt"}, "", {}, fs});
  out.push_back({"cp", apps::build_tool_cp(p), {"/lines.txt", "/fleet-copy.txt"}, "", {}, fs});
  out.push_back({"vuln_echo", apps::build_vuln_echo(p), {}, "/lines.txt\n", {}, fs});
  out.back().helpers.emplace_back("/bin/ls", apps::build_tool_cat(p));
  return out;
}

void AuditPipeline::stream(int tenant, std::string guest,
                           std::vector<os::VerdictRecord> records) {
  Slot& slot = slots_.at(static_cast<std::size_t>(tenant));
  slot.guest = std::move(guest);
  slot.records = std::move(records);
}

AuditPipeline::Merged AuditPipeline::merge() const {
  Merged m;
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    const Slot& slot = slots_[t];
    if (slot.records.empty()) continue;
    ++m.tenants_with_records;
    char tag[48];
    std::snprintf(tag, sizeof tag, "[t%05zu %s] ", t, slot.guest.c_str());
    for (const os::VerdictRecord& rec : slot.records) {
      m.lines.push_back(tag + rec.to_string());
      h = fnv1a(h, m.lines.back());
      m.records.push_back(rec);
    }
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  m.digest = hex;
  return m;
}

std::string FleetResult::summary() const {
  char buf[260];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "fleet: %zu tenants, %llu verified syscalls, %llu modeled cycles\n",
                tenants.size(), static_cast<unsigned long long>(total_syscalls),
                static_cast<unsigned long long>(total_cycles));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "churn: rotations=%d monitor-swaps=%d respawns=%d tampered=%d "
                "(detected=%d)\n",
                rotations, swaps, respawns, tampered, tamper_detected);
  out += buf;
  const std::size_t per =
      tenants.empty() ? 0 : total_shard_bytes / tenants.size();
  std::snprintf(buf, sizeof buf,
                "audit: %zu records from %zu tenants, digest=%s\n"
                "shards: %zu bytes total, %zu bytes/tenant\n"
                "oracle trips: %zu\n",
                audit.records.size(), audit.tenants_with_records,
                audit.digest.c_str(), total_shard_bytes, per, trips.size());
  out += buf;
  for (const auto& t : trips) out += "  " + t + "\n";
  return out;
}

FleetResult Driver::run() {
  if (cfg_.tenants <= 0) throw Error("fleet: tenants must be positive");
  const std::vector<fault::InstalledGuest> pool = fault::install_pool(
      cfg_.guests.empty() ? default_fleet_guests(fault::kPersonality) : cfg_.guests);
  const util::Rng root(cfg_.seed);
  AuditPipeline pipeline(cfg_.tenants);

  // ---- one tenant lifecycle: its own System, its own shard, its own key ----
  auto lifecycle = [&](std::size_t t) -> TenantVerdict {
    TenantVerdict tv;
    tv.tenant = static_cast<int>(t);
    util::Rng rng = root.derive(0xF1EE7ULL ^ static_cast<std::uint64_t>(t));
    const fault::InstalledGuest& guest = pool[rng.next_below(pool.size())];
    tv.guest = guest.prog.name;

    // Every draw happens unconditionally, in a fixed order, so a tenant's
    // stream depends only on (seed, tenant) -- never on the churn cadences
    // or on OTHER tenants' plans. The isolation tests rely on this. Key
    // material comes from derive()d substreams, never from `rng` itself.
    const std::uint64_t rotate_pick = rng.next_u64();
    const std::uint64_t tamper_cls_pick = rng.next_u64();
    const std::uint64_t tamper_call_pick = rng.next_u64();
    const std::uint64_t tamper_seed = rng.next_u64();

    tv.tampered = std::find(cfg_.tamper_tenants.begin(), cfg_.tamper_tenants.end(),
                            tv.tenant) != cfg_.tamper_tenants.end();
    // Staggered churn by cadence; a tampered tenant's fault run owns the
    // plan hook, so its rotation churn is skipped.
    auto on_cadence = [&](int every) { return every > 0 && tv.tenant % every == every - 1; };
    tv.rotated = !tv.tampered && on_cadence(cfg_.rotate_every);
    tv.swapped = on_cadence(cfg_.swap_every);
    tv.respawned = on_cadence(cfg_.respawn_every);

    fault::Tenant tenant(guest);
    auto tenant_key = [&](std::uint64_t tag) {
      return derived_key(root.derive(tag ^ static_cast<std::uint64_t>(t)).next_u64());
    };
    const fault::SignedGuest keyed = guest.rekey(guest.base, tenant_key(0x4B455953ULL));
    tenant.use(keyed);

    // ---- run 1: the fault run (tampered) or a churned clean run ----
    std::optional<fault::FaultInjector> inj;
    std::optional<fault::SignedGuest> rotated;
    if (tv.tampered) {
      // Guest tamper drawn from the tenant's substream: verification-byte
      // classes that always find a target on a rewritten call, so the
      // lifecycle deterministically fail-stops.
      fault::FaultSpec spec;
      spec.cls = (tamper_cls_pick & 1) ? fault::MutationClass::DescriptorFlip
                                       : fault::MutationClass::CallMacFlip;
      const std::uint64_t span =
          std::max<std::uint64_t>(1, std::min<std::uint64_t>(4, guest.clean.syscalls));
      spec.trigger_call = 1 + static_cast<int>(tamper_call_pick % span);
      spec.seed = tamper_seed;
      tv.plan_repr = fault::spec_repr(spec);
      tenant.arm(inj.emplace(spec), 0);
    } else if (tv.rotated) {
      // Staggered mid-run key rotation, the GENUINE kind: at the drawn call
      // the tenant asks Kernel::rekey to move the live process to a fresh
      // key with the Rekeyer's re-signed view. A mid-trap request defers to
      // the next trap boundary, so no trap ever verifies under mixed
      // old/new material -- the guest must still complete identically.
      const int rotate_at =
          2 + static_cast<int>(rotate_pick % std::max<std::uint64_t>(1, guest.clean.syscalls));
      const fault::SignedGuest& to = rotated.emplace(guest.rekey(keyed, tenant_key(0x524F54ULL)));
      tv.plan_repr = "rekey@" + std::to_string(rotate_at);
      tenant.hook = [&tenant, &to, rotate_at, calls = 0](os::Process& p, os::TrapContext&,
                                                         os::TrapStage s) mutable {
        if (s == os::TrapStage::PreTrap && ++calls == rotate_at) tenant.live_rekey(p, to);
      };
    }
    if (const auto r1 = tenant.run("run 1"); r1 && inj) {
      if (const auto viols = tenant.violations(); !viols.empty()) {
        tv.violation = viols.front()->violation;
      }
      const fault::Outcome o = tenant.classify(*inj, *r1);
      if (o == fault::Outcome::Benign || o == fault::Outcome::NotApplied) {
        tenant.trip("tamper was not detected [repro " + tv.guest + " " + tv.plan_repr + "]");
      }
    } else if (r1) {
      tenant.expect_clean(*r1, "run 1");
    }
    tenant.hook = nullptr;
    // Respawn runs must match the kernel's key: once the rekey has been
    // APPLIED the rekeyed template is the current image; a still-parked
    // request lands at run 2's first trap, where the old template still
    // verifies under the old key.
    if (rotated && tenant.kernel().rekey_counters().rekeys > 0) tenant.use(*rotated);

    // ---- churn between runs: monitor swap ----
    if (tv.swapped) tenant.kernel().set_enforcement(os::Enforcement::Asc);

    // ---- run 2: respawn on the SAME kernel (teardown must have left the
    // shard coherent), also the tampered tenants' recovery run ----
    if (tv.respawned || tv.tampered) {
      if (const auto r2 = tenant.run("run 2")) tenant.expect_clean(*r2, "run 2");
    }

    tv.trips = tenant.finish("tenant " + std::to_string(t) + " (" + tv.guest + ", " +
                             tv.plan_repr + ", seed=" + std::to_string(cfg_.seed) + "): ");
    tv.runs = tenant.runs;
    tv.syscalls = tenant.syscalls;
    tv.cycles = tenant.cycles;
    tv.shard_bytes = tenant.kernel().tenant_state().approx_bytes();
    pipeline.stream(tv.tenant, tv.guest, tenant.kernel().audit_log());

    char line[240];
    std::snprintf(line, sizeof line,
                  "#%05d %-9s runs=%d calls=%llu rot=%d swap=%d spwn=%d plan=%s v=%s "
                  "bytes=%zu trips=%zu",
                  tv.tenant, tv.guest.c_str(), tv.runs,
                  static_cast<unsigned long long>(tv.syscalls), tv.rotated ? 1 : 0,
                  tv.swapped ? 1 : 0, tv.respawned ? 1 : 0, tv.plan_repr.c_str(),
                  os::violation_name(tv.violation).c_str(), tv.shard_bytes,
                  tv.trips.size());
    tv.trace_line = line;
    return tv;
  };

  // ---- fan the lifecycles out; merge serially in tenant order ----
  std::vector<TenantVerdict> tvs = fault::fan_out<TenantVerdict>(
      cfg_.executor, static_cast<std::size_t>(cfg_.tenants), lifecycle);
  FleetResult result;
  for (TenantVerdict& tv : tvs) {
    result.total_syscalls += tv.syscalls;
    result.total_cycles += tv.cycles;
    if (tv.rotated) ++result.rotations;
    if (tv.swapped) ++result.swaps;
    if (tv.respawned) ++result.respawns;
    if (tv.tampered) {
      ++result.tampered;
      if (tv.violation != os::Violation::None) ++result.tamper_detected;
    }
    result.total_shard_bytes += tv.shard_bytes;
    result.trips.insert(result.trips.end(), tv.trips.begin(), tv.trips.end());
    result.verdict_trace.push_back(tv.trace_line);
    result.tenants.push_back(std::move(tv));
  }
  result.audit = pipeline.merge();
  return result;
}

}  // namespace asc::fleet
