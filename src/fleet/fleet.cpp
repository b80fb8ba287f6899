#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "fault/fault.h"
#include "installer/rekeyer.h"
#include "tasm/assembler.h"
#include "util/error.h"
#include "util/executor.h"
#include "util/rng.h"

namespace asc::fleet {

namespace {

void fleet_fs(os::SimFs& fs) {
  auto put = [&](const std::string& path, const std::string& content) {
    auto ino = fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc,
                       0644);
    fs.write(static_cast<std::uint32_t>(ino), 0,
             std::vector<std::uint8_t>(content.begin(), content.end()), false);
  };
  put("/lines.txt", "pear\napple\nmango\ncherry\nbanana\n");
  put("/notes.txt", "fleet tenant fixture\nsecond line\n");
  put("/etc/vuln.conf", "mode=list\n");
}

/// The clean reference a lifecycle's runs are compared against.
struct CleanRef {
  bool completed = false;
  int exit_code = 0;
  std::string out;
  std::string err;
  int n_calls = 0;
};

/// One guest, installed once under test_key(). The SignManifest kept next
/// to each installed image is key-independent, so per-tenant keys and
/// genuine mid-run rotations rekey this ONE template (installer::Rekeyer,
/// O(MAC surface)) instead of re-installing per tenant.
struct InstalledHelper {
  std::string path;
  binary::Image image;
  installer::SignManifest manifest;
};
struct GuestArtifacts {
  const fault::GuestProgram* prog = nullptr;
  binary::Image installed;
  installer::SignManifest manifest;
  std::vector<InstalledHelper> helpers;
  CleanRef clean;
};

/// Tight getpid loop: the only fleet guest whose sites actually promote to
/// the Inline tier. Joined to the default pool when FleetConfig::inline_tier
/// is set, so respawn churn exercises tier-state teardown at fleet scale.
fault::GuestProgram fleet_loop_guest(os::Personality p) {
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
  fault::GuestProgram g;
  g.name = "pidloop";
  g.image = a.link();
  g.prepare_fs = fleet_fs;
  return g;
}

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
  std::vector<fault::GuestProgram> out;
  {
    fault::GuestProgram g;
    g.name = "cat";
    g.image = apps::build_tool_cat(p);
    g.argv = {"/lines.txt", "/notes.txt"};
    g.prepare_fs = fleet_fs;
    out.push_back(std::move(g));
  }
  {
    fault::GuestProgram g;
    g.name = "sort";
    g.image = apps::build_tool_sort(p);
    g.argv = {"/lines.txt"};
    g.prepare_fs = fleet_fs;
    out.push_back(std::move(g));
  }
  {
    fault::GuestProgram g;
    g.name = "cp";
    g.image = apps::build_tool_cp(p);
    g.argv = {"/lines.txt", "/fleet-copy.txt"};
    g.prepare_fs = fleet_fs;
    out.push_back(std::move(g));
  }
  {
    fault::GuestProgram g;
    g.name = "vuln_echo";
    g.image = apps::build_vuln_echo(p);
    g.stdin_data = "/lines.txt\n";
    g.helpers.emplace_back("/bin/ls", apps::build_tool_cat(p));
    g.prepare_fs = fleet_fs;
    out.push_back(std::move(g));
  }
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
  std::vector<fault::GuestProgram> pool =
      cfg_.guests.empty() ? default_fleet_guests(cfg_.personality) : cfg_.guests;
  if (cfg_.inline_tier && cfg_.guests.empty()) {
    pool.push_back(fleet_loop_guest(cfg_.personality));
  }
  if (pool.empty()) throw Error("fleet: empty guest pool");
  if (cfg_.tenants <= 0) throw Error("fleet: tenants must be positive");

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
    System sys(cfg_.personality);
    if (pool[g].prepare_fs) pool[g].prepare_fs(sys.kernel().fs());
    for (const auto& h : art.helpers) sys.machine().register_program(h.path, h.image);
    sys.machine().set_cycle_limit(cfg_.cycle_limit);
    const vm::RunResult r =
        sys.machine().run(art.installed, pool[g].argv, pool[g].stdin_data);
    if (!r.completed || r.violation != os::Violation::None) {
      throw Error("fleet: clean reference run of " + pool[g].name +
                  " failed: " + r.violation_detail);
    }
    art.clean.completed = r.completed;
    art.clean.exit_code = r.exit_code;
    art.clean.out = r.stdout_data;
    art.clean.err = r.stderr_data;
    art.clean.n_calls = static_cast<int>(r.syscalls);
    if (r.syscalls == 0) throw Error("fleet: " + pool[g].name + " makes no system calls");
  }

  const util::Rng root(cfg_.seed);
  AuditPipeline pipeline(cfg_.tenants);

  // ---- one tenant lifecycle: its own System, its own shard ----
  auto lifecycle = [&](int tenant) -> TenantVerdict {
    TenantVerdict tv;
    tv.tenant = tenant;
    util::Rng rng = root.derive(0xF1EE7ULL ^ static_cast<std::uint64_t>(tenant));
    const GuestArtifacts& art = arts[rng.next_below(arts.size())];
    tv.guest = art.prog->name;

    // Every draw happens unconditionally, in a fixed order, so a tenant's
    // stream depends only on (seed, tenant) -- never on the churn cadences
    // or on OTHER tenants' plans. The isolation tests rely on this.
    const std::uint64_t rotate_pick = rng.next_u64();
    const std::uint64_t tamper_cls_pick = rng.next_u64();
    const std::uint64_t tamper_call_pick = rng.next_u64();
    const std::uint64_t tamper_seed = rng.next_u64();

    tv.tampered = std::find(cfg_.tamper_tenants.begin(), cfg_.tamper_tenants.end(),
                            tenant) != cfg_.tamper_tenants.end();
    // Staggered churn by cadence; a tampered tenant's fault run owns the
    // pre-syscall hook, so its rotation churn is skipped.
    tv.rotated = !tv.tampered && cfg_.rotate_every > 0 &&
                 tenant % cfg_.rotate_every == cfg_.rotate_every - 1;
    tv.swapped = cfg_.swap_every > 0 && tenant % cfg_.swap_every == cfg_.swap_every - 1;
    tv.respawned =
        cfg_.respawn_every > 0 && tenant % cfg_.respawn_every == cfg_.respawn_every - 1;

    System sys(cfg_.personality);

    // Key material comes from derive()d substreams, never from `rng`
    // itself: the four draws above stay byte-stable whether or not
    // per-tenant keys or genuine rotations are in play.
    crypto::Key128 cur_key = test_key();
    const binary::Image* run_image = &art.installed;
    std::optional<installer::RekeyResult> keyed;  // per-tenant-key template
    std::vector<std::pair<std::string, binary::Image>> keyed_helpers;
    std::optional<installer::RekeyResult> rotated;  // mid-run rotation target
    std::vector<std::pair<std::string, binary::Image>> rotated_helpers;
    crypto::Key128 rot_key{};
    if (cfg_.per_tenant_keys) {
      cur_key = derived_key(
          root.derive(0x4B455953ULL ^ static_cast<std::uint64_t>(tenant)).next_u64());
      keyed = installer::Rekeyer::rekey(art.installed, art.manifest, test_key(), cur_key);
      run_image = &keyed->image;
      for (const auto& h : art.helpers) {
        keyed_helpers.emplace_back(
            h.path,
            installer::Rekeyer::rekey(h.image, h.manifest, test_key(), cur_key).image);
      }
      sys.kernel().set_key(cur_key);
    }
    if (keyed_helpers.empty()) {
      for (const auto& h : art.helpers) sys.machine().register_program(h.path, h.image);
    } else {
      for (const auto& [path, img] : keyed_helpers) sys.machine().register_program(path, img);
    }
    sys.machine().set_cycle_limit(cfg_.cycle_limit);
    if (cfg_.inline_tier) {
      sys.kernel().set_inline_tier(true);
      sys.kernel().tier_table().set_inline_threshold(2);
    }

    auto trip = [&](const std::string& what) {
      tv.trips.push_back("tenant " + std::to_string(tenant) + " (" + tv.guest + ", " +
                         tv.plan_repr + ", seed=" + std::to_string(cfg_.seed) +
                         "): " + what);
    };

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
      tv.syscalls += r.syscalls;
      tv.cycles += r.cycles;
      ++tv.runs;
      return true;
    };

    // Invariant oracles, audited after EVERY run: between runs no process is
    // alive, so every pid-keyed shard structure must be empty and the watch
    // accounting must balance.
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

    // ---- run 1: the fault run (tampered) or a churned clean run ----
    std::size_t audit_mark = sys.kernel().audit_log().size();
    vm::RunResult r1;
    if (tv.tampered) {
      // Guest tamper drawn from the tenant's substream: verification-byte
      // classes that always find a target on a rewritten call, so the
      // lifecycle deterministically fail-stops.
      fault::FaultSpec spec;
      spec.cls = (tamper_cls_pick & 1) ? fault::MutationClass::DescriptorFlip
                                       : fault::MutationClass::CallMacFlip;
      const std::uint64_t span =
          std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                         4, static_cast<std::uint64_t>(art.clean.n_calls)));
      spec.trigger_call = 1 + static_cast<int>(tamper_call_pick % span);
      spec.seed = tamper_seed;
      tv.plan_repr = fault::spec_repr(spec);
      fault::FaultInjector inj(spec);
      inj.arm(sys.machine());
      if (!run_once(r1)) return tv;
      audit_bookkeeping(r1, "fault run");
      const auto viols = violations_since(audit_mark);
      if (viols.empty()) {
        trip("tamper was not detected [repro " + tv.guest + " " + tv.plan_repr + "]");
      } else {
        tv.violation = viols.front()->violation;
        const auto& exp = fault::expected_violations(spec.cls);
        if (std::find(exp.begin(), exp.end(), tv.violation) == exp.end()) {
          trip("wrong verdict " + os::violation_name(tv.violation) + " [repro " +
               tv.guest + " " + tv.plan_repr + "]");
        }
        if (!viols.front()->killed) {
          trip("tamper detected but did not fail-stop [repro " + tv.guest + " " +
               tv.plan_repr + "]");
        }
      }
      sys.machine().pre_syscall_hook = nullptr;
      sys.kernel().set_stage_hook({});
    } else {
      // Staggered mid-run key rotation, the GENUINE kind: at the drawn call
      // the tenant asks Kernel::rekey to move the live process to a fresh
      // key with the Rekeyer's re-signed view. A mid-trap request defers to
      // the next trap boundary, so no trap ever verifies under mixed
      // old/new material -- the guest must still complete identically.
      int calls = 0;
      const int rotate_at =
          2 + static_cast<int>(rotate_pick %
                               static_cast<std::uint64_t>(std::max(1, art.clean.n_calls)));
      if (tv.rotated) {
        rot_key = derived_key(
            root.derive(0x524F54ULL ^ static_cast<std::uint64_t>(tenant)).next_u64());
        rotated = installer::Rekeyer::rekey(*run_image, art.manifest, cur_key, rot_key);
        for (const auto& h : art.helpers) {
          const binary::Image& base =
              keyed_helpers.empty() ? h.image
                                    : keyed_helpers[rotated_helpers.size()].second;
          rotated_helpers.emplace_back(
              h.path, installer::Rekeyer::rekey(base, h.manifest, cur_key, rot_key).image);
        }
        tv.plan_repr = "rekey@" + std::to_string(rotate_at);
        sys.machine().pre_syscall_hook = [&, helpers_pending = false](
                                             os::Process& p, std::uint32_t) mutable {
          // A deferred rekey lands inside the next depth-0 trap; swap the
          // helper registrations just before it does, so any spawn after
          // the key swap hands the kernel a child signed under the new key.
          auto swap_helpers = [&] {
            for (const auto& [path, img] : rotated_helpers) {
              sys.machine().register_program(path, img);
            }
          };
          if (helpers_pending && sys.kernel().trap_depth() == 0) {
            swap_helpers();
            helpers_pending = false;
          }
          if (++calls == rotate_at) {
            const bool now = sys.kernel().rekey(p, rot_key, rotated->view);
            if (now) {
              swap_helpers();
            } else {
              helpers_pending = !rotated_helpers.empty();
            }
          }
        };
      }
      if (!run_once(r1)) return tv;
      sys.machine().pre_syscall_hook = nullptr;
      audit_bookkeeping(r1, "run 1");
      if (!violations_since(audit_mark).empty()) {
        trip("clean lifecycle yielded a Violation verdict");
      }
      if (!behaves_like_clean(r1)) trip("run 1 diverged from the clean reference");
      // Respawn runs must match the kernel's key: once the rekey has been
      // APPLIED the rekeyed template is the current image; a still-pending
      // request stays queued and lands at run 2's first trap, where the old
      // template still verifies under the old key.
      if (tv.rotated && sys.kernel().rekey_counters().rekeys > 0) {
        run_image = &rotated->image;
      }
    }

    // ---- churn between runs: monitor swap ----
    if (tv.swapped) sys.kernel().set_enforcement(os::Enforcement::Asc);

    // ---- run 2: respawn on the SAME kernel (teardown must have left the
    // shard coherent), also the tampered tenants' recovery run ----
    if (tv.respawned || tv.tampered) {
      audit_mark = sys.kernel().audit_log().size();
      vm::RunResult r2;
      if (run_once(r2)) {
        audit_bookkeeping(r2, "run 2");
        if (!violations_since(audit_mark).empty()) {
          trip("respawn run yielded a Violation verdict");
        }
        if (!behaves_like_clean(r2)) trip("respawn run diverged from the clean reference");
      }
    }

    tv.shard_bytes = sys.kernel().tenant_state().approx_bytes();
    pipeline.stream(tenant, tv.guest, sys.kernel().audit_log());

    char line[240];
    std::snprintf(line, sizeof line,
                  "#%05d %-9s runs=%d calls=%llu rot=%d swap=%d spwn=%d plan=%s v=%s "
                  "bytes=%zu trips=%zu",
                  tenant, tv.guest.c_str(), tv.runs,
                  static_cast<unsigned long long>(tv.syscalls), tv.rotated ? 1 : 0,
                  tv.swapped ? 1 : 0, tv.respawned ? 1 : 0, tv.plan_repr.c_str(),
                  os::violation_name(tv.violation).c_str(), tv.shard_bytes,
                  tv.trips.size());
    tv.trace_line = line;
    return tv;
  };

  // ---- fan the lifecycles out; merge serially in tenant order ----
  std::vector<TenantVerdict> tvs =
      util::resolve_executor(cfg_.executor)
          .parallel_map<TenantVerdict>(static_cast<std::size_t>(cfg_.tenants),
                                       [&](std::size_t t) {
                                         return lifecycle(static_cast<int>(t));
                                       });

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
