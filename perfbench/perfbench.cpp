// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload fleet|macro|syscall|install --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// Builds the workload's inputs from the seed (set-up, repeated and reported
// as the median), then runs closed-loop passes -- one client thread, the
// next operation starts when the previous one returns -- until the next pass
// would overrun --seconds. Every pass does the same simulated work, so its
// fingerprint of simulated statistics must repeat exactly; the outputs of
// every operation are checked against a reference made during set-up. With
// --trace 1, untraced and traced passes alternate and the traced ones record
// spans around each layer's public calls. The last line of stdout is the
// JSON result (see README.md for every metric).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "fleet/fleet.h"
#include "installer/rekeyer.h"
#include "tasm/assembler.h"
#include "trace.h"
#include "util/executor.h"
#include "util/rng.h"

namespace {

using namespace asc;
using perfbench::Name;
using perfbench::Tracer;

constexpr auto kPers = os::Personality::LinuxSim;
/// A run repeats set-up at least kMinSetups times and until kMinSetupSeconds
/// have been spent in it; setup_s is the median set-up.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 0.5;
/// Allocations at least this large are mmapped and unmapped on free.
constexpr int kMmapThreshold = 1 << 20;

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a, the digest the fleet driver's audit merge also uses.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
  void add(const std::string& s) {
    add(s.data(), s.size());
    add("\0", 1);
  }
  void add(const std::vector<std::uint8_t>& v) { add(v.data(), v.size()); }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
};

/// Peak resident set of this process image, in MiB. VmHWM starts afresh at
/// exec, where getrusage's ru_maxrss keeps the high-water mark of whatever
/// process image exec replaced (here, the Python launcher).
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_minflt)};
}

/// What one pass did. `count` and `digest` are simulated results and must
/// repeat exactly in every pass; the rest is host time.
struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double work = 0;       // units of host_work_per_s done by the pass
  double work_s = 0;     // host time of the pass's work window (checks excluded)
  Usage usage;           // getrusage delta over the work window
  double run_s = 0;      // time inside Machine::run
  double install_s = 0;  // time inside Installer::analyze + rewrite
  double rekey_s = 0;    // time inside Rekeyer::rekey
  std::map<std::string, double> count;
  std::map<std::string, std::string> digest;

  std::string fingerprint() const {
    Fnv f;
    char buf[64];
    for (const auto& [k, v] : count) {
      std::snprintf(buf, sizeof buf, "=%.17g", v);
      f.add(k + buf);
    }
    for (const auto& [k, v] : digest) f.add(k + "=" + v);
    return f.hex();
  }
};

/// Brackets the work part of a pass: wall time and getrusage delta.
class WorkWindow {
 public:
  WorkWindow() : u0_(usage_now()), t0_(now()) {}
  void stop(Pass& p) const {
    p.work_s = now() - t0_;
    const Usage u1 = usage_now();
    p.usage = {u1.user_s - u0_.user_s, u1.sys_s - u0_.sys_s, u1.minflt - u0_.minflt};
  }

 private:
  Usage u0_;
  double t0_;
};

/// Routes a kernel's trap-stage boundaries into the tracer (no-op untraced).
/// The stage hook leaves the threaded engine on.
void attach(os::Kernel& k, Tracer* tr) {
  if (tr == nullptr) return;
  k.set_stage_hook([tr, &k](os::Process&, os::TrapContext&, os::TrapStage s) {
    tr->on_stage(static_cast<int>(s), k.trap_depth(), now());
  });
}

/// Machine::run, timed, and spanned as vm.run when traced.
vm::RunResult run_guest(System& sys, const binary::Image& img,
                        const std::vector<std::string>& argv, Tracer* tr, Pass& p) {
  const double t0 = now();
  if (tr != nullptr) {
    tr->new_run();
    tr->begin(Name::VmRun, t0);
  }
  vm::RunResult r = sys.machine().run(img, argv);
  const double t1 = now();
  if (tr != nullptr) tr->end_run(t1);
  p.run_s += t1 - t0;
  return r;
}

/// The unmonitored run an enforced run must reproduce.
struct Reference {
  int exit_code = 0;
  std::string out;
  std::string err;
  std::uint64_t cycles = 0;
};

Reference reference_run(const vm::RunResult& r, const std::string& what) {
  if (!r.completed || r.violation != os::Violation::None) {
    throw Error("unmonitored reference run of " + what + " failed: " + r.violation_detail);
  }
  return {r.exit_code, r.stdout_data, r.stderr_data, r.cycles};
}

bool matches(const vm::RunResult& r, const Reference& ref) {
  return r.completed && r.violation == os::Violation::None && r.exit_code == ref.exit_code &&
         r.stdout_data == ref.out && r.stderr_data == ref.err;
}

/// The kernel configuration of `asctool run`: verified-call cache, policy
/// shadow and inline tier all on, threaded engine.
void configure(System& sys) {
  sys.machine().set_dispatch(vm::DispatchMode::Threaded);
  sys.kernel().set_verified_call_cache(true);
  sys.kernel().set_policy_shadow(true);
  sys.kernel().set_inline_tier(true);
}

/// Adds the per-layer counts of one enforced guest run to the pass.
void count_run(const vm::RunResult& r, const os::Kernel& k, Pass& p) {
  auto& c = p.count;
  c["modeled_cycles"] += static_cast<double>(r.cycles);
  c["verified_syscalls"] += static_cast<double>(r.syscalls);
  c["vm.instructions"] += static_cast<double>(r.instructions);
  c["vm.processes"] += 1;
  c["vm.predecode_blocks"] += static_cast<double>(r.predecode.blocks);
  c["vm.superinstructions"] += static_cast<double>(r.predecode.superinstructions);
  const os::TierStats t = k.tier_stats();
  c["os.eager"] += static_cast<double>(t.eager);
  c["os.cached"] += static_cast<double>(t.cached);
  c["os.shadowed"] += static_cast<double>(t.shadowed);
  c["os.inline_hits"] += static_cast<double>(t.inline_hits);
  c["os.cache_misses"] += static_cast<double>(t.cache_misses);
  c["os.demotions"] += static_cast<double>(t.demotions_total());
  for (const os::VerdictRecord& rec : k.audit_log()) {
    if (rec.kind == os::AuditKind::Violation) c["os.violations"] += 1;
    if (rec.kind == os::AuditKind::Spawn) c["vm.processes"] += 1;
  }
}

void put_file(os::SimFs& fs, const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const auto ino =
      fs.open("/", path, os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0, bytes, false);
}

/// A seeded value within +-permille/1000 of `base`.
std::uint32_t in_band(util::Rng& rng, std::uint32_t base, std::uint32_t permille) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(base) *
                                    (1000 - permille + rng.next_below(2 * permille + 1)) /
                                    1000);
}

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input from the seed; may run several times.
  virtual void setup(std::uint64_t seed) = 0;
  /// One closed-loop pass over the inputs; `tr` is null when untraced.
  virtual Pass pass(Tracer* tr) = 0;
};

// ---- fleet: many short tenant lifecycles on cold kernels ----

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(util::Executor& exec) : exec_(exec) {}

  void setup(std::uint64_t seed) override {
    util::Rng rng = util::Rng(seed).derive(0xF1EE7);
    cfg_ = fleet::FleetConfig{};
    cfg_.seed = rng.next_u64();
    cfg_.tenants = kTenants;
    cfg_.executor = &exec_;
    // The default pool, built here so it counts as set-up.
    cfg_.guests = fleet::default_fleet_guests(kPers);
    while (cfg_.tamper_tenants.size() < static_cast<std::size_t>(kTenants / 100)) {
      const int t = static_cast<int>(rng.next_below(kTenants));
      if (std::find(cfg_.tamper_tenants.begin(), cfg_.tamper_tenants.end(), t) ==
          cfg_.tamper_tenants.end()) {
        cfg_.tamper_tenants.push_back(t);
      }
    }
    std::sort(cfg_.tamper_tenants.begin(), cfg_.tamper_tenants.end());
  }

  Pass pass(Tracer* tr) override {
    Pass p;
    const WorkWindow w;
    if (tr != nullptr) {
      tr->new_run();
      tr->begin(Name::FleetRun, now());
    }
    const fleet::FleetResult r = fleet::Driver(cfg_).run();
    if (tr != nullptr) tr->end(now());
    w.stop(p);

    auto& c = p.count;
    Fnv trace;
    for (const fleet::TenantVerdict& tv : r.tenants) {
      ++p.attempted;
      if (!tv.trips.empty() || (tv.tampered && tv.violation == os::Violation::None)) {
        ++p.failed;
      }
      c["fleet.runs"] += tv.runs;
      c["vm.processes"] += tv.runs;
      trace.add(tv.trace_line);
    }
    for (const os::VerdictRecord& rec : r.audit.records) {
      if (rec.kind == os::AuditKind::Spawn) c["vm.processes"] += 1;
      if (rec.kind == os::AuditKind::Violation) c["os.violations"] += 1;
    }
    c["modeled_cycles"] = static_cast<double>(r.total_cycles);
    c["verified_syscalls"] = static_cast<double>(r.total_syscalls);
    c["fleet.lifecycles"] = static_cast<double>(r.tenants.size());
    c["fleet.rotations"] = r.rotations;
    c["fleet.swaps"] = r.swaps;
    c["fleet.respawns"] = r.respawns;
    c["fleet.tampered"] = r.tampered;
    c["fleet.tamper_detected"] = r.tamper_detected;
    c["fleet.oracle_trips"] = static_cast<double>(r.trips.size());
    c["fleet.shard_bytes_per_tenant"] =
        static_cast<double>(r.total_shard_bytes) / static_cast<double>(r.tenants.size());
    c["fleet.audit_records"] = static_cast<double>(r.audit.records.size());
    p.digest["fleet.verdict_trace"] = trace.hex();
    p.digest["fleet.audit"] = r.audit.digest;
    p.work = static_cast<double>(r.total_syscalls);
    return p;
  }

 private:
  static constexpr int kTenants = 250;
  util::Executor& exec_;
  fleet::FleetConfig cfg_;
};

// ---- guest workloads: installed programs against unmonitored references ----

struct Guest {
  std::string name;
  binary::Image original;
  binary::Image installed;
  std::vector<std::string> argv;
  /// SimFs fixtures {path, bytes owned by the workload} written before each run.
  std::vector<std::pair<std::string, const std::vector<std::uint8_t>*>> files;
  Reference ref;
};

void prepare_fs(os::SimFs& fs, const Guest& g) {
  for (const auto& [path, bytes] : g.files) put_file(fs, path, *bytes);
}

/// Shared pass of `macro` and `syscall`: each guest runs once on a fresh
/// System configured as `asctool run` configures it. `work_key` names the
/// count that host_work_per_s divides by the work window.
class GuestWorkload : public Workload {
 public:
  GuestWorkload(util::Executor& exec, std::string work_key)
      : exec_(exec), work_key_(std::move(work_key)) {}

  Pass pass(Tracer* tr) override {
    Pass p;
    std::vector<vm::RunResult> results;
    {
      const WorkWindow w;
      for (const Guest& g : guests_) {
        System sys(kPers);
        configure(sys);
        prepare_fs(sys.kernel().fs(), g);
        attach(sys.kernel(), tr);
        results.push_back(run_guest(sys, g.installed, g.argv, tr, p));
        count_run(results.back(), sys.kernel(), p);
      }
      w.stop(p);
    }
    Fnv outputs;
    std::vector<std::pair<double, double>> overheads;
    for (std::size_t i = 0; i < guests_.size(); ++i) {
      const vm::RunResult& r = results[i];
      ++p.attempted;
      if (!matches(r, guests_[i].ref)) ++p.failed;
      outputs.add(guests_[i].name);
      outputs.add(std::to_string(r.exit_code));
      outputs.add(r.stdout_data);
      outputs.add(r.stderr_data);
      overheads.emplace_back(static_cast<double>(r.cycles),
                             static_cast<double>(guests_[i].ref.cycles));
    }
    p.count["modeled_overhead_pct"] = perfbench::overhead_mean_pct(overheads);
    p.digest["outputs"] = outputs.hex();
    p.work = p.count.at(work_key_);
    return p;
  }

 protected:
  /// Install every guest (fresh installer, width-1 pool) and make its
  /// unmonitored reference run.
  void install_and_reference() {
    installer::InstallOptions opts;
    opts.executor = &exec_;
    for (Guest& g : guests_) {
      g.installed = installer::Installer(test_key(), kPers).install(g.original, opts).image;
      System sys(kPers, test_key(), os::Enforcement::Off);
      sys.machine().set_dispatch(vm::DispatchMode::Threaded);
      prepare_fs(sys.kernel().fs(), g);
      g.ref = reference_run(sys.machine().run(g.original, g.argv), g.name);
    }
  }

  util::Executor& exec_;
  std::string work_key_;
  std::vector<Guest> guests_;
};

// ---- macro: the nine Table 6 programs ----

class MacroWorkload : public GuestWorkload {
 public:
  explicit MacroWorkload(util::Executor& exec) : GuestWorkload(exec, "vm.instructions") {}

  void setup(std::uint64_t seed) override {
    util::Rng rng = util::Rng(seed).derive(0x3AC40);
    // Table 6 arguments; gcc and gzip take their size from a fixture file.
    const std::vector<std::pair<std::string, std::uint32_t>> table = {
        {"gzip-spec", 150}, {"crafty", 2000000}, {"mcf", 3000},
        {"vpr", 1500000},   {"twolf", 1500000},  {"gcc", 800},
        {"vortex", 150000}, {"pyramid", 2500},   {"gzip", 4000}};
    std::map<std::string, binary::Image> built;
    for (auto& [name, img] : apps::build_all(kPers)) built.emplace(name, std::move(img));
    guests_.clear();
    for (const auto& [name, base] : table) {
      Guest g;
      g.name = name;
      g.original = built.at(name);
      const std::uint32_t n = in_band(rng, base, 100);
      if (name == "gcc") {
        source_fns_ = n;
        g.argv = {"/in.c", "/out.o"};
      } else if (name == "gzip") {
        text_lines_ = n;
        g.argv = {"/big.txt"};
      } else {
        g.argv = {std::to_string(n)};
      }
      // Every program sees both fixtures, as in Table 6.
      g.files = {{"/in.c", &source_}, {"/big.txt", &text_}};
      guests_.push_back(std::move(g));
    }
    shuffle(guests_, rng);
    std::string src = "int main() { return 0; }\n";
    for (std::uint32_t i = 0; i < source_fns_; ++i) {
      src += "void f" + std::to_string(i) + "() { /* body */ }\n";
    }
    source_.assign(src.begin(), src.end());
    std::string big;
    for (std::uint32_t i = 0; i < text_lines_; ++i) {
      big += "the quick brown fox jumps over the lazy dog " + std::to_string(i % 7) + "\n";
    }
    text_.assign(big.begin(), big.end());
    install_and_reference();
  }

 private:
  std::uint32_t source_fns_ = 0;
  std::uint32_t text_lines_ = 0;
  std::vector<std::uint8_t> source_;
  std::vector<std::uint8_t> text_;
};

// ---- syscall: Table 4's five call loops ----

enum class Call { Getpid, Gettimeofday, Brk, Read4k, Write4k };

/// `iters` repetitions of one call in a guest loop, as Table 4 builds them.
binary::Image build_loop_guest(Call call, std::uint32_t iters) {
  using namespace asc::apps;
  tasm::Assembler a("microloop");
  a.func("main");
  a.subi(SP, 4);
  a.movi(R11, iters);
  a.store(SP, 0, R11);
  if (call == Call::Read4k || call == Call::Write4k) {
    a.lea(R1, "mb_file");
    a.movi(R2, O_RDWR | O_CREAT);
    a.movi(R3, 0644);
    a.call("open_or_die");
    a.lea(R11, "mb_fd");
    a.store(R11, 0, R0);
  }
  a.label(".loop");
  a.load(R11, SP, 0);
  a.cmpi(R11, 0);
  a.jz(".done");
  switch (call) {
    case Call::Getpid:
      a.call("sys_getpid");
      break;
    case Call::Gettimeofday:
      a.lea(R1, "mb_tv");
      a.movi(R2, 0);
      a.call("sys_gettimeofday");
      break;
    case Call::Brk:
      a.movi(R1, 0);
      a.call("sys_brk");
      break;
    case Call::Read4k:
    case Call::Write4k:
      a.lea(R11, "mb_fd");
      a.load(R1, R11, 0);
      a.lea(R2, "mb_buf");
      a.movi(R3, 4096);
      a.call(call == Call::Read4k ? "sys_read" : "sys_write");
      break;
  }
  a.load(R11, SP, 0);
  a.subi(R11, 1);
  a.store(SP, 0, R11);
  a.jmp(".loop");
  a.label(".done");
  a.addi(SP, 4);
  a.movi(R0, 0);
  a.ret();
  a.rodata_cstr("mb_file", "/tmp/mb.dat");
  a.bss("mb_tv", 8);
  a.bss("mb_buf", 4096);
  a.bss("mb_fd", 4);
  emit_libc(a, kPers);
  return a.link();
}

class SyscallWorkload : public GuestWorkload {
 public:
  explicit SyscallWorkload(util::Executor& exec) : GuestWorkload(exec, "verified_syscalls") {}

  void setup(std::uint64_t seed) override {
    util::Rng rng = util::Rng(seed).derive(0x5CA11);
    // Cheap calls dominate the call count; brk, which takes the whole trap
    // pipeline, dominates host time. The band is narrow because the mix sets
    // both the mean host cost of a call and the size of the read/write files.
    const std::vector<std::tuple<std::string, Call, std::uint32_t>> loops = {
        {"getpid", Call::Getpid, 200000},
        {"gettimeofday", Call::Gettimeofday, 200000},
        {"brk", Call::Brk, 300000},
        {"read4k", Call::Read4k, 1500},
        {"write4k", Call::Write4k, 1500}};
    guests_.clear();
    std::uint32_t reads = 0;
    for (const auto& [name, call, base] : loops) {
      Guest g;
      g.name = name;
      const std::uint32_t iters = in_band(rng, base, 20);
      if (call == Call::Read4k) {
        reads = iters;
        g.files = {{"/tmp/mb.dat", &data_}};
      }
      g.original = build_loop_guest(call, iters);
      guests_.push_back(std::move(g));
    }
    shuffle(guests_, rng);
    // Every read returns a full 4096 bytes; the write loop appends to a
    // file of its own.
    data_.assign(4096ull * (reads + 1), 0x5a);
    install_and_reference();
  }

 private:
  std::vector<std::uint8_t> data_;
};

// ---- install: analyze + rewrite + rekey of every bundled app ----

class InstallWorkload : public Workload {
 public:
  explicit InstallWorkload(util::Executor& exec) : exec_(exec) {}

  void setup(std::uint64_t seed) override {
    util::Rng rng = util::Rng(seed).derive(0x1257A11);
    apps_ = apps::build_all(kPers);
    shuffle(apps_, rng);
    keys_.clear();
    fresh_.clear();
    for (const auto& [name, img] : apps_) {
      keys_.push_back(derived_key(rng.next_u64()));
      // What the rekeyed image must equal: a fresh install under the new key.
      fresh_.push_back(
          installer::Installer(keys_.back(), kPers).install(img, options()).image.serialize());
    }
  }

  Pass pass(Tracer* tr) override {
    Pass p;
    struct Out {
      bool installed = false;
      bool rekeyed = false;
      installer::InstallResult install;
      binary::Image rekey;
    };
    std::vector<Out> outs(apps_.size());
    {
      const WorkWindow w;
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        const binary::Image& img = apps_[i].second;
        Out& o = outs[i];
        const double t0 = now();
        if (tr != nullptr) {
          tr->new_run();
          tr->begin(Name::InstallerAnalyze, t0);
        }
        try {
          installer::Installer inst(test_key(), kPers);
          installer::GeneratedPolicies gp = inst.analyze(img, options());
          if (tr != nullptr) {
            const double t1 = now();
            tr->end(t1);
            tr->begin(Name::InstallerRewrite, t1);
          }
          o.install = inst.rewrite(img, std::move(gp), options());
          o.installed = true;
        } catch (const std::exception&) {
        }
        const double t2 = now();
        if (tr != nullptr) tr->end(t2);  // rewrite, or analyze if it threw
        p.install_s += t2 - t0;
        if (!o.installed) continue;
        if (tr != nullptr) tr->begin(Name::InstallerRekey, t2);
        try {
          o.rekey = installer::Rekeyer::rekey(o.install.image, o.install.manifest, test_key(),
                                              keys_[i], &exec_)
                        .image;
          o.rekeyed = true;
        } catch (const std::exception&) {
        }
        const double t3 = now();
        if (tr != nullptr) tr->end(t3);
        p.rekey_s += t3 - t2;
      }
      w.stop(p);
    }
    Fnv images;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const Out& o = outs[i];
      p.attempted += 2;
      images.add(apps_[i].first);
      if (!o.installed) {
        p.failed += 2;
        continue;
      }
      const std::vector<std::uint8_t> rekeyed = o.rekey.serialize();
      if (!o.rekeyed || rekeyed != fresh_[i]) ++p.failed;
      images.add(o.install.image.serialize());
      images.add(rekeyed);
      p.count["installer.sites"] += static_cast<double>(o.install.policies.size());
      p.count["crypto.mac_surface_bytes"] +=
          static_cast<double>(o.install.manifest.mac_surface_bytes());
      p.count["images"] += 1;
    }
    p.digest["installed_images"] = images.hex();
    p.work = static_cast<double>(apps_.size());
    return p;
  }

 private:
  installer::InstallOptions options() const {
    installer::InstallOptions o;
    o.executor = &exec_;
    return o;
  }

  util::Executor& exec_;
  std::vector<std::pair<std::string, binary::Image>> apps_;
  std::vector<crypto::Key128> keys_;
  std::vector<std::vector<std::uint8_t>> fresh_;
};

// ---- command line and main ----

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || std::strspn(s, "0123456789") != std::strlen(s)) return false;
  *out = std::strtoull(s, nullptr, 10);
  return true;
}

bool parse(int argc, char** argv, Options* o) {
  bool have_w = false;
  bool have_seed = false;
  bool have_secs = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return false;
    std::uint64_t n = 0;
    if (a == "--workload") {
      o->workload = v;
      have_w = true;
    } else if (a == "--seed" && parse_u64(v, &n)) {
      o->seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, &n) && n > 0) {
      o->seconds = static_cast<double>(n);
      have_secs = true;
    } else if (a == "--trace" && parse_u64(v, &n) && n <= 1) {
      o->trace = n == 1;
      have_trace = true;
    } else if (a == "--spans-out") {
      o->spans_out = v;
    } else {
      return false;
    }
    ++i;
  }
  return have_w && have_seed && have_secs && have_trace;
}

std::string env_or_unset(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read before any thread starts
  const char* v = std::getenv(name);
  return v == nullptr ? "<unset>" : v;
}

/// A per-pass quantity: a host time or one of the pass's simulated counts.
using Field = std::function<double(const Pass&)>;

Field count_of(const std::string& key) {
  return [key](const Pass& p) {
    const auto it = p.count.find(key);
    return it == p.count.end() ? 0.0 : it->second;
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mean of a per-pass quantity.
double mean(const std::vector<Pass>& ps, const Field& f) {
  double s = 0;
  for (const Pass& p : ps) s += f(p);
  return ratio(s, static_cast<double>(ps.size()));
}

/// Lower quartile over passes of num / den: the rate three passes in four
/// meet or beat. On a shared host, bursts of extra speed come and go, and
/// across runs this quartile spread less than the median or the mean did.
double quartile_rate(const std::vector<Pass>& ps, const Field& num, const Field& den) {
  std::vector<double> rates;
  for (const Pass& p : ps) rates.push_back(ratio(num(p), den(p)));
  return perfbench::percentile(rates, 0.25);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now();
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet|macro|syscall|install --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }

  // Pin every knob the library reads from the environment, after recording
  // what the caller had set: one worker everywhere, the threaded engine, and
  // the host's default AES backend.
  const std::string env_aes = env_or_unset("ASC_AES");
  const std::string env_dispatch = env_or_unset("ASC_DISPATCH");
  const std::string env_jobs = env_or_unset("ASC_JOBS");
  // glibc's dynamic mmap threshold decides, from the heap's history, whether
  // a freed 8 MiB guest address space goes back to the kernel or is reused;
  // left dynamic, fleet host time flips between two modes 4x apart from one
  // seed to the next. Pinned, every guest address space is faulted in fresh.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  util::Executor::set_global_jobs(1);
  util::Executor exec(1);
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- no thread has started yet
  unsetenv("ASC_DISPATCH");  // machines the fleet driver builds read it
  crypto::Aes128::set_backend_policy(crypto::Aes128::BackendPolicy::Auto);
  const bool aesni =
      crypto::Aes128(test_key()).backend() == crypto::Aes128::Backend::Aesni;

  std::unique_ptr<Workload> wl;
  if (opt.workload == "fleet") wl = std::make_unique<FleetWorkload>(exec);
  else if (opt.workload == "macro") wl = std::make_unique<MacroWorkload>(exec);
  else if (opt.workload == "syscall") wl = std::make_unique<SyscallWorkload>(exec);
  else if (opt.workload == "install") wl = std::make_unique<InstallWorkload>(exec);
  else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  std::printf("env: workload=%s seed=%llu seconds=%.0f trace=%d aes_backend=%s ASC_AES=%s "
              "ASC_DISPATCH=%s ASC_JOBS=%s nproc=%u jobs=1 dispatch=threaded "
              "mmap_threshold=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, aesni ? "aesni" : "scratch", env_aes.c_str(),
              env_dispatch.c_str(), env_jobs.c_str(), std::thread::hardware_concurrency(),
              kMmapThreshold);

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  // Only a traced run pays for the tracer's memory.
  const std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  double setup_s = 0;
  try {
    // The first set-up is timed from process start.
    std::vector<double> setups;
    double setup_total = 0;
    while (setups.size() < kMinSetups || setup_total < kMinSetupSeconds) {
      const double t0 = setups.empty() ? t_start : now();
      wl->setup(opt.seed);
      setups.push_back(now() - t0);
      setup_total += setups.back();
    }
    setup_s = perfbench::median(setups);

    // Closed loop: untraced passes, alternating with traced ones under
    // --trace 1, until the next pass would overrun the budget.
    const double phase = now();
    bool trace_next = false;
    while (true) {
      const double t0 = now();
      const bool traced_pass = opt.trace && trace_next;
      Pass p = wl->pass(traced_pass ? tracer.get() : nullptr);
      (traced_pass ? traced : untraced).push_back(std::move(p));
      trace_next = !trace_next;
      const double t1 = now();
      const bool enough = !untraced.empty() && (!opt.trace || !traced.empty());
      if (enough && (t1 - phase) + (t1 - t0) > opt.seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Every pass must reproduce the first pass's simulated statistics.
  const Pass& first = untraced.front();
  const std::string fp = first.fingerprint();
  bool consistent = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* ps : {&untraced, &traced}) {
    for (const Pass& p : *ps) {
      consistent = consistent && p.fingerprint() == fp;
      attempted += p.attempted;
      failed += p.failed;
    }
  }
  std::printf("fingerprint: %s\n", fp.c_str());
  std::printf("simulated:");
  for (const auto& [k, v] : first.count) std::printf(" %s=%.17g", k.c_str(), v);
  for (const auto& [k, v] : first.digest) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::vector<double> rates;
  for (const Pass& p : untraced) rates.push_back(ratio(p.work, p.work_s));
  std::printf("\npasses: untraced=%zu traced=%zu consistent=%d\n", untraced.size(),
              traced.size(), consistent ? 1 : 0);
  std::printf("untraced work/s: min=%.6g p25=%.6g median=%.6g p75=%.6g max=%.6g\n",
              perfbench::percentile(rates, 0), perfbench::percentile(rates, 0.25),
              perfbench::median(rates), perfbench::percentile(rates, 0.75),
              perfbench::percentile(rates, 1));
  const Field work_s = [](const Pass& p) { return p.work_s; };
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MiB", peak_rss_mib()},
        {"host_work_per_s", "1/s", perfbench::percentile(rates, 0.25)},
    };
  } else {
    // Per-layer figures are per traced pass; the workload-specific
    // end-to-end figures come from the untraced passes of the same process.
    const auto n = static_cast<double>(traced.size());
    auto per = [&](const std::string& key) { return mean(traced, count_of(key)); };
    auto span_s = [&](Name name) { return tracer->totals(name).total / n; };
    const auto vm_run = tracer->totals(Name::VmRun);
    const double traps = static_cast<double>(tracer->traps().count());
    auto per_trap_ns = [&](Name name) { return ratio(tracer->totals(name).total * 1e9, traps); };
    const double minflt = mean(traced, [](const Pass& p) { return p.usage.minflt; });
    const double work_t = mean(traced, work_s);
    const Field images = count_of("images");
    metrics = {
        {"proc.user_s", "s", mean(traced, [](const Pass& p) { return p.usage.user_s; })},
        {"proc.sys_s", "s", mean(traced, [](const Pass& p) { return p.usage.sys_s; })},
        {"proc.minflt", "count", minflt},
        {"vm.processes", "count", per("vm.processes")},
        {"vm.minflt_per_process", "count", ratio(minflt, per("vm.processes"))},
        {"vm.run_s", "s", span_s(Name::VmRun)},
        {"vm.instructions", "count", per("vm.instructions")},
        {"vm.self_ns_per_instr", "ns",
         ratio((vm_run.total - vm_run.child) * 1e9, n * per("vm.instructions"))},
        {"vm.predecode_blocks", "count", per("vm.predecode_blocks")},
        {"vm.superinstructions", "count", per("vm.superinstructions")},
        {"os.traps", "count", traps / n},
        {"os.enforce_ns", "ns", per_trap_ns(Name::OsEnforce)},
        {"os.dispatch_ns", "ns", per_trap_ns(Name::OsDispatch)},
        {"os.audit_ns", "ns", per_trap_ns(Name::OsAudit)},
        {"os.trap_ns_p50", "ns", tracer->traps().percentile(0.50)},
        {"os.trap_ns_p99", "ns", tracer->traps().percentile(0.99)},
        {"os.run_share", "ratio", ratio(vm_run.child, vm_run.total)},
        {"os.eager", "count", per("os.eager")},
        {"os.cached", "count", per("os.cached")},
        {"os.shadowed", "count", per("os.shadowed")},
        {"os.inline_hits", "count", per("os.inline_hits")},
        {"os.cache_misses", "count", per("os.cache_misses")},
        {"os.demotions", "count", per("os.demotions")},
        {"os.violations", "count", per("os.violations")},
        {"os.cache_hit_rate", "ratio",
         ratio(per("os.cached"), per("os.cached") + per("os.cache_misses"))},
        {"installer.analyze_s", "s", span_s(Name::InstallerAnalyze)},
        {"installer.rewrite_s", "s", span_s(Name::InstallerRewrite)},
        {"installer.sites", "count", per("installer.sites")},
        {"installer.rekey_s", "s", span_s(Name::InstallerRekey)},
        {"crypto.mac_surface_bytes", "B", per("crypto.mac_surface_bytes")},
        {"crypto.rekey_ns_per_byte", "ns/B",
         ratio(span_s(Name::InstallerRekey) * 1e9, 2 * per("crypto.mac_surface_bytes"))},
        {"fleet.run_s", "s", span_s(Name::FleetRun)},
        {"fleet.lifecycles", "count", per("fleet.lifecycles")},
        {"fleet.runs", "count", per("fleet.runs")},
        {"fleet.rotations", "count", per("fleet.rotations")},
        {"fleet.swaps", "count", per("fleet.swaps")},
        {"fleet.respawns", "count", per("fleet.respawns")},
        {"fleet.tampered", "count", per("fleet.tampered")},
        {"fleet.tamper_detected", "count", per("fleet.tamper_detected")},
        {"fleet.oracle_trips", "count", per("fleet.oracle_trips")},
        {"fleet.shard_bytes_per_tenant", "B", per("fleet.shard_bytes_per_tenant")},
        {"fleet.audit_records", "count", per("fleet.audit_records")},
        {"host_vsps", "1/s", quartile_rate(untraced, count_of("verified_syscalls"), work_s)},
        {"guest_mips", "1e6/s",
         quartile_rate(untraced, count_of("vm.instructions"),
                     [](const Pass& p) { return p.run_s * 1e6; })},
        {"installs_per_s", "1/s",
         quartile_rate(untraced, images, [](const Pass& p) { return p.install_s; })},
        {"rekeys_per_s", "1/s",
         quartile_rate(untraced, images, [](const Pass& p) { return p.rekey_s; })},
        {"modeled_overhead_pct", "%", count_of("modeled_overhead_pct")(first)},
        {"modeled_vsps", "1/s",
         ratio(count_of("verified_syscalls")(first), count_of("modeled_cycles")(first) / 1e9)},
        {"failed_share", "ratio", perfbench::failed_share(failed, attempted)},
        {"trace.passes", "count", n},
        {"trace.work_s", "s", work_t},
        {"trace.overhead_s", "s", work_t - mean(untraced, work_s)},
    };
    if (!opt.spans_out.empty()) {
      if (std::FILE* f = std::fopen(opt.spans_out.c_str(), "w")) {
        tracer->write(f);
        std::fclose(f);
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              consistent && failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
