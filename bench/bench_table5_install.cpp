// Table 5 companion: installer & fault-campaign parallelism under the
// thread-pool executor (util/executor.h), at jobs = 1, 2, 8.
//
// Three workloads:
//   install_fleet   -- analyze+rewrite every bundled app (explicit program
//                      ids, one shared pool), the paper's Fig. 2 installer
//                      run over a whole machine image;
//   rekey_fleet     -- re-sign every installed app under a new key via the
//                      differential installer::Rekeyer: O(MAC surface)
//                      instead of O(re-analysis), output byte-identical to
//                      a fresh install under the new key. Its extra
//                      modeled_rekey_speedup column (reinstall cycles /
//                      rekey cycles, priced per-byte from the runtime cost
//                      model -- see the rekey_fleet block) is gated >= 10x;
//   fault_campaign  -- the seeded mutation sweep of fault::Campaign (each
//                      mutated replay is an independent System).
//
// modeled_speedup_* is deterministic: sum(task weights) / LPT makespan over
// the per-task weights (install: input .text bytes; campaign: modeled cycles
// per mutated run). It captures the parallelism the task DAG exposes,
// independent of the host, and is GATED, along with `deterministic`: the
// jobs=2/8 outputs must be byte-identical to jobs=1. Host time is
// perfbench's to measure (perfbench/README.md).
//
// Machine-readable copy in BENCH_table5.json
// (scripts/check_bench_regression.py knows the schema).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/asc.h"
#include "fault/campaign.h"
#include "installer/rekeyer.h"
#include "os/costmodel.h"
#include "util/executor.h"

namespace {

using namespace asc;

const auto kPers = os::Personality::LinuxSim;
const int kJobs[] = {1, 2, 8};

/// sum(weights) / LPT-makespan(weights, jobs): the speedup an ideal
/// dynamic schedule of these tasks reaches on `jobs` workers.
double modeled_speedup(std::vector<double> weights, int jobs) {
  if (weights.empty() || jobs <= 1) return 1.0;
  std::sort(weights.begin(), weights.end(), std::greater<>());
  std::vector<double> bins(static_cast<std::size_t>(jobs), 0.0);
  for (const double w : weights) {
    *std::min_element(bins.begin(), bins.end()) += w;
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double makespan = *std::max_element(bins.begin(), bins.end());
  return makespan > 0 ? total / makespan : 1.0;
}

void prepare_fs(os::SimFs& fs) {
  const std::string body = "pear\napple\nmango\ncherry\nbanana\n";
  auto ino = fs.open("/", "/lines.txt",
                     os::SimFs::kWrOnly | os::SimFs::kCreat | os::SimFs::kTrunc, 0644);
  fs.write(static_cast<std::uint32_t>(ino), 0,
           std::vector<std::uint8_t>(body.begin(), body.end()), false);
}

using Images = std::vector<std::vector<std::uint8_t>>;  // serialized, app order

/// Install every bundled app on a `jobs`-wide pool. Program ids are
/// explicit (index-derived) so the output cannot depend on install order.
Images install_fleet(int jobs) {
  const auto apps = apps::build_all(kPers);
  util::Executor ex(jobs);
  installer::Installer inst(test_key(), kPers);
  Images images;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    installer::InstallOptions opt;
    opt.program_id = static_cast<std::uint16_t>(i + 1);
    opt.executor = &ex;
    images.push_back(inst.install(apps[i].second, opt).image.serialize());
  }
  return images;
}

/// Install every app once, keeping images AND manifests (the rekey inputs).
std::vector<installer::InstallResult> install_all_keep_manifests() {
  const auto apps = apps::build_all(kPers);
  installer::Installer inst(test_key(), kPers);
  std::vector<installer::InstallResult> out;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    installer::InstallOptions opt;
    opt.program_id = static_cast<std::uint16_t>(i + 1);
    out.push_back(inst.install(apps[i].second, opt));
  }
  return out;
}

struct RekeyRun {
  Images images;
  std::size_t surface_bytes = 0;  // MAC surface actually re-signed
};

/// Re-sign every installed app under a new key on a `jobs`-wide pool.
RekeyRun rekey_fleet(const std::vector<installer::InstallResult>& installed, int jobs) {
  util::Executor ex(jobs);
  const crypto::Key128 nk = derived_key(5);
  RekeyRun rr;
  for (const auto& inst : installed) {
    installer::RekeyResult r =
        installer::Rekeyer::rekey(inst.image, inst.manifest, test_key(), nk, &ex);
    rr.surface_bytes += inst.manifest.mac_surface_bytes();
    rr.images.push_back(r.image.serialize());
  }
  return rr;
}

fault::CampaignResult run_campaign(int jobs) {
  util::Executor ex(jobs);
  fault::CampaignConfig cfg;
  cfg.seed = 1;
  cfg.runs_per_point = 4;
  cfg.executor = &ex;
  fault::GuestProgram cat;
  cat.name = "cat";
  cat.image = apps::build_tool_cat(kPers);
  cat.argv = {"/lines.txt"};
  cat.prepare_fs = prepare_fs;
  return fault::Campaign(cfg).run(cat);
}

struct Row {
  std::string name;
  std::size_t tasks = 0;
  bool deterministic = true;
  double modeled[3] = {1, 1, 1};  // indexed like kJobs
  /// Differential-rekey advantage over a full reinstall: modeled reinstall
  /// cycles / modeled rekey cycles (see the rekey_fleet block for pricing).
  /// 0 = not a rekey row (column omitted from the JSON).
  double rekey_speedup = 0;
};

void run_table() {
  std::printf("\n=== Table 5 companion: parallel install & campaign throughput ===\n");
  std::vector<Row> rows;

  {
    Row r;
    r.name = "install_fleet";
    const Images ref = install_fleet(kJobs[0]);
    for (int j = 1; j < 3; ++j) r.deterministic &= install_fleet(kJobs[j]) == ref;
    r.tasks = ref.size();
    // Weights: the input .text bytes of each app -- the analysis pipeline's
    // cost scales with code size, and the weight must not depend on jobs.
    std::vector<double> weights;
    for (const auto& [name, img] : apps::build_all(kPers)) {
      const auto* text = img.find_section(binary::SectionKind::Text);
      weights.push_back(text != nullptr ? static_cast<double>(text->size()) : 1.0);
      (void)name;
    }
    for (int j = 0; j < 3; ++j) r.modeled[j] = modeled_speedup(weights, kJobs[j]);
    rows.push_back(std::move(r));
  }

  {
    Row r;
    r.name = "rekey_fleet";
    const std::vector<installer::InstallResult> installed = install_all_keep_manifests();
    const RekeyRun ref = rekey_fleet(installed, kJobs[0]);
    for (int j = 1; j < 3; ++j) {
      r.deterministic &= rekey_fleet(installed, kJobs[j]).images == ref.images;
    }
    // The differential oracle, checked in the bench too: the rekeyed fleet
    // must be byte-identical to a fresh install of every app under the new
    // key (same explicit program ids).
    {
      installer::Installer fresh(derived_key(5), kPers);
      const auto apps = apps::build_all(kPers);
      for (std::size_t i = 0; i < apps.size(); ++i) {
        installer::InstallOptions opt;
        opt.program_id = static_cast<std::uint16_t>(i + 1);
        if (fresh.install(apps[i].second, opt).image.serialize() != ref.images[i]) {
          r.deterministic = false;
        }
      }
    }
    r.tasks = ref.images.size();
    // Weights: each app's MAC-surface bytes -- what the Rekeyer touches.
    std::vector<double> weights;
    double input_bytes = 0;
    for (const auto& inst : installed) {
      weights.push_back(static_cast<double>(inst.manifest.mac_surface_bytes()));
      const auto* text = inst.image.find_section(binary::SectionKind::Text);
      input_bytes += text != nullptr ? static_cast<double>(text->size()) : 1.0;
    }
    for (int j = 0; j < 3; ++j) r.modeled[j] = modeled_speedup(weights, kJobs[j]);
    // Modeled differential advantage, priced in cycles on both sides so the
    // column is deterministic and host-independent:
    //   reinstall = kAnalysisCyclesPerByte * text  +  cmac * surface (sign)
    //   rekey     = 2 * cmac * surface   (verify old key + sign new key)
    // The CMAC rate is the runtime cost model's own price for the same
    // primitive (CostModel::mac_per_block over a 16-byte block -- the
    // paper's software CMAC). kAnalysisCyclesPerByte prices the installer's
    // decode + CFG + supergraph + policy-derivation + layout passes per
    // .text byte: back-solving measured wall times (install_fleet j1 ran
    // ~50x rekey_fleet j1 on an AES-NI dev host, where real CMAC
    // is ~2.6x faster than the modeled software rate) gives ~1300
    // cycles/byte; rounded DOWN to 1024 so the modeled ratio understates
    // the measured one.
    constexpr double kCmacCyclesPerByte =
        static_cast<double>(os::CostModel{}.mac_per_block) / 16.0;
    constexpr double kAnalysisCyclesPerByte = 1024.0;
    const double surface_bytes = static_cast<double>(ref.surface_bytes);
    const double rekey_cycles = 2.0 * kCmacCyclesPerByte * surface_bytes;
    const double reinstall_cycles =
        kAnalysisCyclesPerByte * input_bytes + kCmacCyclesPerByte * surface_bytes;
    r.rekey_speedup = rekey_cycles > 0 ? reinstall_cycles / rekey_cycles : 0;
    rows.push_back(std::move(r));
  }

  {
    Row r;
    r.name = "fault_campaign";
    const fault::CampaignResult ref = run_campaign(kJobs[0]);
    for (int j = 1; j < 3; ++j) {
      const fault::CampaignResult cr = run_campaign(kJobs[j]);
      r.deterministic &=
          cr.summary() == ref.summary() && cr.verdicts.size() == ref.verdicts.size();
    }
    r.tasks = ref.verdicts.size();
    // Weights: modeled cycles of each mutated replay (deterministic).
    std::vector<double> weights;
    for (const auto& v : ref.verdicts) {
      weights.push_back(static_cast<double>(v.cycles > 0 ? v.cycles : 1));
    }
    for (int j = 0; j < 3; ++j) r.modeled[j] = modeled_speedup(weights, kJobs[j]);
    rows.push_back(std::move(r));
  }

  std::printf("%-16s %6s %6s %9s %9s %9s\n", "Workload", "tasks", "det", "model_j2",
              "model_j8", "rekey_x");
  FILE* json = std::fopen("BENCH_table5.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"table\": \"table5\",\n"
                       "  \"unit\": \"modeled_speedup\",\n  \"rows\": [\n");
  }
  bool first = true;
  for (const Row& r : rows) {
    std::printf("%-16s %6zu %6s %8.2fx %8.2fx", r.name.c_str(), r.tasks,
                r.deterministic ? "yes" : "NO", r.modeled[1], r.modeled[2]);
    if (r.rekey_speedup > 0) {
      std::printf(" %8.1fx\n", r.rekey_speedup);
    } else {
      std::printf(" %9s\n", "-");
    }
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"name\": \"%s\", \"tasks\": %zu, \"deterministic\": %s, "
                   "\"modeled_speedup_j2\": %.3f, \"modeled_speedup_j8\": %.3f",
                   first ? "" : ",\n", r.name.c_str(), r.tasks,
                   r.deterministic ? "true" : "false", r.modeled[1], r.modeled[2]);
      if (r.rekey_speedup > 0) {
        std::fprintf(json, ", \"modeled_rekey_speedup\": %.3f", r.rekey_speedup);
      }
      std::fprintf(json, "}");
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }
  std::printf("(the determinism and modeled-speedup columns are gated -- BENCH_table5.json)\n");
}

}  // namespace

int main() {
  run_table();
  return 0;
}
