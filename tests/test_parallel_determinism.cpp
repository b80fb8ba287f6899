// The parallel execution engine's determinism contract (the whole point of
// util/executor.h): the installer emits byte-identical images, identical
// warnings, and identical policies at any job count, and a parallel fault
// campaign reproduces the serial verdict sequence exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/asc.h"
#include "fault/campaign.h"
#include "util/executor.h"
#include "workloads.h"

namespace asc {
namespace {

const auto kPers = os::Personality::LinuxSim;

installer::InstallResult install_with_jobs(const binary::Image& img, int jobs) {
  util::Executor ex(jobs);
  installer::Installer inst(test_key(), kPers);
  installer::InstallOptions opt;
  opt.program_id = 7;  // fixed id: the counter must not enter the comparison
  opt.executor = &ex;
  return inst.install(img, opt);
}

TEST(ParallelDeterminism, InstallIsByteIdenticalAcrossJobCounts) {
  for (const std::string name : {"gzip", "bison", "vuln_echo", "tar"}) {
    binary::Image img;
    for (auto& [n, i] : apps::build_all(kPers)) {
      if (n == name) img = i;
    }
    ASSERT_FALSE(img.name.empty()) << name;

    const installer::InstallResult ref = install_with_jobs(img, 1);
    for (const int jobs : {2, 8}) {
      const installer::InstallResult got = install_with_jobs(img, jobs);
      EXPECT_EQ(ref.image.serialize(), got.image.serialize())
          << name << " image differs at jobs=" << jobs;
      EXPECT_EQ(ref.warnings, got.warnings) << name << " warnings differ at jobs=" << jobs;
      ASSERT_EQ(ref.policies.size(), got.policies.size()) << name;
      for (std::size_t i = 0; i < ref.policies.size(); ++i) {
        EXPECT_EQ(ref.policies[i].to_string(), got.policies[i].to_string())
            << name << " policy " << i << " differs at jobs=" << jobs;
      }
    }
  }
}

TEST(ParallelDeterminism, AnalyzeWarningsKeepSerialOrder) {
  // Warnings are produced per function during the parallel site scan; the
  // merge must keep the function-order interleaving of the serial pass.
  binary::Image img = apps::build_bison(kPers);
  util::Executor e1(1);
  util::Executor e8(8);
  installer::Installer inst(test_key(), kPers);
  installer::InstallOptions o1;
  o1.executor = &e1;
  installer::InstallOptions o8;
  o8.executor = &e8;
  const auto a = inst.analyze(img, o1);
  const auto b = inst.analyze(img, o8);
  EXPECT_EQ(a.warnings, b.warnings);
  ASSERT_EQ(a.policies.size(), b.policies.size());
  ASSERT_EQ(a.scan.sites.size(), b.scan.sites.size());
  for (std::size_t i = 0; i < a.scan.sites.size(); ++i) {
    EXPECT_EQ(a.scan.sites[i].func, b.scan.sites[i].func);
    EXPECT_EQ(a.scan.sites[i].instr, b.scan.sites[i].instr);
    EXPECT_EQ(a.scan.sites[i].block, b.scan.sites[i].block);
  }
}

fault::GuestProgram cat_guest() {
  fault::GuestProgram g;
  g.name = "cat";
  g.image = apps::build_tool_cat(kPers);
  g.argv = {"/lines.txt", "/in.c"};
  g.prepare_fs = testing::prepare_fs;
  return g;
}

TEST(ParallelDeterminism, CampaignReproducesSerialVerdictsAtAnyJobCount) {
  auto run_with_jobs = [&](int jobs) {
    util::Executor ex(jobs);
    fault::CampaignConfig cfg;
    cfg.seed = 42;
    cfg.runs_per_point = 3;
    cfg.points = {{fault::Strike::CallMacFlip}, {fault::Strike::DescriptorFlip},
                  {fault::Strike::PolicyStateCorrupt}, {fault::Strike::CrossReplay}};
    cfg.executor = &ex;
    return fault::Campaign(cfg).run(cat_guest());
  };

  const fault::CampaignResult serial = run_with_jobs(1);
  const fault::CampaignResult parallel = run_with_jobs(8);

  EXPECT_EQ(serial.benign, parallel.benign);
  EXPECT_EQ(serial.detected, parallel.detected);
  EXPECT_EQ(serial.wrong_verdict, parallel.wrong_verdict);
  EXPECT_EQ(serial.silent_bypass, parallel.silent_bypass);
  EXPECT_EQ(serial.host_crash, parallel.host_crash);
  EXPECT_EQ(serial.not_applied, parallel.not_applied);
  EXPECT_EQ(serial.matrix, parallel.matrix);
  EXPECT_EQ(serial.summary(), parallel.summary());

  // Not just the tallies: the verdict SEQUENCE matches run for run.
  ASSERT_EQ(serial.verdicts.size(), parallel.verdicts.size());
  for (std::size_t i = 0; i < serial.verdicts.size(); ++i) {
    const fault::RunVerdict& a = serial.verdicts[i];
    const fault::RunVerdict& b = parallel.verdicts[i];
    EXPECT_EQ(a.spec.point, b.spec.point) << "run " << i;
    EXPECT_EQ(a.spec.trigger_call, b.spec.trigger_call) << "run " << i;
    EXPECT_EQ(a.spec.seed, b.spec.seed) << "run " << i;
    EXPECT_EQ(a.outcome, b.outcome) << "run " << i;
    EXPECT_EQ(a.violation, b.violation) << "run " << i;
    EXPECT_EQ(a.mutation, b.mutation) << "run " << i;
    EXPECT_EQ(a.detail, b.detail) << "run " << i;
  }
}

}  // namespace
}  // namespace asc
