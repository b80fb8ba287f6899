// The chaos soak (`slow` label): >= 200 tenant lifecycles under seeded churn
// with stage-targeted fault injection across every default point, replayed
// at executor widths 1/2/8. Acceptance: zero invariant-oracle trips, every
// injected guest tamper fail-stops, and the verdict trace is byte-identical
// at every width. On failure, the failing reproducer lines are written to
// chaos_repro.txt in the test's working directory (uploaded as a CI
// artifact).
#include <gtest/gtest.h>

#include <fstream>

#include "fault/chaos.h"
#include "util/executor.h"

namespace asc {
namespace {

void dump_repro(const fault::ChaosResult& r, const std::string& tag) {
  std::ofstream out("chaos_repro.txt", std::ios::app);
  out << "== " << tag << " ==\n";
  for (const auto& t : r.trips) out << t << "\n";
}

TEST(ChaosSoak, TwoHundredLifecyclesIdenticalAtEveryWidth) {
  fault::ChaosConfig cfg;
  cfg.seed = 20260808;
  cfg.tenants = 200;

  std::vector<fault::ChaosResult> results;
  for (const int jobs : {1, 2, 8}) {
    util::Executor exec(jobs);
    fault::ChaosConfig c = cfg;
    c.executor = &exec;
    results.push_back(fault::ChaosEngine(c).run());
    const fault::ChaosResult& r = results.back();
    if (!r.ok()) dump_repro(r, "jobs=" + std::to_string(jobs));
    EXPECT_TRUE(r.ok()) << "jobs=" << jobs << "\n" << r.summary();
    ASSERT_EQ(r.lifecycles.size(), 200u);
  }

  // Byte-identical verdict traces: jobs=1 is the reference semantics.
  EXPECT_EQ(results[0].verdict_trace, results[1].verdict_trace)
      << "jobs=2 diverged from the serial reference";
  EXPECT_EQ(results[0].verdict_trace, results[2].verdict_trace)
      << "jobs=8 diverged from the serial reference";

  const fault::ChaosResult& r = results[0];
  // The storm must actually have exercised everything it claims to:
  EXPECT_GT(r.clean_plans, 0);
  EXPECT_GT(r.tamper_plans, 0);
  EXPECT_GT(r.internal_plans, 0);
  EXPECT_GT(r.detected, 0) << "no tamper was ever detected";
  // Every detected tamper fail-stopped (a non-killing detection trips the
  // lifecycle oracle, so zero trips already implies this; assert the
  // aggregate too).
  EXPECT_EQ(r.trips.size(), 0u);
  // The health machine went through its full arc somewhere in the storm.
  EXPECT_GT(r.health.internal_faults, 0u);
  EXPECT_GT(r.health.degradations, 0u);
  EXPECT_GT(r.health.quarantines, 0u);
  EXPECT_GT(r.health.repromotions, 0u);
  EXPECT_GT(r.health.recoveries, 0u);
}

TEST(ChaosSoak, StageRestrictedStormHoldsAtEveryBoundary) {
  // One smaller storm per non-Trap stage: faults landing BETWEEN pipeline
  // layers (enforce/dispatch/audit) must uphold the same oracles.
  for (const auto stage :
       {os::TrapStage::Enforce, os::TrapStage::Dispatch, os::TrapStage::Audit}) {
    fault::ChaosConfig cfg;
    cfg.seed = 7;
    cfg.tenants = 24;
    cfg.stages = {stage};
    const fault::ChaosResult r = fault::ChaosEngine(cfg).run();
    if (!r.ok()) dump_repro(r, "stage=" + os::trap_stage_name(stage));
    EXPECT_TRUE(r.ok()) << "stage=" << os::trap_stage_name(stage) << "\n" << r.summary();
  }
}

}  // namespace
}  // namespace asc
