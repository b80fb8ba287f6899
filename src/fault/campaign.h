// Systematic fault-injection campaigns over guest programs.
//
// A Campaign installs a guest program once, takes its clean reference run
// (behavior and trap count), then replays it many times under seeded
// FaultInjector mutations -- each on a fresh lifecycle tenant
// (lifecycle.h) -- and classifies every mutated run against the enforcement
// invariant:
//
//   every mutated run either behaves identically to the clean run (the
//   mutation was never consumed by the checker) or yields a verdict whose
//   Violation class is expected for the strike -- with zero host
//   crashes, zero silent bypasses (accepted runs whose behavior diverges
//   from the clean run without any audited verdict), and zero trips of the
//   lifecycle oracle.
//
// Campaigns honor the kernel failure mode, so the same seeded mutation set
// can be replayed under fail-stop, budgeted, and audit-only enforcement and
// the verdicts compared (graceful-degradation equivalence).
//
// Detection evidence comes from the audit layer of the trap pipeline: a run
// counts as Detected only if Asc enforcement's verdict reached the AuditLog
// as a Violation record (os/auditlog.h). Failure modes are an AuditLog
// setting, which is why replaying the same mutations under a different mode
// changes only kill decisions, never the audited violation classes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fault/lifecycle.h"
#include "os/auditlog.h"
#include "util/executor.h"

namespace asc::fault {

struct CampaignConfig {
  std::uint64_t seed = 1;
  int runs_per_point = 8;
  std::vector<FaultPoint> points;  // empty = default_points()
  /// Stage pool (empty = all four TrapStage boundaries); each point draws
  /// from the members its strike allows, or strikes at Trap when none does.
  std::vector<os::TrapStage> stages;
  /// Replay exactly these specs instead of drawing from the seeded RNG
  /// (the reproducer path: paste a RunVerdict::repro through parse_spec).
  /// No NotApplied retry -- a reproduced run must match the original.
  std::vector<FaultSpec> explicit_specs;
  os::FailureMode mode = os::FailureMode::FailStop;
  std::uint32_t violation_budget = 0;
  /// Pool the mutated executions fan out over, each on its own System
  /// (nullptr = the process-global pool). The fault-spec list is drawn
  /// serially from the seeded RNG and verdicts are recorded in spec order,
  /// so tallies, matrix, and verdict order are identical at any job count.
  util::Executor* executor = nullptr;
};

/// Classification of one mutated execution.
struct RunVerdict {
  std::string program;
  FaultSpec spec;
  std::string mutation;  // injector description (empty when never applied)
  Outcome outcome = Outcome::NotApplied;
  os::Violation violation = os::Violation::None;  // first audited violation
  bool guest_killed = false;
  int violations_audited = 0;
  /// Modeled machine cycles the mutated run consumed (0 on host crash).
  /// Deterministic, so it doubles as the task weight when modeling parallel
  /// campaign schedules (bench/bench_table5_install.cpp).
  std::uint64_t cycles = 0;
  std::string detail;
  /// Single-line reproducer (spec_repr of the spec as executed, after any
  /// NotApplied retry). On an unexpected verdict, feed it back through
  /// CampaignConfig::explicit_specs or `asctool campaign --spec` to replay.
  std::string repro;
  /// Lifecycle-oracle trips of this run (empty = sound).
  std::vector<std::string> trips;
};

struct CampaignResult {
  std::vector<RunVerdict> verdicts;
  int benign = 0;
  int detected = 0;
  int wrong_verdict = 0;
  int silent_bypass = 0;
  int host_crash = 0;
  int not_applied = 0;
  /// Coverage matrix: point -> Violation observed -> count (Benign runs are
  /// counted under Violation::None).
  std::map<FaultPoint, std::map<os::Violation, int>> matrix;
  /// Flattened oracle trips from every run.
  std::vector<std::string> trips;

  /// Mutated executions whose fault actually landed.
  int total_applied() const { return benign + detected + wrong_verdict + silent_bypass; }
  /// The enforcement invariant: no crash, no bypass, no wrong verdict, no
  /// oracle trip.
  bool invariant_holds() const {
    return wrong_verdict == 0 && silent_bypass == 0 && host_crash == 0 && trips.empty();
  }
  void merge(const CampaignResult& other);
  /// Printable coverage matrix plus outcome counts.
  std::string summary() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : cfg_(std::move(config)) {}

  const CampaignConfig& config() const { return cfg_; }

  /// Run the full seeded campaign against one program.
  CampaignResult run(const GuestProgram& prog);

  /// Run against several programs and merge the results.
  CampaignResult run_all(const std::vector<GuestProgram>& progs);

 private:
  CampaignConfig cfg_;
};

}  // namespace asc::fault
