// Self-test of the benchmark's own arithmetic (trace.h). run.py runs it
// before every measurement and refuses to report when it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::fabs(want) + 1e-15) {
    std::fprintf(stderr, "selftest: %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

using perfbench::Span;
using perfbench::Tracer;

void test_self_time() {
  // Parent [0, 10]. Children [1, 3] and [2, 5] overlap, so they cover [1, 5]
  // once; [8, 12] reaches past the parent and covers only [8, 10]. The
  // grandchild [1.5, 2.5] is its own parent's business.
  using perfbench::Name;
  const std::vector<Span> spans = {
      {Name::VmRun, 0, 10, 0, -1, 1},        {Name::OsEnforce, 1, 3, 1, 0, 1},
      {Name::OsDispatch, 2, 5, 2, 0, 1},     {Name::OsAudit, 8, 12, 3, 0, 1},
      {Name::OsEnforce, 1.5, 2.5, 4, 1, 1},  {Name::VmRun, 0, 10, 5, -1, 2},
  };
  expect_near("self time with overlapping and overhanging children",
              perfbench::self_time(spans, 0), 10 - 4 - 2);
  expect_near("self time of a child with one grandchild", perfbench::self_time(spans, 1), 1);
  expect_near("self time of a leaf", perfbench::self_time(spans, 2), 3);
}

void test_tracer() {
  // One guest run: a clean trap at depth 1 whose dispatch holds a nested
  // (spawned child's) trap at depth 2, then a killed trap that never
  // dispatches, then the run ends.
  // Times are in units of u = 10 us, so trap latencies fit the histogram.
  const double u = 1e-5;
  Tracer tr;
  tr.new_run();
  tr.begin(perfbench::Name::VmRun, 0 * u);
  tr.on_stage(Tracer::kTrap, 1, 1 * u);
  tr.on_stage(Tracer::kEnforce, 1, 2 * u);
  tr.on_stage(Tracer::kTrap, 2, 3 * u);
  tr.on_stage(Tracer::kEnforce, 2, 4 * u);
  tr.on_stage(Tracer::kDispatch, 2, 5 * u);
  tr.on_stage(Tracer::kAudit, 2, 6 * u);
  tr.on_stage(Tracer::kDispatch, 1, 7 * u);
  tr.on_stage(Tracer::kAudit, 1, 8 * u);
  tr.on_stage(Tracer::kTrap, 1, 10 * u);
  tr.on_stage(Tracer::kEnforce, 1, 11 * u);  // killed: no Dispatch or Audit follows
  tr.end_run(20 * u);

  using perfbench::Name;
  const auto run = tr.totals(Name::VmRun);
  expect_near("vm.run count", static_cast<double>(run.count), 1);
  expect_near("vm.run total", run.total, 20 * u);
  // Direct children: enforce [1,2], dispatch [2,7], audit [7,8], enforce
  // [10,11]; the killed trap's open dispatch span is dropped.
  expect_near("vm.run child time", run.child, (1 + 5 + 1 + 1) * u);
  expect_near("enforce spans", static_cast<double>(tr.totals(Name::OsEnforce).count), 3);
  expect_near("dispatch spans", static_cast<double>(tr.totals(Name::OsDispatch).count), 2);
  expect_near("dispatch time includes the nested trap", tr.totals(Name::OsDispatch).total,
              (5 + 1) * u);
  expect_near("completed traps", static_cast<double>(tr.traps().count()), 2);
  // Latencies are 3u and 7u; the nearest-rank median of two is the lower.
  expect_near("trap latency p50", tr.traps().percentile(0.5), 3 * u * 1e9);
  expect_near("trap latency p99", tr.traps().percentile(0.99), 7 * u * 1e9);

  // The online self time agrees with self_time() over the stored spans.
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == Name::VmRun) {
      expect_near("online vs stored self time", run.total - run.child,
                  perfbench::self_time(spans, i));
    }
    if (spans[i].name == Name::OsDispatch && spans[i].start == 2 * u) {
      expect_near("nested trap's parent is the outer dispatch", perfbench::self_time(spans, i),
                  (5 - 3) * u);
    }
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect_near("p50 of 1..100", perfbench::percentile(v, 0.50), 50);
  expect_near("p99 of 1..100", perfbench::percentile(v, 0.99), 99);
  expect_near("p100 of 1..100", perfbench::percentile(v, 1.0), 100);
  // Seven samples: ceil(0.99 * 7) = 7, so p99 is the maximum.
  expect_near("p99 of 7 samples", perfbench::percentile({5, 1, 4, 2, 7, 3, 6}, 0.99), 7);
  expect_near("p50 of 1 sample", perfbench::percentile({42}, 0.5), 42);
  expect_near("no samples", perfbench::percentile({}, 0.5), 0);
  expect_near("median of an odd count", perfbench::median({9, 1, 5}), 5);
  expect_near("median of an even count", perfbench::median({4, 1, 3, 2}), 2.5);
  expect_near("median of no samples", perfbench::median({}), 0);

  // The histogram picks the same rank over whole-ns samples.
  perfbench::Histogram h;
  std::vector<double> samples;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double ns = static_cast<double>((x >> 33) % 20000);
    samples.push_back(ns);
    h.add(ns + 0.3);  // fractions round to the nearest ns
  }
  expect_near("histogram sample count", static_cast<double>(h.count()), 5000);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    expect_near("histogram vs sorted percentile", h.percentile(q),
                perfbench::percentile(samples, q));
  }
}

void test_overhead_and_failures() {
  expect_near("overhead mean weighs programs equally",
              perfbench::overhead_mean_pct({{110, 100}, {1002, 1000}}), (10 + 0.2) / 2);
  expect_near("overhead mean of nothing", perfbench::overhead_mean_pct({}), 0);
  expect_near("failed share", perfbench::failed_share(3, 300), 0.01);
  expect_near("failed share, none failed", perfbench::failed_share(0, 42), 0);
  expect_near("failed share, nothing attempted", perfbench::failed_share(0, 0), 1);
}

}  // namespace

int main() {
  test_self_time();
  test_tracer();
  test_percentiles();
  test_overhead_and_failures();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
