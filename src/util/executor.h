// Thread-pool executor for the host-side pipelines.
//
// The installer's per-function analysis, the rewriter's per-site CMAC
// signing, and the lifecycle runner's per-tenant runs are embarrassingly
// parallel; this executor lets them use every core without giving up the
// determinism contract:
//
//   * parallel_for(n, body) invokes body(i) exactly once for each
//     i in [0, n); callers write results into slot i, so the assembled
//     output is identical at any job count,
//   * jobs == 1 is the EXACT serial path: no worker threads, no locks,
//     body runs inline on the caller in index order -- the reference
//     semantics every parallel run must reproduce byte for byte,
//   * a parallel_for issued from inside a worker task runs inline
//     (no nested fan-out, no pool-in-pool deadlock).
//
// Scheduling: a fixed pool of jobs-1 threads plus the calling thread claim
// contiguous chunks of max(1, n/(jobs*8)) indices off one shared atomic
// cursor. Since nested regions run inline, no task ever adds work, so the
// cursor alone balances the load. Scheduling order is irrelevant to the
// output by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace asc::util {

class Executor {
 public:
  /// jobs <= 0 selects default_jobs() (ASC_JOBS env or hardware cores).
  explicit Executor(int jobs = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int jobs() const { return jobs_; }

  /// Run body(0) .. body(n-1), each exactly once, blocking until all are
  /// done. The first exception thrown by any body is rethrown here (later
  /// iterations are skipped on a best-effort basis).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// parallel_for that collects fn(i) into slot i of the result vector --
  /// result order is index order regardless of execution order.
  template <typename T>
  std::vector<T> parallel_map(std::size_t n, const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// ASC_JOBS environment variable if set to a positive integer, else the
  /// hardware concurrency (at least 1).
  static int default_jobs();

  /// Process-wide pool, lazily built with default_jobs() workers. The CLIs
  /// size it via set_global_jobs(--jobs) before any parallel work starts.
  static Executor& global();
  static void set_global_jobs(int jobs);

  /// True while the calling thread is executing a parallel_for body (of any
  /// executor); used to run nested parallelism inline.
  static bool in_parallel_region();

 private:
  struct Impl;
  int jobs_;
  std::unique_ptr<Impl> impl_;  // null when jobs_ == 1 (pure serial mode)
};

/// Resolve the optional executor argument the pipelines take: nullptr means
/// the process-global pool.
inline Executor& resolve_executor(Executor* exec) {
  return exec != nullptr ? *exec : Executor::global();
}

}  // namespace asc::util
