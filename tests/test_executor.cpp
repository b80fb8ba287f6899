// Unit tests for the chunk-cursor executor (util/executor.h): full index
// coverage, result ordering, the exact-serial jobs=1 path, exception
// propagation, inline nesting, and the ASC_JOBS / set_global_jobs controls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/executor.h"

namespace asc::util {
namespace {

TEST(Executor, RunsEveryIndexExactlyOnce) {
  Executor ex(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  ex.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Executor, ZeroAndSingleElementBatches) {
  Executor ex(4);
  int calls = 0;
  ex.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n==1 runs inline on the caller, even with a pool.
  std::thread::id ran_on;
  ex.parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Executor, ParallelMapPreservesIndexOrder) {
  Executor ex(8);
  const std::vector<int> out =
      ex.parallel_map<int>(1000, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(Executor, JobsOneIsTheExactSerialPath) {
  Executor ex(1);
  EXPECT_EQ(ex.jobs(), 1);
  // Runs on the calling thread, in ascending index order.
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  ex.parallel_for(64, [&](std::size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, WorkersActuallyParticipate) {
  // With a pool and enough chunky tasks, at least one index should run off
  // the calling thread. Blocking the caller inside the first task it picks
  // up forces the pool to take some of the rest.
  Executor ex(4);
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "single-core host";
  std::mutex mu;
  std::set<std::thread::id> threads;
  ex.parallel_for(256, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 1u);  // >=2 on a real multicore box
}

TEST(Executor, PropagatesTheFirstException) {
  Executor ex(4);
  EXPECT_THROW(ex.parallel_for(500,
                               [](std::size_t i) {
                                 if (i % 7 == 3) throw Error("injected failure");
                               }),
               Error);
  // The pool survives a throwing batch and runs the next one.
  std::atomic<int> n{0};
  ex.parallel_for(100, [&](std::size_t) { n.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(n.load(), 100);
}

TEST(Executor, NestedParallelForRunsInlineWithoutDeadlock) {
  Executor ex(4);
  std::atomic<int> total{0};
  ex.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(Executor::in_parallel_region());
    // A nested region must not wait on the (occupied) pool; it runs inline.
    ex.parallel_for(8, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_FALSE(Executor::in_parallel_region());
}

TEST(Executor, DefaultJobsHonorsAscJobsEnv) {
  ::setenv("ASC_JOBS", "3", 1);
  EXPECT_EQ(Executor::default_jobs(), 3);
  ::setenv("ASC_JOBS", "not-a-number", 1);
  EXPECT_GE(Executor::default_jobs(), 1);  // falls back to hardware concurrency
  ::unsetenv("ASC_JOBS");
  EXPECT_GE(Executor::default_jobs(), 1);
}

TEST(Executor, SetGlobalJobsResizesTheSharedPool) {
  Executor::set_global_jobs(2);
  EXPECT_EQ(Executor::global().jobs(), 2);
  std::atomic<int> n{0};
  Executor::global().parallel_for(64, [&](std::size_t) {
    n.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(), 64);
  Executor::set_global_jobs(0);  // back to the default for other tests
  EXPECT_GE(Executor::global().jobs(), 1);
}

TEST(Executor, ManyRoundsReuseTheSamePool) {
  // Batch sizes alternate between large and tiny, so the chunk size and the
  // bound change every round. A worker left over from one batch that claimed
  // an index of the next with the old body or bound would miss or repeat an
  // index here.
  Executor ex(4);
  const std::size_t sizes[] = {1000, 3, 500, 2, 9999};
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = sizes[round % 5];
    std::vector<std::atomic<int>> hits(n);
    ex.parallel_for(n, [&](std::size_t i) { hits.at(i).fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

}  // namespace
}  // namespace asc::util
