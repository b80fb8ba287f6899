#include "util/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

namespace asc::util {

namespace {

thread_local bool tls_in_parallel_region = false;

}  // namespace

struct Executor::Impl {
  explicit Impl(int jobs) {
    threads.reserve(static_cast<std::size_t>(jobs - 1));
    for (int i = 1; i < jobs; ++i) threads.emplace_back([this] { thread_main(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& t : threads) t.join();
  }

  void thread_main() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      // A worker that wakes after its batch closed sits it out: only a
      // worker counted in `active` may touch the cursor.
      if (!open) continue;
      ++active;
      lk.unlock();
      work();
      lk.lock();
      if (--active == 0) cv_done.notify_all();
    }
  }

  /// Claim chunks off the cursor until it passes n. Runs on pool threads
  /// and on the caller inside run_batch.
  void work() {
    tls_in_parallel_region = true;
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end && !cancelled.load(std::memory_order_relaxed); ++i) {
        try {
          (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!first_error) first_error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
    }
    tls_in_parallel_region = false;
  }

  void run_batch(const std::function<void(std::size_t)>& fn, std::size_t count) {
    // One batch at a time; concurrent callers queue here.
    std::lock_guard<std::mutex> outer(batch_mu);
    {
      std::lock_guard<std::mutex> lk(mu);
      body = &fn;
      n = count;
      chunk = std::max<std::size_t>(1, count / ((threads.size() + 1) * 8));
      cursor.store(0, std::memory_order_relaxed);
      cancelled.store(false, std::memory_order_relaxed);
      open = true;
      ++generation;
    }
    cv_work.notify_all();
    work();  // the caller claims chunks too
    // The cursor is past n, so every chunk is claimed; once the workers that
    // joined have finished theirs, none is left in work() and none can
    // enter until the next batch opens.
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lk(mu);
      open = false;
      cv_done.wait(lk, [&] { return active == 0; });
      err = std::exchange(first_error, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }

  std::mutex batch_mu;  // serializes run_batch callers

  // Guarded by `mu`. work() reads body, n and chunk without it: a pool
  // thread enters work() only after seeing the batch open under `mu`, and
  // run_batch returns only after every such thread has left.
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t generation = 0;
  bool stop = false;
  bool open = false;  // a batch is running; workers may join it
  int active = 0;     // pool threads inside work()
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::exception_ptr first_error;

  std::atomic<std::size_t> cursor{0};  // next unclaimed index
  std::atomic<bool> cancelled{false};  // a body threw; skip the rest

  std::vector<std::thread> threads;  // last: they use every member above
};

Executor::Executor(int jobs) : jobs_(jobs <= 0 ? default_jobs() : jobs) {
  if (jobs_ > 1) impl_ = std::make_unique<Impl>(jobs_);
}

Executor::~Executor() = default;

void Executor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (impl_ == nullptr || n == 1 || tls_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  impl_->run_batch(body, n);
}

int Executor::default_jobs() {
  if (const char* env = std::getenv("ASC_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<int>(std::min<long>(v, 256));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<Executor>& global_slot() {
  static std::unique_ptr<Executor> slot;
  return slot;
}

}  // namespace

Executor& Executor::global() {
  std::lock_guard<std::mutex> lk(global_mutex());
  auto& slot = global_slot();
  if (slot == nullptr) slot = std::make_unique<Executor>(0);
  return *slot;
}

void Executor::set_global_jobs(int jobs) {
  // Startup-time configuration: must not race with parallel work in flight.
  std::lock_guard<std::mutex> lk(global_mutex());
  global_slot() = std::make_unique<Executor>(jobs);
}

bool Executor::in_parallel_region() { return tls_in_parallel_region; }

}  // namespace asc::util
