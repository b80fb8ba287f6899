// Span recording and the arithmetic the benchmark reports with.
//
// Everything here is independent of the simulator library so the self-test
// (selftest.cpp) can check it on hand-made inputs: span self time with
// nested children, medians and nearest-rank percentiles with their sample
// count, the Table 4/6 overhead mean, and the failed-operation share.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

namespace perfbench {

/// Span names: one per layer boundary the benchmark wraps.
enum class Name : std::uint8_t {
  VmRun,             // vm::Machine::run
  OsEnforce,         // TrapStage Trap -> Enforce
  OsDispatch,        // TrapStage Enforce -> Dispatch
  OsAudit,           // TrapStage Dispatch -> Audit
  InstallerAnalyze,  // installer::Installer::analyze
  InstallerRewrite,  // installer::Installer::rewrite
  InstallerRekey,    // installer::Rekeyer::rekey
  FleetRun,          // fleet::Driver::run
};
inline constexpr std::size_t kNames = 8;

inline const char* name_str(Name n) {
  static constexpr const char* kStr[kNames] = {
      "vm.run",           "os.enforce",        "os.dispatch",     "os.audit",
      "installer.analyze", "installer.rewrite", "installer.rekey", "fleet.run"};
  return kStr[static_cast<std::size_t>(n)];
}

/// One closed span. Times are seconds on the steady clock; `parent` is the
/// id of the span open when this one began (-1 for a root); `run` is shared
/// by every span of one guest run (or one install, or one fleet drive).
struct Span {
  Name name = Name::VmRun;
  double start = 0;
  double end = 0;
  int id = 0;
  int parent = -1;
  std::uint64_t run = 0;
};

/// Self time of spans[i]: its duration minus the part of that interval its
/// direct children cover. Overlapping children count once; any part of a
/// child outside the parent counts not at all.
inline double self_time(const std::vector<Span>& spans, std::size_t i) {
  const Span& p = spans.at(i);
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans) {
    if (s.parent != p.id) continue;
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0;
  double cur_a = 0;
  double cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : kids) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (p.end - p.start) - covered;
}

/// Nearest-rank percentile: the smallest sample such that at least
/// ceil(q * n) of the n samples are at or below it. 0 for no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median: the middle sample, or the mean of the two middle samples. 0 for
/// no samples.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// Whole-nanosecond latency histogram: nearest-rank percentiles of samples
/// rounded to the nanosecond, over millions of samples in constant memory.
/// Samples at or above kMaxNs land in the last bucket.
class Histogram {
 public:
  static constexpr std::size_t kMaxNs = 1'000'000;

  Histogram() : buckets_(kMaxNs + 1, 0) {}

  void add(double ns) {
    const double c = std::clamp(std::round(ns), 0.0, static_cast<double>(kMaxNs));
    ++buckets_[static_cast<std::size_t>(c)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }

  /// Same rule as percentile() over the bucketed samples.
  double percentile(double q) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < buckets_.size(); ++ns) {
      seen += buckets_[ns];
      if (seen >= rank) return static_cast<double>(ns);
    }
    return static_cast<double>(kMaxNs);
  }

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Mean over programs of (enforced - unmonitored) / unmonitored modeled
/// cycles, in percent: each program weighs the same, as Tables 4 and 6
/// average their rows. Pairs are {enforced, unmonitored}.
inline double overhead_mean_pct(const std::vector<std::pair<double, double>>& enforced_base) {
  if (enforced_base.empty()) return 0;
  double sum = 0;
  for (const auto& [enforced, base] : enforced_base) sum += (enforced - base) / base * 100.0;
  return sum / static_cast<double>(enforced_base.size());
}

/// Failed operations over attempted operations.
inline double failed_share(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Records nested spans on one thread. Trap-stage boundaries arrive through
/// on_stage() with the kernel's trap depth, so traps nested inside a spawn
/// become children of the outer trap's dispatch span. A trap that ends
/// without dispatching (killed, or an unknown call number) leaves its
/// dispatch span open; that span is dropped, unrecorded, at the next trap of
/// the same or lower depth or at the end of the run.
class Tracer {
 public:
  /// Trap stages, numbered as os::TrapStage.
  enum Stage { kTrap = 0, kEnforce = 1, kDispatch = 2, kAudit = 3 };

  /// Per-name sums over closed spans.
  struct Totals {
    std::uint64_t count = 0;
    double total = 0;  // seconds
    double child = 0;  // seconds covered by direct children
  };

  /// Raw spans kept for the span file; later spans still count in totals().
  static constexpr std::size_t kMaxStoredSpans = 20000;

  /// Start a new run id; spans begun afterwards carry it.
  void new_run() { ++run_; }

  void begin(Name name, double t, int depth = 0) {
    stack_.push_back(Open{name, t, 0, next_id_++, stack_.empty() ? -1 : stack_.back().id, depth});
  }

  /// Close the innermost open span at time t.
  void end(double t) {
    if (stack_.empty()) return;
    const Open o = stack_.back();
    stack_.pop_back();
    const double dur = t - o.start;
    if (!stack_.empty()) stack_.back().child += dur;
    Totals& tot = totals_[static_cast<std::size_t>(o.name)];
    ++tot.count;
    tot.total += dur;
    tot.child += o.child;
    if (spans_.size() < kMaxStoredSpans) {
      spans_.push_back(Span{o.name, o.start, t, o.id, o.parent, run_});
    }
  }

  /// Close a run-level span, first dropping any trap spans still open.
  void end_run(double t) {
    drop_from_depth(1);
    end(t);
  }

  /// One TrapStage boundary at kernel trap depth `depth` (>= 1).
  void on_stage(int stage, int depth, double t) {
    switch (stage) {
      case kTrap:
        drop_from_depth(depth);
        begin(Name::OsEnforce, t, depth);
        if (trap_start_.size() <= static_cast<std::size_t>(depth)) {
          trap_start_.resize(static_cast<std::size_t>(depth) + 1, 0);
        }
        trap_start_[static_cast<std::size_t>(depth)] = t;
        break;
      case kEnforce:
        drop_from_depth(depth + 1);
        end(t);
        begin(Name::OsDispatch, t, depth);
        break;
      case kDispatch:
        drop_from_depth(depth + 1);
        end(t);
        begin(Name::OsAudit, t, depth);
        break;
      case kAudit:
        drop_from_depth(depth + 1);
        end(t);
        traps_.add((t - trap_start_.at(static_cast<std::size_t>(depth))) * 1e9);
        break;
      default:
        break;
    }
  }

  Totals totals(Name name) const { return totals_[static_cast<std::size_t>(name)]; }
  /// Whole-trap latency (Trap to Audit boundary) of every completed trap.
  const Histogram& traps() const { return traps_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per stored span, times in ns from the first span.
  void write(std::FILE* out) const {
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\": \"%s\", \"id\": %d, \"parent\": %d, \"run\": %llu, "
                   "\"start_ns\": %.0f, \"end_ns\": %.0f}\n",
                   name_str(s.name), s.id, s.parent, static_cast<unsigned long long>(s.run),
                   (s.start - t0) * 1e9, (s.end - t0) * 1e9);
    }
  }

 private:
  struct Open {
    Name name = Name::VmRun;
    double start = 0;
    double child = 0;
    int id = 0;
    int parent = -1;
    int depth = 0;
  };

  void drop_from_depth(int depth) {
    while (!stack_.empty() && stack_.back().depth >= depth) stack_.pop_back();
  }

  std::vector<Open> stack_;
  std::array<Totals, kNames> totals_{};
  std::vector<Span> spans_;
  std::vector<double> trap_start_;
  Histogram traps_;
  std::uint64_t run_ = 0;
  int next_id_ = 0;
};

}  // namespace perfbench
