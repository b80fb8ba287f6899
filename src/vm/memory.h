// Flat guest address space for one simulated process.
//
// The guest sees addresses in [kAddressSpaceBase, kAddressSpaceEnd); the host
// backs that window with one anonymous private mapping that the host kernel
// zeroes lazily: an untouched page reads as zero and gets a frame on its
// first write, so the resident size follows the pages the guest touches, not
// the size of the window. Memory owns the mapping and is move-only. All
// accesses are bounds checked and raise asc::GuestFault (which the VM
// converts into an abnormal guest termination, and the kernel-side checker
// converts into a policy violation when triggered by a syscall argument).
//
// Deliberately NO page permissions: like the paper's threat model, data and
// stack are writable AND executable, so code-injection attacks are possible
// and must be stopped by system call checking, not by W^X.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "binary/image.h"
#include "util/error.h"

namespace asc::vm {

class Memory {
 public:
  Memory();

  /// Copy the image's sections into the address space.
  void load_image(const binary::Image& image);

  std::uint8_t r8(std::uint32_t addr) const;
  void w8(std::uint32_t addr, std::uint8_t value);
  std::uint32_t r32(std::uint32_t addr) const;
  void w32(std::uint32_t addr, std::uint32_t value);

  /// Bulk accessors. Throw GuestFault when any byte is out of range.
  std::vector<std::uint8_t> read_bytes(std::uint32_t addr, std::uint32_t n) const;
  /// Allocation-free overload: copy `n` bytes into `out` (which must hold at
  /// least `n`). The checker's hot path reads MACs and AS headers through
  /// this instead of n byte-at-a-time r8() calls.
  void read_bytes(std::uint32_t addr, std::uint32_t n, std::uint8_t* out) const;
  void write_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes);

  /// NUL-terminated string, at most `max_len` bytes (fault if unterminated).
  std::string read_cstr(std::uint32_t addr, std::uint32_t max_len = 4096) const;

  /// Read-only view of the whole space (used by the VM instruction fetch).
  std::span<const std::uint8_t> flat() const { return {bytes_.get(), kSpaceBytes}; }
  static std::size_t index_of(std::uint32_t addr);
  bool in_range(std::uint32_t addr, std::uint32_t n = 1) const;

  // ---- write-watch (verified-call cache invalidation) ----
  // The kernel registers the byte ranges backing a cached verification
  // (call MAC, AS headers/bodies, pred-set blob); any write overlapping a
  // watched range invokes the callback BEFORE the bytes change, so the
  // cache can evict. A [min,max) envelope over all ranges keeps the common
  // store (stack/heap, far from .asdata) a two-compare rejection.
  // Ranges are refcounted: watch/unwatch of the same {addr, len} nest, and
  // the range stops firing once every registration is gone -- so evicted
  // cache entries can return their ranges and the watch set tracks live
  // entries instead of growing for the life of the process.
  using WriteWatchFn = std::function<void(std::uint32_t addr, std::uint32_t len)>;
  void set_write_watch(WriteWatchFn fn) { on_watched_write_ = std::move(fn); }
  bool has_write_watch() const { return static_cast<bool>(on_watched_write_); }
  /// Register a range (increments the refcount of an identical range).
  void watch(std::uint32_t addr, std::uint32_t len);
  /// Undo one watch() of the identical range; removes it at refcount zero.
  void unwatch(std::uint32_t addr, std::uint32_t len);
  void clear_watches();
  std::size_t watch_count() const { return watches_.size(); }

  /// Watch-range accounting: the bookkeeping-balance surface the chaos
  /// engine's invariant oracles audit. After process teardown every
  /// registration must have been returned (live_ranges == live_refs == 0,
  /// registered == released) -- a leak here means a cache/shadow eviction
  /// path forgot to unwatch.
  struct WatchStats {
    std::size_t live_ranges = 0;     // distinct ranges currently watched
    std::uint64_t live_refs = 0;     // sum of refcounts over live ranges
    std::uint64_t peak_ranges = 0;   // high-water mark of live_ranges
    std::uint64_t registered = 0;    // watch() calls that took a reference
    std::uint64_t released = 0;      // unwatch() calls that matched one
  };
  WatchStats watch_stats() const;

  // ---- exec-watch (predecoded-code invalidation) ----
  // Separate channel from the refcounted data watches above: the threaded
  // engine (vm/engine.cpp) must hear about writes into predecoded code spans
  // without perturbing the WatchStats ledger the chaos oracles audit. The
  // engine maintains its own page index; Memory keeps only a grow-only
  // [min,max) envelope so the common data store is a two-compare rejection.
  // The callback fires BEFORE the bytes change, like the data watch.
  using ExecWatchFn = std::function<void(std::uint32_t addr, std::uint32_t len)>;
  void set_exec_watch(ExecWatchFn fn) { on_exec_write_ = std::move(fn); }
  /// Grow the exec envelope to cover [lo, hi). Never shrinks; a stale
  /// envelope only costs spurious callbacks, which the engine filters.
  void expand_exec_envelope(std::uint32_t lo, std::uint32_t hi) {
    if (lo < exec_min_) exec_min_ = lo;
    if (hi > exec_max_) exec_max_ = hi;
  }

 private:
  static constexpr std::size_t kSpaceBytes = binary::kAddressSpaceEnd - binary::kAddressSpaceBase;
  struct Unmap {
    void operator()(std::uint8_t* p) const noexcept;
  };
  struct WatchRange {
    std::uint32_t addr;
    std::uint32_t len;
    std::uint32_t refs;
  };
  void check(std::uint32_t addr, std::uint32_t n) const;
  void notify_write(std::uint32_t addr, std::uint32_t n);
  void recompute_watch_envelope();
  std::unique_ptr<std::uint8_t[], Unmap> bytes_;
  WriteWatchFn on_watched_write_;
  ExecWatchFn on_exec_write_;
  std::uint32_t exec_min_ = 0xffffffffu;
  std::uint32_t exec_max_ = 0;  // exclusive; 0 = no exec watch
  std::vector<WatchRange> watches_;
  std::uint64_t watch_peak_ = 0;
  std::uint64_t watch_registered_ = 0;
  std::uint64_t watch_released_ = 0;
  std::uint32_t watch_min_ = 0xffffffffu;
  std::uint32_t watch_max_ = 0;  // exclusive; 0 = no watches
};

}  // namespace asc::vm
