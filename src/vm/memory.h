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
// The scalar accessors (r8/r32/w8/w32) are inline: the threaded engine
// (vm/engine.cpp) issues one per guest load or store, so a guest access
// compiles to a range compare and the host load or store, with one cold
// out-of-line [[noreturn]] thrower for the fault. Writes are watched on two
// channels (refcounted data watches for the tier lattice, an exec envelope
// for predecoded code); one notify envelope, the hull of both, is the only
// thing an inline store tests, so a store outside it makes no call at all.
//
// Deliberately NO page permissions: like the paper's threat model, data and
// stack are writable AND executable, so code-injection attacks are possible
// and must be stopped by system call checking, not by W^X.
#pragma once

#include <algorithm>
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

  std::uint8_t r8(std::uint32_t addr) const {
    check(addr, 1);
    return bytes_[index_of(addr)];
  }
  void w8(std::uint32_t addr, std::uint8_t value) {
    check(addr, 1);
    if (notifies(addr, 1)) notify_write(addr, 1);
    bytes_[index_of(addr)] = value;
  }
  /// Little-endian 32-bit access; the byte-wise form compiles to one host
  /// load or store.
  std::uint32_t r32(std::uint32_t addr) const {
    check(addr, 4);
    const std::uint8_t* s = bytes_.get() + index_of(addr);
    return static_cast<std::uint32_t>(s[0]) | static_cast<std::uint32_t>(s[1]) << 8 |
           static_cast<std::uint32_t>(s[2]) << 16 | static_cast<std::uint32_t>(s[3]) << 24;
  }
  void w32(std::uint32_t addr, std::uint32_t value) {
    check(addr, 4);
    if (notifies(addr, 4)) notify_write(addr, 4);
    std::uint8_t* d = bytes_.get() + index_of(addr);
    d[0] = static_cast<std::uint8_t>(value);
    d[1] = static_cast<std::uint8_t>(value >> 8);
    d[2] = static_cast<std::uint8_t>(value >> 16);
    d[3] = static_cast<std::uint8_t>(value >> 24);
  }
  /// True iff a write of [addr, addr + n) lies inside the notify envelope
  /// and so may invoke a watch callback (false does not mean in range).
  /// The engine writes its cached counters back before such a store: the
  /// data-watch callback can charge cycles.
  bool notifies(std::uint32_t addr, std::uint32_t n) const {
    return addr < notify_max_ && addr + n > notify_min_;
  }

  /// Bulk accessors. Throw GuestFault when any byte is out of range.
  std::vector<std::uint8_t> read_bytes(std::uint32_t addr, std::uint32_t n) const;
  /// Allocation-free overload: copy `n` bytes into `out` (which must hold at
  /// least `n`). The checker's hot path reads MACs and AS headers through
  /// this instead of n byte-at-a-time r8() calls.
  void read_bytes(std::uint32_t addr, std::uint32_t n, std::uint8_t* out) const;
  /// Read-only view of the guest bytes at [addr, addr + n), valid until the
  /// next write to them: the write() handler hands the guest buffer on
  /// through this without a copy. Throws GuestFault when any byte is out of
  /// range.
  std::span<const std::uint8_t> view(std::uint32_t addr, std::uint32_t n) const {
    check(addr, n);
    return {bytes_.get() + index_of(addr), n};
  }
  void write_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes);
  /// True iff the guest bytes at [addr, addr + bytes.size()) equal `bytes`:
  /// a bounds check plus one memcmp on the flat mapping, with no copy. The
  /// checker's hit path compares verified material in place through this.
  /// Throws GuestFault when any byte is out of range.
  bool equals(std::uint32_t addr, std::span<const std::uint8_t> bytes) const;

  /// NUL-terminated string, at most `max_len` bytes (fault if unterminated).
  std::string read_cstr(std::uint32_t addr, std::uint32_t max_len = 4096) const;

  /// Read-only view of the whole space (used by the VM instruction fetch).
  std::span<const std::uint8_t> flat() const { return {bytes_.get(), kSpaceBytes}; }
  static std::size_t index_of(std::uint32_t addr) { return addr - binary::kAddressSpaceBase; }
  bool in_range(std::uint32_t addr, std::uint32_t n = 1) const {
    // An addr below the base wraps far past the end, so one unsigned
    // compare checks both bounds.
    return n <= kSpaceBytes && addr - binary::kAddressSpaceBase <= kSpaceBytes - n;
  }

  // ---- write-watch (verified-call cache invalidation) ----
  // The kernel registers the byte ranges backing a cached verification
  // (call MAC, AS headers/bodies, pred-set blob); any write overlapping a
  // watched range invokes the callback BEFORE the bytes change, so the
  // cache can evict. A [min,max) envelope over all ranges, folded into the
  // notify envelope, keeps the common store (stack/heap, far from .asdata)
  // a two-compare rejection.
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
  // [min,max) envelope, folded into the notify envelope like the data
  // watches'. The callback fires BEFORE the bytes change, like the data
  // watch.
  using ExecWatchFn = std::function<void(std::uint32_t addr, std::uint32_t len)>;
  void set_exec_watch(ExecWatchFn fn) { on_exec_write_ = std::move(fn); }
  /// Grow the exec envelope to cover [lo, hi). Never shrinks; a stale
  /// envelope only costs spurious callbacks, which the engine filters.
  void expand_exec_envelope(std::uint32_t lo, std::uint32_t hi) {
    if (lo < exec_min_) exec_min_ = lo;
    if (hi > exec_max_) exec_max_ = hi;
    update_notify_envelope();
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
  void check(std::uint32_t addr, std::uint32_t n) const {
    if (!in_range(addr, n)) [[unlikely]] out_of_range(addr);
  }
  /// Throws the GuestFault of an out-of-range access at `addr`.
  [[noreturn, gnu::cold]] static void out_of_range(std::uint32_t addr);
  /// Fires the channels whose own envelope [addr, addr + n) overlaps.
  void notify_write(std::uint32_t addr, std::uint32_t n);
  void recompute_watch_envelope();
  /// The notify envelope is the hull of the exec and data envelopes; every
  /// change to either recomputes it. An empty envelope has min > max.
  void update_notify_envelope() {
    notify_min_ = std::min(exec_min_, watch_min_);
    notify_max_ = std::max(exec_max_, watch_max_);
  }
  std::unique_ptr<std::uint8_t[], Unmap> bytes_;
  std::uint32_t notify_min_ = 0xffffffffu;
  std::uint32_t notify_max_ = 0;  // exclusive; 0 = nothing watched
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
