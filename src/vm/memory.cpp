#include "vm/memory.h"

#include <sys/mman.h>

#include <cstdio>
#include <new>

namespace asc::vm {

namespace {

std::uint8_t* map_space(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

Memory::Memory() : bytes_(map_space(kSpaceBytes)) {}

void Memory::Unmap::operator()(std::uint8_t* p) const noexcept { ::munmap(p, kSpaceBytes); }

std::size_t Memory::index_of(std::uint32_t addr) { return addr - binary::kAddressSpaceBase; }

bool Memory::in_range(std::uint32_t addr, std::uint32_t n) const {
  // addr may lie anywhere in the 32-bit space; guard the subtraction below
  // against underflow for addresses past the end.
  return addr >= binary::kAddressSpaceBase && addr <= binary::kAddressSpaceEnd &&
         n <= binary::kAddressSpaceEnd - addr;
}

void Memory::check(std::uint32_t addr, std::uint32_t n) const {
  if (!in_range(addr, n)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "guest memory access out of range at 0x%08x", addr);
    throw GuestFault(buf);
  }
}

void Memory::load_image(const binary::Image& image) {
  for (const auto& s : image.sections) {
    if (s.kind == binary::SectionKind::Bss) continue;  // untouched pages read as zero
    check(s.vaddr(), static_cast<std::uint32_t>(s.bytes.size()));
    std::copy(s.bytes.begin(), s.bytes.end(), bytes_.get() + index_of(s.vaddr()));
  }
}

std::uint8_t Memory::r8(std::uint32_t addr) const {
  check(addr, 1);
  return bytes_[index_of(addr)];
}

void Memory::w8(std::uint32_t addr, std::uint8_t value) {
  check(addr, 1);
  notify_write(addr, 1);
  bytes_[index_of(addr)] = value;
}

std::uint32_t Memory::r32(std::uint32_t addr) const {
  check(addr, 4);
  const std::size_t i = index_of(addr);
  return static_cast<std::uint32_t>(bytes_[i]) | static_cast<std::uint32_t>(bytes_[i + 1]) << 8 |
         static_cast<std::uint32_t>(bytes_[i + 2]) << 16 |
         static_cast<std::uint32_t>(bytes_[i + 3]) << 24;
}

void Memory::w32(std::uint32_t addr, std::uint32_t value) {
  check(addr, 4);
  notify_write(addr, 4);
  const std::size_t i = index_of(addr);
  bytes_[i] = static_cast<std::uint8_t>(value);
  bytes_[i + 1] = static_cast<std::uint8_t>(value >> 8);
  bytes_[i + 2] = static_cast<std::uint8_t>(value >> 16);
  bytes_[i + 3] = static_cast<std::uint8_t>(value >> 24);
}

std::vector<std::uint8_t> Memory::read_bytes(std::uint32_t addr, std::uint32_t n) const {
  check(addr, n);
  const std::size_t i = index_of(addr);
  return std::vector<std::uint8_t>(bytes_.get() + i, bytes_.get() + i + n);
}

void Memory::read_bytes(std::uint32_t addr, std::uint32_t n, std::uint8_t* out) const {
  check(addr, n);
  const std::size_t i = index_of(addr);
  std::copy(bytes_.get() + i, bytes_.get() + i + n, out);
}

void Memory::write_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
  check(addr, static_cast<std::uint32_t>(bytes.size()));
  notify_write(addr, static_cast<std::uint32_t>(bytes.size()));
  std::copy(bytes.begin(), bytes.end(), bytes_.get() + index_of(addr));
}

void Memory::watch(std::uint32_t addr, std::uint32_t len) {
  if (len == 0) return;
  ++watch_registered_;
  for (auto& w : watches_) {
    if (w.addr == addr && w.len == len) {
      ++w.refs;
      return;
    }
  }
  watches_.push_back({addr, len, 1});
  if (watches_.size() > watch_peak_) watch_peak_ = watches_.size();
  if (addr < watch_min_) watch_min_ = addr;
  if (addr + len > watch_max_) watch_max_ = addr + len;
}

void Memory::unwatch(std::uint32_t addr, std::uint32_t len) {
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->addr != addr || it->len != len) continue;
    ++watch_released_;
    if (--it->refs == 0) {
      watches_.erase(it);
      recompute_watch_envelope();
    }
    return;
  }
}

Memory::WatchStats Memory::watch_stats() const {
  WatchStats s;
  s.live_ranges = watches_.size();
  for (const auto& w : watches_) s.live_refs += w.refs;
  s.peak_ranges = watch_peak_;
  s.registered = watch_registered_;
  s.released = watch_released_;
  return s;
}

void Memory::clear_watches() {
  watches_.clear();
  watch_min_ = 0xffffffffu;
  watch_max_ = 0;
}

void Memory::recompute_watch_envelope() {
  watch_min_ = 0xffffffffu;
  watch_max_ = 0;
  for (const auto& w : watches_) {
    if (w.addr < watch_min_) watch_min_ = w.addr;
    if (w.addr + w.len > watch_max_) watch_max_ = w.addr + w.len;
  }
}

void Memory::notify_write(std::uint32_t addr, std::uint32_t n) {
  // Exec channel first: predecoded spans must be invalidated before any
  // data-watch eviction logic runs (and, like the data watch, before the
  // bytes themselves change).
  if (on_exec_write_ && addr < exec_max_ && addr + n > exec_min_) on_exec_write_(addr, n);
  if (watch_max_ == 0 || !on_watched_write_) return;
  if (addr >= watch_max_ || addr + n <= watch_min_) return;  // outside the envelope
  for (const auto& w : watches_) {
    if (addr < w.addr + w.len && w.addr < addr + n) {
      // The callback may evict cache entries, which unwatches ranges and
      // mutates watches_ -- return without touching the iterator again.
      on_watched_write_(addr, n);
      return;
    }
  }
}

std::string Memory::read_cstr(std::uint32_t addr, std::uint32_t max_len) const {
  std::string out;
  for (std::uint32_t i = 0; i < max_len; ++i) {
    const std::uint8_t b = r8(addr + i);
    if (b == 0) return out;
    out.push_back(static_cast<char>(b));
  }
  throw GuestFault("unterminated string in guest memory");
}

}  // namespace asc::vm
