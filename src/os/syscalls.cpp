#include "os/syscalls.h"

#include "util/error.h"

namespace asc::os {

namespace {

using A = ArgKind;
constexpr std::array<ArgKind, 5> kNoArgs{A::Int, A::Int, A::Int, A::Int, A::Int};

constexpr SyscallSig kSigs[] = {
    // id, name, arity, args, returns_fd, category
    {SysId::Exit, "exit", 1, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Read, "read", 3, {A::Fd, A::BufOut, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Write, "write", 3, {A::Fd, A::BufIn, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Open, "open", 3, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, true, Category::Other},
    {SysId::Close, "close", 1, {A::Fd, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Unlink, "unlink", 1, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Rename, "rename", 2, {A::PathIn, A::PathIn, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Mkdir, "mkdir", 2, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Rmdir, "rmdir", 1, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Chdir, "chdir", 1, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Getcwd, "getcwd", 2, {A::BufOut, A::Int, A::Int, A::Int, A::Int}, false,
     Category::Other},
    {SysId::Stat, "stat", 2, {A::PathIn, A::OutPtr, A::Int, A::Int, A::Int}, false,
     Category::FsRead},
    {SysId::Fstat, "fstat", 2, {A::Fd, A::OutPtr, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Fstatfs, "fstatfs", 2, {A::Fd, A::OutPtr, A::Int, A::Int, A::Int}, false,
     Category::FsRead},
    {SysId::Lseek, "lseek", 3, {A::Fd, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Dup, "dup", 1, {A::Fd, A::Int, A::Int, A::Int, A::Int}, true, Category::Other},
    {SysId::Brk, "brk", 1, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Mem},
    {SysId::Getpid, "getpid", 0, kNoArgs, false, Category::Proc},
    {SysId::Getuid, "getuid", 0, kNoArgs, false, Category::Proc},
    {SysId::Gettimeofday, "gettimeofday", 2, {A::OutPtr, A::OutPtr, A::Int, A::Int, A::Int}, false,
     Category::Time},
    {SysId::Time, "time", 1, {A::OutPtr, A::Int, A::Int, A::Int, A::Int}, false, Category::Time},
    {SysId::Nanosleep, "nanosleep", 2, {A::OutPtr, A::OutPtr, A::Int, A::Int, A::Int}, false,
     Category::Time},
    {SysId::Kill, "kill", 2, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Sigaction, "sigaction", 3, {A::Int, A::OutPtr, A::OutPtr, A::Int, A::Int}, false,
     Category::Proc},
    {SysId::Socket, "socket", 3, {A::Int, A::Int, A::Int, A::Int, A::Int}, true, Category::Net},
    {SysId::Connect, "connect", 3, {A::Fd, A::BufIn, A::Int, A::Int, A::Int}, false, Category::Net},
    {SysId::Sendto, "sendto", 5, {A::Fd, A::BufIn, A::Int, A::Int, A::BufIn}, false, Category::Net},
    {SysId::Recvfrom, "recvfrom", 5, {A::Fd, A::BufOut, A::Int, A::Int, A::OutPtr}, false,
     Category::Net},
    {SysId::Fcntl, "fcntl", 3, {A::Fd, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Readlink, "readlink", 3, {A::PathIn, A::BufOut, A::Int, A::Int, A::Int}, false,
     Category::FsRead},
    {SysId::Symlink, "symlink", 2, {A::PathIn, A::PathIn, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Chmod, "chmod", 2, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Access, "access", 2, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsRead},
    {SysId::Ftruncate, "ftruncate", 2, {A::Fd, A::Int, A::Int, A::Int, A::Int}, false,
     Category::FsWrite},
    {SysId::Getdirentries, "getdirentries", 3, {A::Fd, A::BufOut, A::Int, A::Int, A::Int}, false,
     Category::FsRead},
    {SysId::Uname, "uname", 1, {A::OutPtr, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Sysconf, "sysconf", 1, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Madvise, "madvise", 3, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Mem},
    {SysId::Mmap, "mmap", 5, {A::Int, A::Int, A::Int, A::Int, A::Fd}, false, Category::Mem},
    {SysId::Munmap, "munmap", 2, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Mem},
    {SysId::Writev, "writev", 3, {A::Fd, A::BufIn, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Umask, "umask", 1, {A::Int, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Ioctl, "ioctl", 3, {A::Fd, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::Spawn, "spawn", 2, {A::PathIn, A::Int, A::Int, A::Int, A::Int}, false, Category::Proc},
    {SysId::Pipe, "pipe", 1, {A::OutPtr, A::Int, A::Int, A::Int, A::Int}, false, Category::Other},
    {SysId::SyscallIndirect, "__syscall", 5, {A::Int, A::Int, A::Int, A::Int, A::Int}, false,
     Category::Other},
};

static_assert(sizeof(kSigs) / sizeof(kSigs[0]) == kNumSysIds,
              "signature table must cover every SysId");

constexpr bool sigs_in_id_order() {
  for (std::size_t i = 0; i < kNumSysIds; ++i) {
    if (static_cast<std::size_t>(kSigs[i].id) != i) return false;
  }
  return true;
}

static_assert(sigs_in_id_order(), "signature() indexes kSigs by SysId");

struct NumberEntry {
  SysId id;
  std::uint16_t linux_num;  // 0 = absent on LinuxSim
  std::uint16_t bsd_num;    // 0 = absent on BsdSim
};

// Numbers loosely follow the real Linux i386 and OpenBSD 3.x tables so the
// cross-OS mismatch is realistic. 0 marks "not available on this OS":
//   * `time` and plain `mmap` are LinuxSim-only (BsdSim reaches mmap through
//     __syscall, like OpenBSD),
//   * `fstatfs` and `__syscall` are BsdSim-only.
constexpr NumberEntry kNumbers[] = {
    {SysId::Exit, 1, 1},
    {SysId::Read, 3, 3},
    {SysId::Write, 4, 4},
    {SysId::Open, 5, 5},
    {SysId::Close, 6, 6},
    {SysId::Unlink, 10, 10},
    {SysId::Chdir, 12, 12},
    {SysId::Time, 13, 0},
    {SysId::Chmod, 15, 15},
    {SysId::Lseek, 19, 199},
    {SysId::Getpid, 20, 20},
    {SysId::Getuid, 24, 24},
    {SysId::Access, 33, 33},
    {SysId::Kill, 37, 122},
    {SysId::Rename, 38, 128},
    {SysId::Mkdir, 39, 136},
    {SysId::Rmdir, 40, 137},
    {SysId::Dup, 41, 41},
    {SysId::Pipe, 42, 263},
    {SysId::Brk, 45, 17},
    {SysId::Ioctl, 54, 54},
    {SysId::Fcntl, 55, 92},
    {SysId::Umask, 60, 60},
    {SysId::Sigaction, 67, 46},
    {SysId::Gettimeofday, 78, 116},
    {SysId::Symlink, 83, 57},
    {SysId::Readlink, 85, 58},
    {SysId::Mmap, 90, 0},
    {SysId::Munmap, 91, 73},
    {SysId::Ftruncate, 93, 201},
    {SysId::Fstatfs, 0, 64},
    {SysId::Stat, 106, 38},
    {SysId::Fstat, 108, 62},
    {SysId::Uname, 122, 164},
    {SysId::Getdirentries, 141, 196},
    {SysId::Writev, 146, 121},
    {SysId::Nanosleep, 162, 240},
    {SysId::Getcwd, 183, 304},
    {SysId::Madvise, 219, 75},
    {SysId::Socket, 281, 97},
    {SysId::Connect, 283, 98},
    {SysId::Sendto, 289, 133},
    {SysId::Recvfrom, 292, 29},
    {SysId::Sysconf, 310, 202},
    {SysId::Spawn, 11, 59},  // plays the role of execve
    {SysId::SyscallIndirect, 0, 198},
};

static_assert(sizeof(kNumbers) / sizeof(kNumbers[0]) == kNumSysIds,
              "number table must cover every SysId");

using NumberField = std::uint16_t NumberEntry::*;

constexpr bool numbers_unique(NumberField num) {
  for (std::size_t i = 0; i < kNumSysIds; ++i) {
    for (std::size_t j = i + 1; j < kNumSysIds; ++j) {
      if (kNumbers[i].*num != 0 && kNumbers[i].*num == kNumbers[j].*num) return false;
    }
  }
  return true;
}

static_assert(numbers_unique(&NumberEntry::linux_num) && numbers_unique(&NumberEntry::bsd_num),
              "a syscall number names one SysId per personality");

constexpr std::size_t max_number(NumberField num) {
  std::size_t m = 0;
  for (const auto& e : kNumbers) m = e.*num > m ? e.*num : m;
  return m;
}

/// The inverse of one personality's number column: number -> SysId, with
/// SysId::kCount at every number the personality does not use (0 included).
template <NumberField Num>
constexpr auto invert_numbers() {
  std::array<SysId, max_number(Num) + 1> ids{};
  ids.fill(SysId::kCount);
  for (const auto& e : kNumbers) {
    if (e.*Num != 0) ids[e.*Num] = e.id;
  }
  return ids;
}

constexpr auto kLinuxIds = invert_numbers<&NumberEntry::linux_num>();
constexpr auto kBsdIds = invert_numbers<&NumberEntry::bsd_num>();

template <std::size_t N>
std::optional<SysId> id_of(const std::array<SysId, N>& ids, std::uint16_t number) {
  if (number >= N || ids[number] == SysId::kCount) return std::nullopt;
  return ids[number];
}

}  // namespace

const SyscallSig& signature(SysId id) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= kNumSysIds) throw Error("signature: bad SysId");
  return kSigs[idx];
}

bool is_output_arg(ArgKind kind) {
  return kind == ArgKind::BufOut || kind == ArgKind::OutPtr;
}

std::string personality_name(Personality p) {
  return p == Personality::LinuxSim ? "LinuxSim" : "BsdSim";
}

std::optional<std::uint16_t> syscall_number(Personality p, SysId id) {
  for (const auto& e : kNumbers) {
    if (e.id != id) continue;
    const std::uint16_t n = p == Personality::LinuxSim ? e.linux_num : e.bsd_num;
    if (n == 0) return std::nullopt;
    return n;
  }
  return std::nullopt;
}

std::optional<SysId> syscall_from_number(Personality p, std::uint16_t number) {
  return p == Personality::LinuxSim ? id_of(kLinuxIds, number) : id_of(kBsdIds, number);
}

std::vector<SysId> available_syscalls(Personality p) {
  std::vector<SysId> out;
  for (const auto& e : kNumbers) {
    const std::uint16_t n = p == Personality::LinuxSim ? e.linux_num : e.bsd_num;
    if (n != 0) out.push_back(e.id);
  }
  return out;
}

}  // namespace asc::os
