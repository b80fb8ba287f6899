// Dispatch layer of the staged trap pipeline (see os/kernel.h): the syscall
// handlers. Identity and arguments come from the TrapContext captured by the
// trap layer -- handlers never read kernel-global trap state, so nested
// traps (Spawn running a child mid-call) are safe by construction.
#include <algorithm>
#include <span>
#include <string_view>

#include "os/kernel.h"

namespace asc::os {

std::string Kernel::read_path(Process& p, std::uint32_t addr) {
  return p.mem.read_cstr(addr, 4096);
}

std::int64_t Kernel::sys_open(Process& p, const TrapContext& ctx) {
  const auto& a = ctx.effective_args;
  const std::string path = read_path(p, a[0]);
  const std::int64_t ino = fs_.open(p.cwd, path, a[1], a[2] & ~p.umask);
  if (ino < 0) return ino;
  const std::int32_t fd = p.alloc_fd();
  if (fd < 0) return SimFs::kErrBadf;
  FdEntry& e = p.fds[static_cast<std::size_t>(fd)];
  e.kind = FdEntry::Kind::File;
  e.inode = static_cast<std::uint32_t>(ino);
  e.offset = 0;
  e.flags = a[1];
  e.origin_block = p.cpu.regs[isa::kRegBlockId];
  return fd;
}

std::int64_t Kernel::sys_read(Process& p, TrapContext& ctx,
                              const std::array<std::uint32_t, kMaxSyscallArgs>& a) {
  FdEntry* e = p.fd(a[0]);
  if (e == nullptr) return SimFs::kErrBadf;
  const std::uint32_t n = a[2];
  // The bytes read, viewed where they lie: write_bytes copies them straight
  // into the guest buffer, after the write watches fire.
  std::span<const std::uint8_t> bytes;
  std::int64_t got = 0;
  switch (e->kind) {
    case FdEntry::Kind::Stdin: {
      const std::size_t avail = p.stdin_data.size() - p.stdin_pos;
      const std::size_t take = std::min<std::size_t>(n, avail);
      bytes = std::span(p.stdin_data).subspan(p.stdin_pos, take);
      p.stdin_pos += take;
      got = static_cast<std::int64_t>(take);
      break;
    }
    case FdEntry::Kind::File: {
      got = fs_.read(e->inode, e->offset, n, bytes);
      if (got > 0) e->offset += static_cast<std::uint32_t>(got);
      break;
    }
    case FdEntry::Kind::Socket:
    case FdEntry::Kind::Pipe:
      got = 0;  // nothing to receive in the simulation
      break;
    default:
      return SimFs::kErrBadf;
  }
  if (got > 0) p.mem.write_bytes(a[1], bytes);
  ctx.charge(p, static_cast<std::uint64_t>(static_cast<double>(std::max<std::int64_t>(got, 0)) *
                                           cost_.read_per_byte));
  return got;
}

std::int64_t Kernel::sys_write(Process& p, TrapContext& ctx,
                               const std::array<std::uint32_t, kMaxSyscallArgs>& a) {
  FdEntry* e = p.fd(a[0]);
  if (e == nullptr) return SimFs::kErrBadf;
  const std::uint32_t n = a[2];
  // The guest buffer in place; no handler below writes guest memory.
  const std::span<const std::uint8_t> buf = p.mem.view(a[1], n);
  const std::string_view text(reinterpret_cast<const char*>(buf.data()), buf.size());
  std::int64_t wrote = 0;
  switch (e->kind) {
    case FdEntry::Kind::Stdout:
      p.stdout_data += text;
      wrote = n;
      break;
    case FdEntry::Kind::Stderr:
      p.stderr_data += text;
      wrote = n;
      break;
    case FdEntry::Kind::File: {
      wrote = fs_.write(e->inode, e->offset, buf, (e->flags & SimFs::kAppend) != 0);
      if (wrote > 0) e->offset += static_cast<std::uint32_t>(wrote);
      break;
    }
    case FdEntry::Kind::Socket:
      log_event(p, ctx, AuditKind::Net, "send " + std::to_string(n) + " bytes");
      wrote = n;
      break;
    case FdEntry::Kind::Pipe:
      wrote = n;
      break;
    default:
      return SimFs::kErrBadf;
  }
  ctx.charge(p,
             static_cast<std::uint64_t>(static_cast<double>(std::max<std::int64_t>(wrote, 0)) *
                                        cost_.write_per_byte));
  return wrote;
}

std::int64_t Kernel::dispatch(Process& p, TrapContext& ctx) {
  const SysId id = ctx.effective_id;
  const auto& a = ctx.effective_args;
  switch (id) {
    case SysId::Exit:
      p.running = false;
      p.exit_code = static_cast<std::int32_t>(a[0]);
      return 0;
    case SysId::Read:
      return sys_read(p, ctx, a);
    case SysId::Write:
      return sys_write(p, ctx, a);
    case SysId::Open:
      return sys_open(p, ctx);
    case SysId::Close: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr) return SimFs::kErrBadf;
      e->kind = FdEntry::Kind::Closed;
      return 0;
    }
    case SysId::Unlink:
      return fs_.unlink(p.cwd, read_path(p, a[0]));
    case SysId::Rename:
      return fs_.rename(p.cwd, read_path(p, a[0]), read_path(p, a[1]));
    case SysId::Mkdir:
      return fs_.mkdir(p.cwd, read_path(p, a[0]), a[1]);
    case SysId::Rmdir:
      return fs_.rmdir(p.cwd, read_path(p, a[0]));
    case SysId::Chdir: {
      const std::string path = read_path(p, a[0]);
      if (!fs_.is_dir(p.cwd, path)) return SimFs::kErrNotDir;
      if (auto norm = fs_.normalize(p.cwd, path)) {
        p.cwd = *norm;
        return 0;
      }
      return SimFs::kErrNoEnt;
    }
    case SysId::Getcwd: {
      const std::string& cwd = p.cwd;
      if (cwd.size() + 1 > a[1]) return SimFs::kErrInval;
      std::vector<std::uint8_t> bytes(cwd.begin(), cwd.end());
      bytes.push_back(0);
      p.mem.write_bytes(a[0], bytes);
      return static_cast<std::int64_t>(cwd.size());
    }
    case SysId::Stat: {
      const auto st = fs_.stat(p.cwd, read_path(p, a[0]));
      if (!st.has_value()) return SimFs::kErrNoEnt;
      p.mem.w32(a[1], static_cast<std::uint32_t>(st->kind));
      p.mem.w32(a[1] + 4, st->size);
      p.mem.w32(a[1] + 8, st->mode);
      p.mem.w32(a[1] + 12, st->inode);
      return 0;
    }
    case SysId::Fstat:
    case SysId::Fstatfs: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr) return SimFs::kErrBadf;
      StatInfo st{};
      if (e->kind == FdEntry::Kind::File) {
        const auto s = fs_.stat_inode(e->inode);
        if (s.has_value()) st = *s;
      }
      p.mem.w32(a[1], static_cast<std::uint32_t>(st.kind));
      p.mem.w32(a[1] + 4, st.size);
      p.mem.w32(a[1] + 8, st.mode);
      p.mem.w32(a[1] + 12, st.inode);
      return 0;
    }
    case SysId::Lseek: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr || e->kind != FdEntry::Kind::File) return SimFs::kErrBadf;
      const auto st = fs_.stat_inode(e->inode);
      const std::int32_t off = static_cast<std::int32_t>(a[1]);
      std::int64_t base = 0;
      switch (a[2]) {
        case 0: base = 0; break;                              // SEEK_SET
        case 1: base = e->offset; break;                      // SEEK_CUR
        case 2: base = st.has_value() ? st->size : 0; break;  // SEEK_END
        default: return SimFs::kErrInval;
      }
      const std::int64_t pos = base + off;
      if (pos < 0) return SimFs::kErrInval;
      e->offset = static_cast<std::uint32_t>(pos);
      return pos;
    }
    case SysId::Dup: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr) return SimFs::kErrBadf;
      const FdEntry copy = *e;  // copy before alloc_fd may reallocate
      const std::int32_t nfd = p.alloc_fd();
      if (nfd < 0) return SimFs::kErrBadf;
      p.fds[static_cast<std::size_t>(nfd)] = copy;
      return nfd;
    }
    case SysId::Brk: {
      const std::uint32_t want = a[0];
      if (want == 0) return p.brk_end;
      if (want < binary::kHeapBase || want >= p.mmap_cursor) return SimFs::kErrInval;
      p.brk_end = want;
      return p.brk_end;
    }
    case SysId::Getpid:
      return p.pid;
    case SysId::Getuid:
      return 1000;
    case SysId::Gettimeofday: {
      const std::uint64_t ns = vtime_ns_ + p.cycles;  // 1 cycle ~ 1 ns
      if (a[0] != 0) {
        p.mem.w32(a[0], static_cast<std::uint32_t>(ns / 1'000'000'000));
        p.mem.w32(a[0] + 4, static_cast<std::uint32_t>(ns % 1'000'000'000 / 1000));
      }
      return 0;
    }
    case SysId::Time: {
      const std::uint32_t secs =
          static_cast<std::uint32_t>((vtime_ns_ + p.cycles) / 1'000'000'000);
      if (a[0] != 0) p.mem.w32(a[0], secs);
      return secs;
    }
    case SysId::Nanosleep: {
      if (a[0] != 0) {
        const std::uint32_t sec = p.mem.r32(a[0]);
        const std::uint32_t nsec = p.mem.r32(a[0] + 4);
        vtime_ns_ += static_cast<std::uint64_t>(sec) * 1'000'000'000 + nsec;
      }
      return 0;
    }
    case SysId::Kill:
      log_event(p, ctx, AuditKind::Signal,
                "pid=" + std::to_string(a[0]) + " sig=" + std::to_string(a[1]));
      return 0;
    case SysId::Sigaction:
      return 0;
    case SysId::Socket: {
      const std::int32_t fd = p.alloc_fd();
      if (fd < 0) return SimFs::kErrBadf;
      FdEntry& e = p.fds[static_cast<std::size_t>(fd)];
      e.kind = FdEntry::Kind::Socket;
      e.origin_block = p.cpu.regs[isa::kRegBlockId];
      return fd;
    }
    case SysId::Connect:
      return p.fd(a[0]) != nullptr ? 0 : SimFs::kErrBadf;
    case SysId::Sendto: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr || e->kind != FdEntry::Kind::Socket) return SimFs::kErrBadf;
      log_event(p, ctx, AuditKind::Net, "sendto " + std::to_string(a[2]) + " bytes");
      ctx.charge(p, static_cast<std::uint64_t>(static_cast<double>(a[2]) * cost_.write_per_byte));
      return a[2];
    }
    case SysId::Recvfrom:
      return p.fd(a[0]) != nullptr ? 0 : SimFs::kErrBadf;
    case SysId::Fcntl:
      return p.fd(a[0]) != nullptr ? 0 : SimFs::kErrBadf;
    case SysId::Readlink: {
      const auto target = fs_.readlink(p.cwd, read_path(p, a[0]));
      if (!target.has_value()) return SimFs::kErrNoEnt;
      const std::uint32_t n =
          std::min<std::uint32_t>(a[2], static_cast<std::uint32_t>(target->size()));
      p.mem.write_bytes(a[1], std::vector<std::uint8_t>(target->begin(), target->begin() + n));
      return n;
    }
    case SysId::Symlink:
      return fs_.symlink(p.cwd, read_path(p, a[0]), read_path(p, a[1]));
    case SysId::Chmod:
      return fs_.chmod(p.cwd, read_path(p, a[0]), a[1]);
    case SysId::Access:
      return fs_.access(p.cwd, read_path(p, a[0]));
    case SysId::Ftruncate: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr || e->kind != FdEntry::Kind::File) return SimFs::kErrBadf;
      return fs_.truncate(e->inode, a[1]);
    }
    case SysId::Getdirentries: {
      FdEntry* e = p.fd(a[0]);
      if (e == nullptr || e->kind != FdEntry::Kind::File) return SimFs::kErrBadf;
      // Directory fds: inode refers to a dir. List names NUL-separated.
      const auto st = fs_.stat_inode(e->inode);
      if (!st.has_value() || st->kind != NodeKind::Dir) return SimFs::kErrNotDir;
      std::vector<std::string> names;
      if (auto dpath = fs_.path_of_inode(e->inode)) {
        if (auto lst = fs_.list_dir("/", *dpath)) names = *lst;
      }
      std::vector<std::uint8_t> out;
      for (const auto& nme : names) {
        for (char c : nme) out.push_back(static_cast<std::uint8_t>(c));
        out.push_back(0);
      }
      if (e->offset >= out.size()) return 0;
      const std::uint32_t take =
          std::min<std::uint32_t>(a[2], static_cast<std::uint32_t>(out.size()) - e->offset);
      p.mem.write_bytes(a[1], std::span<const std::uint8_t>(out.data() + e->offset, take));
      e->offset += take;
      return take;
    }
    case SysId::Uname: {
      const std::string s = personality_ == Personality::LinuxSim ? "LinuxSim 2.4-asc"
                                                                  : "BsdSim 3.4-asc";
      std::vector<std::uint8_t> bytes(s.begin(), s.end());
      bytes.push_back(0);
      p.mem.write_bytes(a[0], bytes);
      return 0;
    }
    case SysId::Sysconf:
      switch (a[0]) {
        case 1: return 4096;  // page size
        case 2: return 256;   // open max
        default: return SimFs::kErrInval;
      }
    case SysId::Madvise:
      return 0;
    case SysId::Mmap: {
      const std::uint32_t len = (a[1] + 4095u) & ~4095u;
      if (len == 0 || len > p.mmap_cursor - p.brk_end) return SimFs::kErrInval;
      p.mmap_cursor -= len;
      return p.mmap_cursor;
    }
    case SysId::Munmap:
      return 0;
    case SysId::Writev: {
      // iov = array of {ptr, len}; cnt = a[2]
      std::int64_t total = 0;
      for (std::uint32_t i = 0; i < a[2]; ++i) {
        const std::uint32_t ptr = p.mem.r32(a[1] + 8 * i);
        const std::uint32_t len = p.mem.r32(a[1] + 8 * i + 4);
        const std::int64_t w = sys_write(p, ctx, {a[0], ptr, len, 0, 0});
        if (w < 0) return w;
        total += w;
      }
      return total;
    }
    case SysId::Umask: {
      const std::uint32_t old = p.umask;
      p.umask = a[0] & 0777;
      return old;
    }
    case SysId::Ioctl:
      return p.fd(a[0]) != nullptr ? 0 : SimFs::kErrBadf;
    case SysId::Spawn: {
      const std::string path = read_path(p, a[0]);
      // a[1], when nonzero, points to a block of NUL-terminated argument
      // strings ending with an empty string.
      std::vector<std::string> argv;
      if (a[1] != 0) {
        std::uint32_t cursor = a[1];
        for (int guard = 0; guard < 64; ++guard) {
          const std::string s = p.mem.read_cstr(cursor, 4096);
          if (s.empty()) break;
          argv.push_back(s);
          cursor += static_cast<std::uint32_t>(s.size()) + 1;
        }
      }
      std::string joined = path;
      for (const auto& s : argv) joined += " " + s;
      log_event(p, ctx, AuditKind::Spawn, joined);
      if (!spawn_) return SimFs::kErrNoEnt;
      // Re-enters the pipeline for every child trap; the child's contexts
      // stack below this one, leaving `ctx` untouched.
      return spawn_(p, path, argv);
    }
    case SysId::Pipe: {
      const std::int32_t r = p.alloc_fd();
      if (r < 0) return SimFs::kErrBadf;
      p.fds[static_cast<std::size_t>(r)].kind = FdEntry::Kind::Pipe;
      const std::int32_t w = p.alloc_fd();
      if (w < 0) return SimFs::kErrBadf;
      p.fds[static_cast<std::size_t>(w)].kind = FdEntry::Kind::Pipe;
      p.mem.w32(a[0], static_cast<std::uint32_t>(r));
      p.mem.w32(a[0] + 4, static_cast<std::uint32_t>(w));
      return 0;
    }
    case SysId::SyscallIndirect:
      return SimFs::kErrInval;  // resolved by the trap layer before dispatch
    case SysId::kCount:
      break;
  }
  return SimFs::kErrInval;
}

}  // namespace asc::os
