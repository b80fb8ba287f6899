// Simulated filesystem, syscall table and kernel syscall handler tests.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "apps/libtoy.h"
#include "core/asc.h"
#include "os/fs.h"
#include "tasm/assembler.h"

namespace asc::os {
namespace {

std::string text_of(SimFs& fs, const std::string& path) {
  auto ino = fs.open("/", path, SimFs::kRdOnly, 0);
  if (ino < 0) return "<err>";
  std::span<const std::uint8_t> out;
  fs.read(static_cast<std::uint32_t>(ino), 0, 1 << 20, out);
  return std::string(out.begin(), out.end());
}

void put(SimFs& fs, const std::string& path, const std::string& content) {
  auto ino = fs.open("/", path, SimFs::kWrOnly | SimFs::kCreat | SimFs::kTrunc, 0644);
  ASSERT_GE(ino, 0) << path;
  fs.write(static_cast<std::uint32_t>(ino), 0,
           std::vector<std::uint8_t>(content.begin(), content.end()), false);
}

TEST(SimFsTest, CreateWriteReadBack) {
  SimFs fs;
  put(fs, "/a.txt", "contents");
  EXPECT_EQ(text_of(fs, "/a.txt"), "contents");
}

TEST(SimFsTest, OpenMissingWithoutCreatFails) {
  SimFs fs;
  EXPECT_EQ(fs.open("/", "/nope", SimFs::kRdOnly, 0), SimFs::kErrNoEnt);
}

TEST(SimFsTest, MkdirRmdirSemantics) {
  SimFs fs;
  EXPECT_EQ(fs.mkdir("/", "/d", 0755), 0);
  EXPECT_EQ(fs.mkdir("/", "/d", 0755), SimFs::kErrExist);
  put(fs, "/d/f", "x");
  EXPECT_EQ(fs.rmdir("/", "/d"), SimFs::kErrNotEmpty);
  EXPECT_EQ(fs.unlink("/", "/d/f"), 0);
  EXPECT_EQ(fs.rmdir("/", "/d"), 0);
  EXPECT_EQ(fs.rmdir("/", "/d"), SimFs::kErrNoEnt);
}

TEST(SimFsTest, RenameMovesAndReplaces) {
  SimFs fs;
  put(fs, "/x", "one");
  put(fs, "/y", "two");
  EXPECT_EQ(fs.rename("/", "/x", "/y"), 0);
  EXPECT_EQ(text_of(fs, "/y"), "one");
  EXPECT_EQ(fs.open("/", "/x", SimFs::kRdOnly, 0), SimFs::kErrNoEnt);
}

TEST(SimFsTest, RelativePathsAndCwd) {
  SimFs fs;
  ASSERT_EQ(fs.mkdir("/", "/home/u", 0755), 0);
  put(fs, "/home/u/f", "deep");
  EXPECT_EQ(text_of(fs, "/home/u/f"), "deep");
  auto ino = fs.open("/home/u", "f", SimFs::kRdOnly, 0);
  EXPECT_GE(ino, 0);
  EXPECT_TRUE(fs.is_dir("/home/u", ".."));
  EXPECT_TRUE(fs.is_dir("/home/u", "../../"));
}

TEST(SimFsTest, SymlinksAreFollowed) {
  SimFs fs;
  put(fs, "/real.txt", "real");
  EXPECT_EQ(fs.symlink("/", "/real.txt", "/link"), 0);
  EXPECT_EQ(text_of(fs, "/link"), "real");
  EXPECT_EQ(fs.readlink("/", "/link").value_or("?"), "/real.txt");
  // stat follows; readlink does not.
  EXPECT_EQ(fs.stat("/", "/link")->kind, NodeKind::File);
}

TEST(SimFsTest, SymlinkLoopsAreBounded) {
  SimFs fs;
  ASSERT_EQ(fs.symlink("/", "/b", "/a"), 0);
  ASSERT_EQ(fs.symlink("/", "/a", "/b"), 0);
  EXPECT_EQ(fs.open("/", "/a", SimFs::kRdOnly, 0), SimFs::kErrLoop);
}

TEST(SimFsTest, NormalizeResolvesDotsAndLinks) {
  SimFs fs;
  ASSERT_EQ(fs.mkdir("/", "/srv", 0755), 0);
  put(fs, "/srv/data", "x");
  ASSERT_EQ(fs.symlink("/", "/srv", "/s"), 0);
  EXPECT_EQ(fs.normalize("/", "/s/./data").value_or("?"), "/srv/data");
  EXPECT_EQ(fs.normalize("/srv", "../srv/data").value_or("?"), "/srv/data");
  // parent_only: final component may be missing.
  EXPECT_EQ(fs.normalize("/", "/s/newfile", true).value_or("?"), "/srv/newfile");
}

TEST(SimFsTest, TruncateAndStat) {
  SimFs fs;
  put(fs, "/t", "0123456789");
  auto st = fs.stat("/", "/t");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->size, 10u);
  auto ino = fs.open("/", "/t", SimFs::kRdWr, 0);
  EXPECT_EQ(fs.truncate(static_cast<std::uint32_t>(ino), 4), 0);
  EXPECT_EQ(text_of(fs, "/t"), "0123");
}

TEST(SimFsTest, ListDir) {
  SimFs fs;
  ASSERT_EQ(fs.mkdir("/", "/d", 0755), 0);
  put(fs, "/d/a", "1");
  put(fs, "/d/b", "2");
  auto names = fs.list_dir("/", "/d");
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
}

// ---- kernel handler behavior through small guest programs ----

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;

vm::RunResult run_guest(System& sys, const std::function<void(tasm::Assembler&)>& body,
                        const std::string& stdin_data = "") {
  tasm::Assembler a("kguest");
  body(a);
  apps::emit_libc(a, os::Personality::LinuxSim);
  return sys.machine().run(a.link(), {}, stdin_data);
}

// ---- the syscall tables ----
// capture_trap resolves every trap's number through syscall_from_number, and
// the checker reads its signature, both by direct table index. The indexed
// tables must agree exactly with the number column they are built from.

TEST(SyscallTable, NumberLookupInvertsSyscallNumberEverywhere) {
  for (const auto pers : {os::Personality::LinuxSim, os::Personality::BsdSim}) {
    std::vector<std::optional<os::SysId>> inverse(0x10000);
    for (std::size_t i = 0; i < os::kNumSysIds; ++i) {
      const auto id = static_cast<os::SysId>(i);
      if (const auto n = os::syscall_number(pers, id)) {
        ASSERT_FALSE(inverse[*n].has_value()) << "number " << *n << " names two calls";
        inverse[*n] = id;
      }
    }
    EXPECT_FALSE(inverse[0].has_value());
    for (std::uint32_t n = 0; n <= 0xffff; ++n) {
      const auto got = os::syscall_from_number(pers, static_cast<std::uint16_t>(n));
      ASSERT_EQ(got, inverse[n]) << os::personality_name(pers) << " number " << n;
    }
  }
}

TEST(SyscallTable, SignatureIsIndexedBySysId) {
  for (std::size_t i = 0; i < os::kNumSysIds; ++i) {
    const auto id = static_cast<os::SysId>(i);
    EXPECT_EQ(os::signature(id).id, id) << "SysId " << i;
  }
  EXPECT_THROW(os::signature(os::SysId::kCount), Error);
}

TEST(KernelTest, LseekSeekEndAndDup) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  put(sys.kernel().fs(), "/f", "abcdef");
  auto r = run_guest(sys, [](tasm::Assembler& a) {
    a.func("main");
    a.lea(R1, "p");
    a.movi(R2, 0);
    a.movi(R3, 0);
    a.call("sys_open");
    a.push(R0);
    a.mov(R1, R0);
    a.movi(R2, 0);
    a.movi(R3, 2);  // SEEK_END
    a.call("sys_lseek");
    a.push(R0);     // size = 6
    a.pop(R11);
    a.pop(R1);
    a.push(R11);
    a.call("sys_dup");
    a.pop(R0);      // exit = size
    a.ret();
    a.rodata_cstr("p", "/f");
  });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.exit_code, 6);
}

TEST(KernelTest, BrkGrowsHeap) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  auto r = run_guest(sys, [](tasm::Assembler& a) {
    a.func("main");
    a.movi(R1, 4096);
    a.call("malloc");
    a.push(R0);
    a.movi(R1, 4096);
    a.call("malloc");
    a.pop(R11);
    a.sub(R0, R11);  // second - first == 4096
    a.ret();
  });
  EXPECT_EQ(r.exit_code, 4096);
}

TEST(KernelTest, StdinReadAndEof) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  auto r = run_guest(
      sys,
      [](tasm::Assembler& a) {
        a.func("main");
        a.movi(R1, 0);
        a.lea(R2, "buf");
        a.movi(R3, 100);
        a.call("sys_read");
        a.push(R0);
        a.movi(R1, 0);
        a.lea(R2, "buf");
        a.movi(R3, 100);
        a.call("sys_read");  // second read: EOF -> 0
        a.pop(R11);
        a.add(R0, R11);
        a.ret();
        a.bss("buf", 128);
      },
      "hello");
  EXPECT_EQ(r.exit_code, 5);
}

TEST(KernelTest, GetdirentriesListsNames) {
  System sys2(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  ASSERT_EQ(sys2.kernel().fs().mkdir("/", "/d", 0755), 0);
  put(sys2.kernel().fs(), "/d/x", "");
  put(sys2.kernel().fs(), "/d/y", "");
  auto r = run_guest(sys2, [](tasm::Assembler& a) {
    a.func("main");
    a.lea(R1, "p");
    a.movi(R2, 0);
    a.movi(R3, 0);
    a.call("sys_open");
    a.mov(R1, R0);
    a.lea(R2, "buf");
    a.movi(R3, 64);
    a.call("sys_getdirentries");
    a.push(R0);
    a.movi(R1, 1);
    a.lea(R2, "buf");
    a.pop(R3);
    a.call("sys_write");
    a.movi(R0, 0);
    a.ret();
    a.rodata_cstr("p", "/d");
    a.bss("buf", 128);
  });
  // Entries are NUL-separated: "x\0y\0".
  EXPECT_EQ(r.stdout_data, std::string("x\0y\0", 4));
}

TEST(KernelTest, UnknownSyscallNumberReturnsEnosysWhenUnmonitored) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  auto r = run_guest(sys, [](tasm::Assembler& a) {
    a.func("main");
    a.movi(R0, 9999);
    a.syscall_();
    a.ret();  // exit code = result of the bogus syscall
  });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.exit_code, -38);
}

TEST(KernelTest, SyscallIndirectReachesMmapOnBsd) {
  System sys(os::Personality::BsdSim, test_key(), os::Enforcement::Off);
  tasm::Assembler a("bsdmmap");
  a.func("main");
  a.movi(R1, 0);
  a.movi(R2, 8192);
  a.movi(R3, 3);
  a.movi(apps::R4, 0x22);
  a.call("sys_mmap");
  a.cmpi(R0, 0);
  a.jgt(".ok");
  a.movi(R0, 1);
  a.ret();
  a.label(".ok");
  a.movi(R0, 0);
  a.ret();
  apps::emit_libc(a, os::Personality::BsdSim);
  auto r = sys.machine().run(a.link());
  EXPECT_TRUE(r.completed) << r.violation_detail;
  EXPECT_EQ(r.exit_code, 0);
}

TEST(KernelTest, VirtualTimeAdvancesWithNanosleep) {
  System sys(os::Personality::LinuxSim, test_key(), os::Enforcement::Off);
  const auto before = sys.kernel().virtual_time_ns();
  auto r = run_guest(sys, [](tasm::Assembler& a) {
    a.func("main");
    a.lea(R1, "ts");
    a.movi(R2, 0);
    a.call("sys_nanosleep");
    a.movi(R0, 0);
    a.ret();
    a.data_words("ts", {2, 500});  // 2s + 500ns
  });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sys.kernel().virtual_time_ns() - before, 2'000'000'500ull);
}

}  // namespace
}  // namespace asc::os
