// Static analysis pipeline tests on hand-built programs with known
// structure: disassembly/symbolization, CFG, call graph, stub inlining,
// reaching definitions / value tracing, syscall graph.
#include <gtest/gtest.h>

#include "analysis/argclass.h"
#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/disassembler.h"
#include "analysis/inliner.h"
#include "analysis/syscallgraph.h"
#include "analysis/syscallsites.h"
#include "apps/libtoy.h"
#include "installer/policygen.h"
#include "tasm/assembler.h"

namespace asc::analysis {
namespace {

using apps::R0;
using apps::R1;
using apps::R2;
using apps::R3;
using apps::R11;
using apps::R12;

TEST(Disassembler, RequiresRelocatableImage) {
  tasm::Assembler a("t");
  a.func("_start");
  a.ret();
  auto img = a.link("_start");
  img.relocatable = false;
  EXPECT_THROW(disassemble(img), Error);
}

TEST(Disassembler, SymbolizesBranchesCallsAndData) {
  tasm::Assembler a("t");
  a.func("_start");
  a.lea(R1, "msg");      // DataAddr
  a.call("callee");      // FuncEntry
  a.label(".here");
  a.cmpi(R0, 0);
  a.jnz(".here");        // CodeLocal
  a.ret();
  a.func("callee");
  a.ret();
  a.rodata_cstr("msg", "m");
  auto ir = disassemble(a.link("_start"));
  const IrFunction* start = ir.find("_start");
  ASSERT_NE(start, nullptr);
  EXPECT_FALSE(start->opaque);
  EXPECT_EQ(start->instrs[0].ref, RefKind::DataAddr);
  EXPECT_EQ(start->instrs[1].ref, RefKind::FuncEntry);
  EXPECT_EQ(ir.funcs[start->instrs[1].ref_index].name, "callee");
  EXPECT_EQ(start->instrs[3].ref, RefKind::CodeLocal);
  EXPECT_EQ(start->instrs[3].ref_index, 2u);  // the cmpi at ".here"
}

TEST(Disassembler, MarksUndecodableFunctionOpaque) {
  tasm::Assembler a("t");
  a.func("_start");
  a.ret();
  a.func("weird");
  a.raw({0xfe, 0xdc});
  a.ret();
  auto ir = disassemble(a.link("_start"));
  const IrFunction* w = ir.find("weird");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->opaque);
  EXPECT_NE(w->opaque_reason.find("undecodable"), std::string::npos);
}

TEST(Disassembler, MarksComputedJumpOpaque) {
  tasm::Assembler a("t");
  a.func("_start");
  a.ret();
  a.func("computed");
  a.lea(R11, ".x");
  a.jmpr(R11);
  a.label(".x");
  a.ret();
  auto ir = disassemble(a.link("_start"));
  EXPECT_TRUE(ir.find("computed")->opaque);
}

TEST(Disassembler, DetectsAddressTakenFunctions) {
  tasm::Assembler a("t");
  a.func("_start");
  a.lea(R11, "target");
  a.callr(R11);
  a.ret();
  a.func("target");
  a.ret();
  a.func("not_taken");
  a.ret();
  auto ir = disassemble(a.link("_start"));
  EXPECT_TRUE(ir.find("target")->address_taken);
  EXPECT_FALSE(ir.find("not_taken")->address_taken);
}

TEST(Disassembler, DetectsDataResidentCodePointers) {
  tasm::Assembler a("t");
  a.func("_start");
  a.ret();
  a.func("pointee");
  a.ret();
  a.data_ptr("fnptr", "pointee");
  auto ir = disassemble(a.link("_start"));
  EXPECT_TRUE(ir.find("pointee")->address_taken);
  ASSERT_EQ(ir.data_code_ptrs.size(), 1u);
  EXPECT_EQ(ir.funcs[ir.data_code_ptrs[0].second].name, "pointee");
}

TEST(Cfg, SplitsBlocksAtBranchesAndCalls) {
  tasm::Assembler a("t");
  a.func("_start");
  a.movi(R11, 3);        // block 1
  a.label(".loop");
  a.subi(R11, 1);        // block 2 (branch target)
  a.cmpi(R11, 0);
  a.jnz(".loop");
  a.call("leaf");        // block 3 ends in call
  a.ret();               // block 4
  a.func("leaf");
  a.ret();
  auto ir = disassemble(a.link("_start"));
  auto cfg = build_cfg(ir);
  const FunctionCfg& fc = cfg.functions[0];
  ASSERT_EQ(fc.block_ids.size(), 4u);
  const BasicBlock& loop_block = cfg.block(fc.block_ids[1]);
  // loop block: succs = itself + fallthrough
  EXPECT_EQ(loop_block.succs.size(), 2u);
  const BasicBlock& call_block = cfg.block(fc.block_ids[2]);
  EXPECT_TRUE(call_block.ends_in_call);
  EXPECT_EQ(ir.funcs[call_block.call_target].name, "leaf");
  EXPECT_TRUE(cfg.block(fc.block_ids[3]).ends_in_ret);
}

TEST(Inliner, InlinesStubsPerCallSite) {
  tasm::Assembler a("t");
  a.func("main");
  a.call("sys_getpid");
  a.call("sys_getpid");
  a.movi(R0, 0);
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);  // defines stubs and _start
  auto img = a.link();
  auto ir = disassemble(img);
  const auto report = inline_syscall_stubs(ir);
  EXPECT_GE(report.stubs_found, 2u);
  // main now contains both getpid SYSCALLs directly, one per call site.
  const IrFunction* main_fn = ir.find("main");
  int syscalls = 0;
  for (const auto& i : main_fn->instrs) {
    if (i.ins.op == isa::Op::Syscall) ++syscalls;
  }
  EXPECT_EQ(syscalls, 2);
}

TEST(Dataflow, TracesConstantsAndStrings) {
  tasm::Assembler a("t");
  a.func("_start");
  a.lea(R1, "path");     // string constant
  a.movi(R2, 0);         // immediate
  a.mov(R3, R2);         // copy chain
  a.movi(R0, 5);         // open
  a.syscall_();
  a.ret();
  a.rodata_cstr("path", "/etc/passwd");
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  const ReachingDefs rd(ir, cfg, 0);
  const std::size_t sys_idx = 4;
  const auto v1 = trace_value(ir, img, cfg, rd, 0, sys_idx, 1);
  EXPECT_EQ(v1.kind, AbstractValue::Kind::StrAddr);
  const auto v2 = trace_value(ir, img, cfg, rd, 0, sys_idx, 2);
  EXPECT_EQ(v2.kind, AbstractValue::Kind::Const);
  EXPECT_EQ(v2.value, 0u);
  const auto v3 = trace_value(ir, img, cfg, rd, 0, sys_idx, 3);
  EXPECT_EQ(v3.kind, AbstractValue::Kind::Const) << "copy chains must be followed";
}

TEST(Dataflow, StringThroughACopyKeepsEveryLea) {
  tasm::Assembler a("t");
  a.func("_start");
  a.cmpi(R11, 0);
  a.jz(".b");
  a.lea(R12, "path");  // 2
  a.jmp(".join");
  a.label(".b");
  a.lea(R12, "path");  // 4
  a.label(".join");
  a.mov(R1, R12);
  a.movi(R0, 5);  // open
  a.syscall_();
  a.ret();
  a.rodata_cstr("path", "/a.txt");
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  const ReachingDefs rd(ir, cfg, 0);
  // the syscall is instruction index 7
  const auto v = trace_value(ir, img, cfg, rd, 0, 7, 1);
  ASSERT_EQ(v.kind, AbstractValue::Kind::StrAddr);
  EXPECT_EQ(v.leas, (std::vector<std::size_t>{2, 4}))
      << "the rewriter retargets exactly these LEAs";
}

TEST(Dataflow, MultiplePathsYieldMultiValue) {
  tasm::Assembler a("t");
  a.func("_start");
  a.cmpi(R11, 0);
  a.jz(".b");
  a.movi(R1, 10);
  a.jmp(".join");
  a.label(".b");
  a.movi(R1, 20);
  a.label(".join");
  a.movi(R0, 45);  // brk
  a.syscall_();
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  const ReachingDefs rd(ir, cfg, 0);
  // the syscall is instruction index 6
  const auto v = trace_value(ir, img, cfg, rd, 0, 6, 1);
  ASSERT_EQ(v.kind, AbstractValue::Kind::Multi);
  EXPECT_EQ(v.values.size(), 2u);
}

TEST(Dataflow, CallClobbersArgumentRegisters) {
  tasm::Assembler a("t");
  a.func("_start");
  a.movi(R1, 7);
  a.call("noise");
  a.movi(R0, 45);
  a.syscall_();
  a.ret();
  a.func("noise");
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  const ReachingDefs rd(ir, cfg, 0);
  const auto v = trace_value(ir, img, cfg, rd, 0, 3, 1);
  EXPECT_EQ(v.kind, AbstractValue::Kind::Unknown)
      << "a value that crossed a call must be conservative";
}

TEST(Dataflow, FdTracedToOpen) {
  tasm::Assembler a("t");
  a.func("_start");
  a.lea(R1, "p");
  a.movi(R2, 0);
  a.movi(R3, 0);
  a.movi(R0, 5);  // open
  a.syscall_();
  a.mov(R1, R0);  // fd
  a.movi(R0, 6);  // close
  a.syscall_();
  a.ret();
  a.rodata_cstr("p", "/f");
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  ASSERT_EQ(scan.sites.size(), 2u);
  const auto& close_site = scan.sites[1];
  EXPECT_EQ(close_site.id, os::SysId::Close);
  EXPECT_EQ(close_site.args[0].kind, ArgClass::Kind::FdArg);
  ASSERT_EQ(close_site.args[0].fd_origin_blocks.size(), 1u);
  EXPECT_EQ(close_site.args[0].fd_origin_blocks[0], scan.sites[0].block);
}

TEST(SyscallGraphTest, SequentialPredecessors) {
  tasm::Assembler a("t");
  a.func("_start");
  a.movi(R0, 20);  // getpid
  a.syscall_();
  a.movi(R0, 24);  // getuid
  a.syscall_();
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto cg = build_callgraph(ir, cfg);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  auto graph = build_syscall_graph(ir, cfg, cg, scan.sites);
  ASSERT_EQ(graph.predecessors.size(), 2u);
  EXPECT_EQ(graph.predecessors[0], std::vector<std::uint32_t>{policy::kStartBlockLocal});
  EXPECT_EQ(graph.predecessors[1], std::vector<std::uint32_t>{scan.sites[0].block});
}

TEST(SyscallGraphTest, BranchMergesPredecessors) {
  tasm::Assembler a("t");
  a.func("_start");
  a.cmpi(R11, 0);
  a.jz(".else");
  a.movi(R0, 20);  // getpid
  a.syscall_();
  a.jmp(".join");
  a.label(".else");
  a.movi(R0, 24);  // getuid
  a.syscall_();
  a.label(".join");
  a.movi(R0, 60);  // umask
  a.syscall_();
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto cg = build_callgraph(ir, cfg);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  auto graph = build_syscall_graph(ir, cfg, cg, scan.sites);
  ASSERT_EQ(scan.sites.size(), 3u);
  EXPECT_EQ(graph.predecessors[2].size(), 2u) << "umask must accept both branch predecessors";
}

TEST(SyscallGraphTest, InterproceduralFlowThroughCallee) {
  tasm::Assembler a("t");
  a.func("_start");
  a.movi(R0, 20);  // getpid
  a.syscall_();
  a.call("quiet");     // no syscalls inside
  a.movi(R0, 24);  // getuid
  a.syscall_();
  a.ret();
  a.func("quiet");
  a.movi(R11, 1);
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto cg = build_callgraph(ir, cfg);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  auto graph = build_syscall_graph(ir, cfg, cg, scan.sites);
  // getuid's predecessor is getpid, THROUGH the call to quiet().
  EXPECT_EQ(graph.predecessors[1], std::vector<std::uint32_t>{scan.sites[0].block});
}

TEST(SyscallGraphTest, CalleeSyscallShadowsEarlierOnes) {
  tasm::Assembler a("t");
  a.func("_start");
  a.movi(R0, 20);  // getpid
  a.syscall_();
  a.call("noisy");
  a.movi(R0, 24);  // getuid
  a.syscall_();
  a.ret();
  a.func("noisy");
  a.movi(R0, 60);  // umask
  a.syscall_();
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto cg = build_callgraph(ir, cfg);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  auto graph = build_syscall_graph(ir, cfg, cg, scan.sites);
  // sites: getpid, getuid, umask (scan order by function)
  const auto& getuid_preds = graph.predecessors[1];
  ASSERT_EQ(getuid_preds.size(), 1u);
  EXPECT_EQ(getuid_preds[0], scan.sites[2].block) << "the callee's umask is the predecessor";
}

TEST(ArgCoverage, CountsMatchHandConstructedProgram) {
  tasm::Assembler a("t");
  a.func("_start");
  a.lea(R1, "p");   // String
  a.movi(R2, 0);    // Const
  a.movi(R3, 0);    // Const
  a.movi(R0, 5);    // open(path, flags, mode): 3 args
  a.syscall_();
  a.mov(R1, R0);
  a.lea(R2, "buf");
  a.movi(R3, 16);
  a.movi(R0, 3);    // read(fd, buf, n)
  a.syscall_();
  a.ret();
  a.rodata_cstr("p", "/f");
  a.bss("buf", 16);
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  const auto cov = compute_arg_coverage(scan);
  EXPECT_EQ(cov.sites, 2u);
  EXPECT_EQ(cov.calls, 2u);
  EXPECT_EQ(cov.args, 6u);
  EXPECT_EQ(cov.output_only, 1u);  // read's buffer
  // open: 3 protected (string + 2 consts); read: buf addr is a Const (bss
  // address) and n is Const; fd is FdArg.
  EXPECT_EQ(cov.auth, 5u);
  EXPECT_EQ(cov.fds, 1u);
}

TEST(Policygen, WarnsOnNonConstantSyscallNumber) {
  tasm::Assembler a("t");
  a.func("_start");
  a.mov(R0, R11);  // syscall number from a register: not analyzable
  a.syscall_();
  a.ret();
  auto img = a.link("_start");
  auto ir = disassemble(img);
  auto cfg = build_cfg(ir);
  auto scan = find_syscall_sites(ir, img, cfg, os::Personality::LinuxSim);
  EXPECT_TRUE(scan.sites.empty());
  ASSERT_FALSE(scan.warnings.empty());
  EXPECT_NE(scan.warnings[0].find("non-constant"), std::string::npos);
}

TEST(Policygen, UnreachableFunctionsContributeNoPolicies) {
  tasm::Assembler a("t");
  a.func("main");
  a.movi(R0, 0);
  a.ret();
  a.func("dead_code");
  a.call("sys_socket");  // never called by anyone
  a.ret();
  apps::emit_libc(a, os::Personality::LinuxSim);
  auto gp = installer::generate_policies(a.link(), os::Personality::LinuxSim);
  for (const auto& p : gp.policies) {
    EXPECT_NE(p.sys, os::SysId::Socket) << "unreachable socket must be pruned";
  }
}

}  // namespace
}  // namespace asc::analysis
