#include "isa/disasm.h"

#include <cstdio>

namespace asc::isa {

namespace {
std::string reg_name(Reg r) {
  if (r == kSp) return "sp";
  std::string name = "r";
  name += std::to_string(static_cast<int>(r));
  return name;
}
std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}
}  // namespace

std::string to_string(const Instr& ins) {
  const std::string m = mnemonic(ins.op);
  switch (format_of(ins.op)) {
    case Fmt::None:
      return m;
    case Fmt::R:
      return m + " " + reg_name(ins.rd);
    case Fmt::RR:
      return m + " " + reg_name(ins.rd) + ", " + reg_name(ins.rs);
    case Fmt::RI:
      return m + " " + reg_name(ins.rd) + ", " + hex32(ins.imm);
    case Fmt::Mem:
      if (ins.op == Op::Store || ins.op == Op::Storeb) {
        return m + " [" + reg_name(ins.rs) + "+" + hex32(ins.imm) + "], " + reg_name(ins.rd);
      }
      return m + " " + reg_name(ins.rd) + ", [" + reg_name(ins.rs) + "+" + hex32(ins.imm) + "]";
    case Fmt::Addr:
      return m + " " + hex32(ins.imm);
  }
  return m;
}

}  // namespace asc::isa
