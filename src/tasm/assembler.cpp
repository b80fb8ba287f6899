#include "tasm/assembler.h"

#include <set>

#include "isa/encode.h"
#include "util/error.h"
#include "util/hex.h"

namespace asc::tasm {

using isa::Instr;
using isa::Op;
using isa::Reg;

Assembler::Assembler(std::string program_name) : program_name_(std::move(program_name)) {}

Assembler::Func& Assembler::cur() {
  if (funcs_.empty()) throw Error("tasm: instruction emitted outside a function");
  return funcs_.back();
}

std::string Assembler::scoped(const std::string& label_name) const {
  if (!label_name.empty() && label_name[0] == '.') {
    if (funcs_.empty()) throw Error("tasm: local label outside a function");
    return funcs_.back().name + label_name;
  }
  return label_name;
}

void Assembler::func(const std::string& name) {
  for (const auto& f : funcs_) {
    if (f.name == name) throw Error("tasm: duplicate function " + name);
  }
  funcs_.push_back(Func{name, {}, {}});
}

void Assembler::label(const std::string& name) {
  auto& f = cur();
  const std::string full = scoped(name);
  if (f.labels.count(full) != 0) throw Error("tasm: duplicate label " + full);
  f.labels[full] = f.items.size();
}

void Assembler::emit(Instr ins, std::string symref) {
  cur().items.push_back(Item{ins, std::move(symref), {}, false});
}

void Assembler::nop() { emit({Op::Nop}); }
void Assembler::halt() { emit({Op::Halt}); }
void Assembler::syscall_() { emit({Op::Syscall}); }

void Assembler::movi(Reg rd, std::uint32_t imm) { emit({Op::Movi, rd, 0, imm}); }
void Assembler::mov(Reg rd, Reg rs) { emit({Op::Mov, rd, rs, 0}); }
void Assembler::add(Reg rd, Reg rs) { emit({Op::Add, rd, rs, 0}); }
void Assembler::sub(Reg rd, Reg rs) { emit({Op::Sub, rd, rs, 0}); }
void Assembler::mul(Reg rd, Reg rs) { emit({Op::Mul, rd, rs, 0}); }
void Assembler::div(Reg rd, Reg rs) { emit({Op::Div, rd, rs, 0}); }
void Assembler::mod(Reg rd, Reg rs) { emit({Op::Mod, rd, rs, 0}); }
void Assembler::and_(Reg rd, Reg rs) { emit({Op::And, rd, rs, 0}); }
void Assembler::or_(Reg rd, Reg rs) { emit({Op::Or, rd, rs, 0}); }
void Assembler::xor_(Reg rd, Reg rs) { emit({Op::Xor, rd, rs, 0}); }
void Assembler::shl(Reg rd, Reg rs) { emit({Op::Shl, rd, rs, 0}); }
void Assembler::shr(Reg rd, Reg rs) { emit({Op::Shr, rd, rs, 0}); }
void Assembler::addi(Reg rd, std::uint32_t imm) { emit({Op::Addi, rd, 0, imm}); }
void Assembler::subi(Reg rd, std::uint32_t imm) { emit({Op::Subi, rd, 0, imm}); }
void Assembler::muli(Reg rd, std::uint32_t imm) { emit({Op::Muli, rd, 0, imm}); }
void Assembler::andi(Reg rd, std::uint32_t imm) { emit({Op::Andi, rd, 0, imm}); }
void Assembler::ori(Reg rd, std::uint32_t imm) { emit({Op::Ori, rd, 0, imm}); }
void Assembler::xori(Reg rd, std::uint32_t imm) { emit({Op::Xori, rd, 0, imm}); }
void Assembler::shli(Reg rd, std::uint32_t imm) { emit({Op::Shli, rd, 0, imm}); }
void Assembler::shri(Reg rd, std::uint32_t imm) { emit({Op::Shri, rd, 0, imm}); }
void Assembler::not_(Reg rd) { emit({Op::Not, rd, 0, 0}); }
void Assembler::neg(Reg rd) { emit({Op::Neg, rd, 0, 0}); }
void Assembler::cmp(Reg rd, Reg rs) { emit({Op::Cmp, rd, rs, 0}); }
void Assembler::cmpi(Reg rd, std::uint32_t imm) { emit({Op::Cmpi, rd, 0, imm}); }

void Assembler::load(Reg rd, Reg rs, std::int32_t off) {
  emit({Op::Load, rd, rs, static_cast<std::uint32_t>(off)});
}
void Assembler::store(Reg rs_base, std::int32_t off, Reg rd_value) {
  emit({Op::Store, rd_value, rs_base, static_cast<std::uint32_t>(off)});
}
void Assembler::loadb(Reg rd, Reg rs, std::int32_t off) {
  emit({Op::Loadb, rd, rs, static_cast<std::uint32_t>(off)});
}
void Assembler::storeb(Reg rs_base, std::int32_t off, Reg rd_value) {
  emit({Op::Storeb, rd_value, rs_base, static_cast<std::uint32_t>(off)});
}
void Assembler::push(Reg r) { emit({Op::Push, r, 0, 0}); }
void Assembler::pop(Reg r) { emit({Op::Pop, r, 0, 0}); }

void Assembler::lea(Reg rd, const std::string& sym) {
  emit({Op::Lea, rd, 0, 0}, scoped(sym));
}

void Assembler::call(const std::string& fn) { emit({Op::Call, 0, 0, 0}, fn); }
void Assembler::callr(Reg r) { emit({Op::Callr, r, 0, 0}); }
void Assembler::ret() { emit({Op::Ret}); }
void Assembler::jmp(const std::string& lbl) { emit({Op::Jmp, 0, 0, 0}, scoped(lbl)); }
void Assembler::jz(const std::string& lbl) { emit({Op::Jz, 0, 0, 0}, scoped(lbl)); }
void Assembler::jnz(const std::string& lbl) { emit({Op::Jnz, 0, 0, 0}, scoped(lbl)); }
void Assembler::jlt(const std::string& lbl) { emit({Op::Jlt, 0, 0, 0}, scoped(lbl)); }
void Assembler::jle(const std::string& lbl) { emit({Op::Jle, 0, 0, 0}, scoped(lbl)); }
void Assembler::jgt(const std::string& lbl) { emit({Op::Jgt, 0, 0, 0}, scoped(lbl)); }
void Assembler::jge(const std::string& lbl) { emit({Op::Jge, 0, 0, 0}, scoped(lbl)); }
void Assembler::jmpr(Reg r) { emit({Op::Jmpr, r, 0, 0}); }

void Assembler::raw(std::vector<std::uint8_t> bytes) {
  cur().items.push_back(Item{{}, {}, std::move(bytes), true});
}

void Assembler::rodata_cstr(const std::string& sym, const std::string& value) {
  std::vector<std::uint8_t> bytes(value.begin(), value.end());
  bytes.push_back(0);
  objects_.push_back(DataObj{sym, binary::SectionKind::Rodata, std::move(bytes), 0, {}});
}

void Assembler::rodata_bytes(const std::string& sym, std::vector<std::uint8_t> bytes) {
  objects_.push_back(DataObj{sym, binary::SectionKind::Rodata, std::move(bytes), 0, {}});
}

void Assembler::data_words(const std::string& sym, const std::vector<std::uint32_t>& words) {
  std::vector<std::uint8_t> bytes;
  for (auto w : words) util::put_u32(bytes, w);
  objects_.push_back(DataObj{sym, binary::SectionKind::Data, std::move(bytes), 0, {}});
}

void Assembler::data_bytes(const std::string& sym, std::vector<std::uint8_t> bytes) {
  objects_.push_back(DataObj{sym, binary::SectionKind::Data, std::move(bytes), 0, {}});
}

void Assembler::data_ptr(const std::string& sym, const std::string& target) {
  DataObj obj{sym, binary::SectionKind::Data, {0, 0, 0, 0}, 0, {}};
  obj.ptr_slots.emplace_back(0u, target);
  objects_.push_back(std::move(obj));
}

void Assembler::bss(const std::string& sym, std::uint32_t size) {
  objects_.push_back(DataObj{sym, binary::SectionKind::Bss, {}, size, {}});
}

bool Assembler::has_func(const std::string& name) const {
  for (const auto& f : funcs_) {
    if (f.name == name) return true;
  }
  return false;
}

binary::Image Assembler::link(const std::string& entry) {
  binary::Image img;
  img.name = program_name_;
  img.relocatable = true;
  // Image::section() creates sections on demand with push_back; reserve so
  // the references we hold below survive.
  img.sections.reserve(8);

  // ---- pass 1: lay out text (assign an address to every item) ----
  std::map<std::string, std::uint32_t> addr_of;  // functions, labels, data
  std::uint32_t pc = binary::section_base(binary::SectionKind::Text);

  struct Placed {
    const Item* item;
    std::uint32_t addr;
  };
  std::vector<Placed> placed;

  for (const auto& f : funcs_) {
    if (addr_of.count(f.name) != 0) throw Error("tasm: duplicate symbol " + f.name);
    addr_of[f.name] = pc;
    const std::uint32_t fstart = pc;
    std::vector<std::uint32_t> item_addr(f.items.size() + 1, 0);
    for (std::size_t i = 0; i < f.items.size(); ++i) {
      item_addr[i] = pc;
      const Item& it = f.items[i];
      pc += it.is_raw ? static_cast<std::uint32_t>(it.raw_bytes.size())
                      : static_cast<std::uint32_t>(isa::size_of(it.ins.op));
      placed.push_back(Placed{&it, item_addr[i]});
    }
    item_addr[f.items.size()] = pc;
    for (const auto& [lbl, idx] : f.labels) {
      if (addr_of.count(lbl) != 0) throw Error("tasm: duplicate label " + lbl);
      addr_of[lbl] = item_addr[idx];
    }
    img.symbols.push_back(
        binary::Symbol{f.name, fstart, pc - fstart, binary::SymbolKind::Function});
  }
  if (pc - binary::section_base(binary::SectionKind::Text) >
      binary::section_limit(binary::SectionKind::Text)) {
    throw Error("tasm: .text exceeds section window");
  }

  // ---- pass 1b: lay out data objects ----
  std::uint32_t ro = binary::section_base(binary::SectionKind::Rodata);
  std::uint32_t da = binary::section_base(binary::SectionKind::Data);
  std::uint32_t bs = binary::section_base(binary::SectionKind::Bss);
  for (const auto& obj : objects_) {
    if (addr_of.count(obj.name) != 0) throw Error("tasm: duplicate symbol " + obj.name);
    std::uint32_t* cursor = nullptr;
    switch (obj.section) {
      case binary::SectionKind::Rodata: cursor = &ro; break;
      case binary::SectionKind::Data: cursor = &da; break;
      case binary::SectionKind::Bss: cursor = &bs; break;
      default: throw Error("tasm: bad data section");
    }
    // Word-align every object.
    *cursor = (*cursor + 3u) & ~3u;
    addr_of[obj.name] = *cursor;
    const std::uint32_t sz = obj.section == binary::SectionKind::Bss
                                 ? obj.bss_size
                                 : static_cast<std::uint32_t>(obj.bytes.size());
    img.symbols.push_back(binary::Symbol{obj.name, *cursor, sz, binary::SymbolKind::Object});
    *cursor += sz;
  }

  // ---- pass 2: emit text with resolved addresses and relocations ----
  auto resolve = [&](const std::string& sym) -> std::uint32_t {
    auto it = addr_of.find(sym);
    if (it == addr_of.end()) throw Error("tasm: undefined symbol " + sym + " in " + program_name_);
    return it->second;
  };

  auto& text = img.section(binary::SectionKind::Text);
  for (const auto& p : placed) {
    const Item& it = *p.item;
    if (it.is_raw) {
      util::put_bytes(text.bytes, it.raw_bytes);
      continue;
    }
    isa::Instr ins = it.ins;
    bool is_addr_field = false;
    if (!it.symref.empty()) {
      ins.imm = resolve(it.symref);
      is_addr_field = true;
    }
    const std::size_t before = text.bytes.size();
    isa::encode(ins, text.bytes);
    if (is_addr_field) {
      const std::uint32_t slot =
          p.addr + static_cast<std::uint32_t>(isa::imm_offset(ins.op));
      img.relocs.push_back(binary::Reloc{slot});
      (void)before;
    }
  }

  // ---- pass 2b: emit data sections ----
  auto& rodata = img.section(binary::SectionKind::Rodata);
  auto& data = img.section(binary::SectionKind::Data);
  auto& bss_sec = img.section(binary::SectionKind::Bss);
  for (const auto& obj : objects_) {
    const std::uint32_t addr = addr_of[obj.name];
    binary::Section* sec = nullptr;
    switch (obj.section) {
      case binary::SectionKind::Rodata: sec = &rodata; break;
      case binary::SectionKind::Data: sec = &data; break;
      case binary::SectionKind::Bss: sec = &bss_sec; break;
      default: throw Error("tasm: bad data section");
    }
    if (obj.section == binary::SectionKind::Bss) {
      bss_sec.bss_size = addr + obj.bss_size - bss_sec.vaddr();
      continue;
    }
    // Pad up to the object's (aligned) offset.
    const std::uint32_t off = addr - sec->vaddr();
    if (sec->bytes.size() < off) sec->bytes.resize(off, 0);
    std::vector<std::uint8_t> bytes = obj.bytes;
    for (const auto& [slot_off, target] : obj.ptr_slots) {
      util::set_u32(bytes, slot_off, resolve(target));
      img.relocs.push_back(binary::Reloc{addr + slot_off});
    }
    util::put_bytes(sec->bytes, bytes);
  }

  img.entry = resolve(entry);
  return img;
}

}  // namespace asc::tasm
