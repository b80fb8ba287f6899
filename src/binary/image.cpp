#include "binary/image.h"

#include <algorithm>

#include "util/error.h"
#include "util/hex.h"

namespace asc::binary {

std::uint32_t section_base(SectionKind kind) {
  switch (kind) {
    case SectionKind::Text: return 0x08048000;
    case SectionKind::Rodata: return 0x08248000;
    case SectionKind::Data: return 0x08348000;
    case SectionKind::AsData: return 0x08448000;
    case SectionKind::Bss: return 0x08548000;
  }
  throw Error("section_base: bad kind");
}

std::uint32_t section_limit(SectionKind kind) {
  switch (kind) {
    case SectionKind::Text: return 0x08248000 - 0x08048000;
    case SectionKind::Rodata: return 0x08348000 - 0x08248000;
    case SectionKind::Data: return 0x08448000 - 0x08348000;
    case SectionKind::AsData: return 0x08548000 - 0x08448000;
    case SectionKind::Bss: return 0x08648000 - 0x08548000;
  }
  throw Error("section_limit: bad kind");
}

std::string section_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::Text: return ".text";
    case SectionKind::Rodata: return ".rodata";
    case SectionKind::Data: return ".data";
    case SectionKind::AsData: return ".asdata";
    case SectionKind::Bss: return ".bss";
  }
  return "?";
}

const Section* Image::find_section(SectionKind kind) const {
  for (const auto& s : sections) {
    if (s.kind == kind) return &s;
  }
  return nullptr;
}

Section& Image::section(SectionKind kind) {
  for (auto& s : sections) {
    if (s.kind == kind) return s;
  }
  sections.push_back(Section{kind, {}, 0});
  return sections.back();
}

const Symbol* Image::find_symbol(const std::string& sym_name) const {
  for (const auto& s : symbols) {
    if (s.name == sym_name) return &s;
  }
  return nullptr;
}

const Symbol* Image::function_at(std::uint32_t addr) const {
  const Symbol* best = nullptr;
  for (const auto& s : symbols) {
    if (s.kind != SymbolKind::Function) continue;
    if (addr >= s.addr && addr < s.addr + s.size) {
      if (best == nullptr || s.addr > best->addr) best = &s;
    }
  }
  return best;
}

std::optional<SectionKind> Image::section_containing(std::uint32_t addr) const {
  for (const auto& s : sections) {
    if (addr >= s.vaddr() && addr < s.vaddr() + s.size()) return s.kind;
  }
  return std::nullopt;
}

std::optional<std::string> Image::cstring_at(std::uint32_t addr) const {
  for (const auto& s : sections) {
    if (s.kind == SectionKind::Bss) continue;
    if (addr < s.vaddr() || addr >= s.vaddr() + s.size()) continue;
    std::string out;
    for (std::uint32_t i = addr - s.vaddr(); i < s.bytes.size(); ++i) {
      if (s.bytes[i] == 0) return out;
      out.push_back(static_cast<char>(s.bytes[i]));
    }
    return std::nullopt;  // unterminated
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> Image::bytes_at(std::uint32_t addr,
                                                         std::uint32_t n) const {
  for (const auto& s : sections) {
    if (s.kind == SectionKind::Bss) continue;
    if (addr < s.vaddr() || addr + n > s.vaddr() + s.size()) continue;
    const std::uint32_t off = addr - s.vaddr();
    return std::vector<std::uint8_t>(s.bytes.begin() + off, s.bytes.begin() + off + n);
  }
  return std::nullopt;
}

namespace {
constexpr std::uint32_t kMagic = 0x30455854;  // "TXE0"

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  util::put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (char c : s) out.push_back(static_cast<std::uint8_t>(c));
}

std::string get_string(std::span<const std::uint8_t> buf, std::size_t& off) {
  const std::uint32_t n = util::get_u32(buf, off);
  off += 4;
  if (off + n > buf.size()) throw DecodeError("TXE: truncated string");
  std::string s(reinterpret_cast<const char*>(buf.data() + off), n);
  off += n;
  return s;
}
}  // namespace

std::vector<std::uint8_t> Image::serialize() const {
  std::vector<std::uint8_t> out;
  util::put_u32(out, kMagic);
  put_string(out, name);
  util::put_u32(out, entry);
  out.push_back(relocatable ? 1 : 0);
  out.push_back(authenticated ? 1 : 0);
  util::put_u16(out, program_id);

  util::put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    out.push_back(static_cast<std::uint8_t>(s.kind));
    util::put_u32(out, s.bss_size);
    util::put_u32(out, static_cast<std::uint32_t>(s.bytes.size()));
    util::put_bytes(out, s.bytes);
  }

  util::put_u32(out, static_cast<std::uint32_t>(symbols.size()));
  for (const auto& s : symbols) {
    put_string(out, s.name);
    util::put_u32(out, s.addr);
    util::put_u32(out, s.size);
    out.push_back(static_cast<std::uint8_t>(s.kind));
  }

  util::put_u32(out, static_cast<std::uint32_t>(relocs.size()));
  for (const auto& r : relocs) util::put_u32(out, r.slot);
  return out;
}

Image Image::deserialize(std::span<const std::uint8_t> file) {
  std::size_t off = 0;
  if (util::get_u32(file, off) != kMagic) throw DecodeError("TXE: bad magic");
  off += 4;
  Image img;
  img.name = get_string(file, off);
  img.entry = util::get_u32(file, off);
  off += 4;
  if (off + 4 > file.size()) throw DecodeError("TXE: truncated header");
  img.relocatable = file[off++] != 0;
  img.authenticated = file[off++] != 0;
  img.program_id = util::get_u16(file, off);
  off += 2;

  const std::uint32_t nsec = util::get_u32(file, off);
  off += 4;
  for (std::uint32_t i = 0; i < nsec; ++i) {
    if (off >= file.size()) throw DecodeError("TXE: truncated section");
    Section s;
    s.kind = static_cast<SectionKind>(file[off++]);
    if (static_cast<std::uint8_t>(s.kind) > 4) throw DecodeError("TXE: bad section kind");
    s.bss_size = util::get_u32(file, off);
    off += 4;
    const std::uint32_t n = util::get_u32(file, off);
    off += 4;
    if (off + n > file.size()) throw DecodeError("TXE: truncated section bytes");
    s.bytes.assign(file.begin() + off, file.begin() + off + n);
    off += n;
    if (s.size() > section_limit(s.kind)) throw DecodeError("TXE: section exceeds window");
    img.sections.push_back(std::move(s));
  }

  const std::uint32_t nsym = util::get_u32(file, off);
  off += 4;
  for (std::uint32_t i = 0; i < nsym; ++i) {
    Symbol s;
    s.name = get_string(file, off);
    s.addr = util::get_u32(file, off);
    off += 4;
    s.size = util::get_u32(file, off);
    off += 4;
    if (off >= file.size()) throw DecodeError("TXE: truncated symbol");
    s.kind = static_cast<SymbolKind>(file[off++]);
    img.symbols.push_back(std::move(s));
  }

  const std::uint32_t nrel = util::get_u32(file, off);
  off += 4;
  for (std::uint32_t i = 0; i < nrel; ++i) {
    img.relocs.push_back(Reloc{util::get_u32(file, off)});
    off += 4;
  }
  return img;
}

}  // namespace asc::binary
