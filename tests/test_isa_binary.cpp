// TSA encode/decode and TXE image round-trips.
#include <gtest/gtest.h>

#include "binary/image.h"
#include "util/error.h"
#include "isa/decode.h"
#include "isa/disasm.h"
#include "isa/encode.h"
#include "util/rng.h"

namespace asc {
namespace {

using isa::Instr;
using isa::Op;

const Op kAllOps[] = {
    Op::Nop, Op::Halt, Op::Syscall, Op::Movi, Op::Mov, Op::Add, Op::Sub, Op::Mul, Op::Div,
    Op::Mod, Op::And, Op::Or, Op::Xor, Op::Shl, Op::Shr, Op::Addi, Op::Subi, Op::Muli,
    Op::Andi, Op::Ori, Op::Xori, Op::Shli, Op::Shri, Op::Not, Op::Neg, Op::Cmp, Op::Cmpi,
    Op::Load, Op::Store, Op::Loadb, Op::Storeb, Op::Push, Op::Pop, Op::Lea, Op::Call,
    Op::Callr, Op::Ret, Op::Jmp, Op::Jz, Op::Jnz, Op::Jlt, Op::Jle, Op::Jgt, Op::Jge,
    Op::Jmpr};

class IsaRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(IsaRoundTrip, EncodeDecode) {
  util::Rng rng(7 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 20; ++i) {
    Instr ins;
    ins.op = GetParam();
    switch (isa::format_of(ins.op)) {
      case isa::Fmt::None:
        break;
      case isa::Fmt::R:
        ins.rd = static_cast<isa::Reg>(rng.next_below(16));
        break;
      case isa::Fmt::RR:
        ins.rd = static_cast<isa::Reg>(rng.next_below(16));
        ins.rs = static_cast<isa::Reg>(rng.next_below(16));
        break;
      case isa::Fmt::RI:
        ins.rd = static_cast<isa::Reg>(rng.next_below(16));
        ins.imm = static_cast<std::uint32_t>(rng.next_u64());
        break;
      case isa::Fmt::Mem:
        ins.rd = static_cast<isa::Reg>(rng.next_below(16));
        ins.rs = static_cast<isa::Reg>(rng.next_below(16));
        ins.imm = static_cast<std::uint32_t>(rng.next_u64());
        break;
      case isa::Fmt::Addr:
        ins.imm = static_cast<std::uint32_t>(rng.next_u64());
        break;
    }
    const auto bytes = isa::encode_one(ins);
    EXPECT_EQ(bytes.size(), isa::size_of(ins.op));
    const auto dec = isa::decode(bytes, 0);
    EXPECT_EQ(dec.ins, ins) << isa::to_string(ins);
    EXPECT_EQ(dec.size, bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, IsaRoundTrip, ::testing::ValuesIn(kAllOps),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           return isa::mnemonic(info.param);
                         });

TEST(IsaDecode, RejectsInvalidOpcode) {
  std::vector<std::uint8_t> bytes{0xff, 0x00};
  EXPECT_THROW(isa::decode(bytes, 0), DecodeError);
  EXPECT_FALSE(isa::try_decode(bytes, 0).has_value());
}

TEST(IsaDecode, RejectsTruncatedInstruction) {
  const auto full = isa::encode_one({Op::Movi, 3, 0, 0x11223344});
  std::vector<std::uint8_t> cut(full.begin(), full.end() - 1);
  EXPECT_THROW(isa::decode(cut, 0), DecodeError);
}

TEST(IsaDecode, RejectsBadRegister) {
  std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(Op::Push), 16};
  EXPECT_THROW(isa::decode(bytes, 0), DecodeError);
}

TEST(Image, SerializeDeserializeRoundTrip) {
  binary::Image img;
  img.name = "demo";
  img.entry = binary::section_base(binary::SectionKind::Text) + 4;
  img.relocatable = true;
  img.authenticated = false;
  img.program_id = 7;
  img.section(binary::SectionKind::Text).bytes = {1, 2, 3, 4, 5};
  img.section(binary::SectionKind::Rodata).bytes = {'h', 'i', 0};
  auto& bss = img.section(binary::SectionKind::Bss);
  bss.bss_size = 128;
  img.symbols.push_back({"main", img.entry, 5, binary::SymbolKind::Function});
  img.symbols.push_back({"msg", binary::section_base(binary::SectionKind::Rodata), 3,
                         binary::SymbolKind::Object});
  img.relocs.push_back({img.entry + 1});

  const auto file = img.serialize();
  const binary::Image back = binary::Image::deserialize(file);
  EXPECT_EQ(back.name, img.name);
  EXPECT_EQ(back.entry, img.entry);
  EXPECT_EQ(back.relocatable, img.relocatable);
  EXPECT_EQ(back.program_id, img.program_id);
  ASSERT_EQ(back.sections.size(), img.sections.size());
  EXPECT_EQ(back.find_section(binary::SectionKind::Text)->bytes,
            std::vector<std::uint8_t>({1, 2, 3, 4, 5}));
  EXPECT_EQ(back.find_section(binary::SectionKind::Bss)->bss_size, 128u);
  ASSERT_EQ(back.symbols.size(), 2u);
  EXPECT_EQ(back.symbols[0].name, "main");
  ASSERT_EQ(back.relocs.size(), 1u);
  EXPECT_EQ(back.relocs[0].slot, img.entry + 1);
}

TEST(Image, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> junk{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(binary::Image::deserialize(junk), DecodeError);
}

TEST(Image, CstringAt) {
  binary::Image img;
  img.section(binary::SectionKind::Rodata).bytes = {'a', 'b', 0, 'c', 'd'};
  const auto base = binary::section_base(binary::SectionKind::Rodata);
  EXPECT_EQ(img.cstring_at(base).value_or("?"), "ab");
  EXPECT_EQ(img.cstring_at(base + 1).value_or("?"), "b");
  EXPECT_FALSE(img.cstring_at(base + 3).has_value());  // unterminated
  EXPECT_FALSE(img.cstring_at(0x1000).has_value());
}

TEST(Image, FunctionAtFindsInnermost) {
  binary::Image img;
  const auto base = binary::section_base(binary::SectionKind::Text);
  img.symbols.push_back({"f", base, 10, binary::SymbolKind::Function});
  img.symbols.push_back({"g", base + 10, 6, binary::SymbolKind::Function});
  EXPECT_EQ(img.function_at(base + 3)->name, "f");
  EXPECT_EQ(img.function_at(base + 12)->name, "g");
  EXPECT_EQ(img.function_at(base + 16), nullptr);
}

}  // namespace
}  // namespace asc
