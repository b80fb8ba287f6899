#include "installer/rewriter.h"

#include <algorithm>
#include <map>

#include "isa/encode.h"
#include "policy/authstring.h"
#include "util/error.h"
#include "util/executor.h"
#include "util/hex.h"

namespace asc::installer {

namespace {

using analysis::IrFunction;
using analysis::IrInstr;
using analysis::RefKind;
using binary::SectionKind;

/// Allocator for the .asdata section. Strictly serial, so addresses are
/// identical at any job count. Each AS blob is laid out as {len, zero MAC,
/// content} and recorded for the signer.
class AsDataBuilder {
 public:
  /// Reserve `n` bytes; returns the virtual address of the first byte.
  std::uint32_t reserve(std::uint32_t n) {
    const std::uint32_t addr = binary::section_base(SectionKind::AsData) +
                               static_cast<std::uint32_t>(bytes_.size());
    bytes_.resize(bytes_.size() + n, 0);
    if (bytes_.size() > binary::section_limit(SectionKind::AsData)) {
      throw Error("rewriter: .asdata exceeds section window");
    }
    return addr;
  }

  /// Append an AS blob; returns the BODY address.
  std::uint32_t add_as(std::span<const std::uint8_t> content) {
    if (content.size() > policy::kAsMaxLength) throw Error("authenticated string too long");
    return append(content, 0);
  }

  /// Deduplicated AS for a string constant. The AS length covers the string
  /// WITHOUT the NUL (the kernel MACs the logical string) while the stored
  /// content keeps NUL termination for the guest.
  std::uint32_t add_string_as(const std::string& s) {
    auto [it, fresh] = string_cache_.try_emplace(s, 0);
    if (fresh) {
      it->second = append({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, 1);
    }
    return it->second;
  }

  void write(std::uint32_t addr, std::span<const std::uint8_t> data) {
    const std::uint32_t off = addr - binary::section_base(SectionKind::AsData);
    if (off + data.size() > bytes_.size()) throw Error("rewriter: .asdata write out of range");
    std::copy(data.begin(), data.end(), bytes_.begin() + off);
  }

  /// Every AS blob laid out, in allocation order (one per unique string).
  std::vector<ManifestAsRecord> take_records() { return std::move(records_); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  /// {len, zero MAC, content} plus `pad` zero bytes; returns the body address.
  std::uint32_t append(std::span<const std::uint8_t> content, std::uint32_t pad) {
    const auto len = static_cast<std::uint32_t>(content.size());
    const std::uint32_t body = reserve(policy::kAsHeaderSize + len + pad) + policy::kAsHeaderSize;
    const std::uint32_t off = body - binary::section_base(SectionKind::AsData);
    util::set_u32(bytes_, off - policy::kAsHeaderSize, len);
    std::copy(content.begin(), content.end(), bytes_.begin() + off);
    records_.push_back(ManifestAsRecord{body, len});
    return body;
  }

  std::vector<std::uint8_t> bytes_;
  std::vector<ManifestAsRecord> records_;
  std::map<std::string, std::uint32_t> string_cache_;
};

}  // namespace

InstallResult rewrite_with_policies(const binary::Image& input, GeneratedPolicies gp,
                                    const InstallOptions& options) {
  if (!gp.holes.empty()) {
    throw Error("rewriter: policy template has " + std::to_string(gp.holes.size()) +
                " unfilled holes (metapolicy not satisfied)");
  }
  util::Executor& ex = util::resolve_executor(options.executor);
  analysis::ProgramIr& ir = gp.ir;

  auto compose = [&](std::uint32_t local) {
    return policy::make_block_id(options.program_id, local, options.unique_block_ids);
  };

  AsDataBuilder asdata;

  // ---- allocate policy state in .asdata (writable in this VM) ----
  const std::uint32_t state_addr = asdata.reserve(policy::kPolicyStateSize);

  // ---- per-site .asdata allocation: strings, patterns, pred sets, MAC slots ----
  // Serial: address assignment must not depend on scheduling. String LEAs
  // are retargeted here too.
  const std::size_t nsites = gp.scan.sites.size();
  struct SiteAlloc {
    std::array<std::uint32_t, os::kMaxSyscallArgs> as_body{};  // AS body addr per String arg
    std::uint32_t pred_body = 0;
    std::uint32_t pred_len = 0;
    std::uint32_t mac_slot = 0;
  };
  std::vector<SiteAlloc> allocs(nsites);
  bool any_pattern = false;

  for (std::size_t si = 0; si < nsites; ++si) {
    policy::SyscallPolicy& pol = gp.policies[si];
    const analysis::SyscallSite& site = gp.scan.sites[si];
    SiteAlloc& al = allocs[si];
    std::vector<policy::PatternRef> pattern_refs;
    for (int a = 0; a < pol.arity; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      const policy::ArgPolicy& arg = pol.args[idx];
      if (arg.kind == policy::ArgPolicy::Kind::String) {
        // Retarget the LEAs the scan traced this argument to. Without one,
        // the AS address could never reach the call.
        const std::vector<std::size_t>& leas = site.args[idx].str_leas;
        if (leas.empty()) {
          throw Error("rewriter: string policy on " + std::string(os::signature(pol.sys).name) +
                      " argument " + std::to_string(a) +
                      ", which the analysis did not trace to a string constant");
        }
        al.as_body[idx] = asdata.add_string_as(arg.str);
        for (std::size_t d : leas) ir.funcs[site.func].instrs[d].ref_addr = al.as_body[idx];
      } else if (arg.kind == policy::ArgPolicy::Kind::Pattern) {
        any_pattern = true;
        const std::uint32_t body = asdata.add_as(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(arg.str.data()), arg.str.size()));
        pattern_refs.push_back(policy::PatternRef{static_cast<std::uint32_t>(a), body});
      }
    }
    // Compose block ids now.
    pol.block_id = compose(pol.block_id);
    for (auto& p : pol.predecessors) p = compose(p);
    for (auto& c : pol.fd_sources) c = compose(c);
    if (pol.control_flow || !pattern_refs.empty() || !pol.fd_sources.empty()) {
      pol.control_flow = true;  // the blob rides on the control-flow tuple
      const auto blob = policy::encode_pred_set(pol.predecessors, pol.fd_sources, pattern_refs);
      al.pred_body = asdata.add_as(blob);
      al.pred_len = static_cast<std::uint32_t>(blob.size());
    }
    al.mac_slot = asdata.reserve(16);
  }

  InstallResult result;
  result.warnings = std::move(gp.warnings);
  result.inline_report = std::move(gp.inline_report);
  result.manifest.program_id = options.program_id;
  result.manifest.unique_block_ids = options.unique_block_ids;
  result.manifest.state_addr = state_addr;
  result.manifest.start_block = compose(policy::kStartBlockLocal);
  result.manifest.as_records = asdata.take_records();
  result.manifest.calls.resize(nsites);

  // ---- locate the guest hint buffer if patterns are used ----
  std::uint32_t hint_buf_addr = 0;
  if (any_pattern) {
    const binary::Symbol* sym = input.find_symbol(kHintBufferSymbol);
    if (sym == nullptr) {
      throw Error(std::string("rewriter: pattern policies require the guest symbol ") +
                  kHintBufferSymbol);
    }
    hint_buf_addr = sym->addr;
  }

  // ---- insert extra-arg setup ----
  // Group sites by function; rebuild each function's instruction list once.
  // Functions are independent (each task rebuilds its own f.instrs and
  // updates only its own sites' instruction indexes), so the rebuild fans
  // out over the pool.
  std::map<std::size_t, std::vector<std::size_t>> sites_by_func;
  for (std::size_t si = 0; si < nsites; ++si) {
    sites_by_func[gp.scan.sites[si].func].push_back(si);
  }
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> func_sites(
      sites_by_func.begin(), sites_by_func.end());

  ex.parallel_for(func_sites.size(), [&](std::size_t k) {
    const std::size_t fi = func_sites[k].first;
    const std::vector<std::size_t>& site_ids = func_sites[k].second;
    IrFunction& f = ir.funcs[fi];

    // Insert the extra-argument setup before each SYSCALL of this function.
    std::vector<IrInstr> out;
    out.reserve(f.instrs.size() + site_ids.size() * 6);
    std::vector<std::size_t> new_index(f.instrs.size());
    std::map<std::size_t, std::size_t> site_at_instr;  // old instr idx -> site idx
    for (std::size_t si : site_ids) site_at_instr[gp.scan.sites[si].instr] = si;

    for (std::size_t i = 0; i < f.instrs.size(); ++i) {
      auto hit = site_at_instr.find(i);
      if (hit != site_at_instr.end()) {
        const std::size_t si = hit->second;
        const policy::SyscallPolicy& pol = gp.policies[si];
        const SiteAlloc& al = allocs[si];
        auto emit = [&](IrInstr instr) { out.push_back(instr); };
        IrInstr mi;
        mi.ins = {isa::Op::Movi, isa::kRegPolicyDescriptor, 0, pol.descriptor().bits()};
        emit(mi);
        mi.ins = {isa::Op::Movi, isa::kRegBlockId, 0, pol.block_id};
        emit(mi);
        if (pol.control_flow) {
          IrInstr lp;
          lp.ins = {isa::Op::Lea, isa::kRegPredSet, 0, 0};
          lp.ref = RefKind::DataAddr;
          lp.ref_addr = al.pred_body;
          emit(lp);
          lp.ins = {isa::Op::Lea, isa::kRegStatePtr, 0, 0};
          lp.ref_addr = state_addr;
          emit(lp);
        }
        IrInstr lm;
        lm.ins = {isa::Op::Lea, isa::kRegCallMac, 0, 0};
        lm.ref = RefKind::DataAddr;
        lm.ref_addr = al.mac_slot;
        emit(lm);
        bool has_pattern = false;
        for (int a = 0; a < pol.arity; ++a) {
          if (pol.args[static_cast<std::size_t>(a)].kind == policy::ArgPolicy::Kind::Pattern) {
            has_pattern = true;
          }
        }
        if (has_pattern) {
          IrInstr lh;
          lh.ins = {isa::Op::Lea, isa::kRegHintPtr, 0, 0};
          lh.ref = RefKind::DataAddr;
          lh.ref_addr = hint_buf_addr;
          emit(lh);
        }
      }
      new_index[i] = out.size();
      out.push_back(f.instrs[i]);
    }
    // Remap CodeLocal refs and site instruction indexes.
    for (auto& instr : out) {
      if (instr.ref == RefKind::CodeLocal) instr.ref_index = new_index[instr.ref_index];
    }
    for (std::size_t si : site_ids) {
      gp.scan.sites[si].instr = new_index[gp.scan.sites[si].instr];
    }
    f.instrs = std::move(out);
  });

  // ---- layout pass: assign final addresses ----
  std::vector<std::uint32_t> func_addr(ir.funcs.size(), 0);
  std::vector<std::vector<std::uint32_t>> instr_addr(ir.funcs.size());
  std::uint32_t pc = binary::section_base(SectionKind::Text);
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    const IrFunction& f = ir.funcs[fi];
    if (f.inlined_away) continue;
    func_addr[fi] = pc;
    instr_addr[fi].resize(f.instrs.size());
    if (f.opaque) {
      // Opaque functions are copied byte-for-byte from the input (they were
      // never decoded); size comes from the original symbol.
      const binary::Symbol* sym = input.find_symbol(f.name);
      if (sym == nullptr) throw Error("rewriter: lost symbol for opaque function");
      pc += sym->size;
      continue;
    }
    for (std::size_t i = 0; i < f.instrs.size(); ++i) {
      instr_addr[fi][i] = pc;
      pc += static_cast<std::uint32_t>(isa::size_of(f.instrs[i].ins.op));
    }
  }
  if (pc - binary::section_base(SectionKind::Text) > binary::section_limit(SectionKind::Text)) {
    throw Error("rewriter: .text exceeds section window");
  }

  // ---- emit .text ----
  std::vector<std::uint8_t> text;
  text.reserve(pc - binary::section_base(SectionKind::Text));
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    const IrFunction& f = ir.funcs[fi];
    if (f.inlined_away) continue;
    if (f.opaque) {
      const binary::Symbol* sym = input.find_symbol(f.name);
      const auto bytes = input.bytes_at(sym->addr, sym->size);
      if (!bytes.has_value()) throw Error("rewriter: cannot copy opaque function bytes");
      // NOTE: opaque functions may contain absolute self-references that
      // would be stale after relocation; the toy libc only uses
      // position-relative tricks inside opaque stubs, but we verify no
      // relocation slot of the input falls inside an opaque function whose
      // address changed.
      if (sym->addr != func_addr[fi]) {
        for (const auto& r : input.relocs) {
          if (r.slot >= sym->addr && r.slot < sym->addr + sym->size) {
            throw Error("rewriter: opaque function " + f.name +
                        " has relocations but moved; cannot rewrite safely");
          }
        }
      }
      text.insert(text.end(), bytes->begin(), bytes->end());
      continue;
    }
    for (std::size_t i = 0; i < f.instrs.size(); ++i) {
      isa::Instr ins = f.instrs[i].ins;
      switch (f.instrs[i].ref) {
        case RefKind::None:
          break;
        case RefKind::CodeLocal:
          ins.imm = instr_addr[fi][f.instrs[i].ref_index];
          break;
        case RefKind::FuncEntry:
          ins.imm = func_addr[f.instrs[i].ref_index];
          break;
        case RefKind::DataAddr:
          ins.imm = f.instrs[i].ref_addr;
          break;
      }
      isa::encode(ins, text);
    }
  }

  // ---- build the output image ----
  binary::Image& out = result.image;
  out.sections.reserve(8);  // section() grows the vector; see tasm::link
  out.name = input.name;
  out.relocatable = false;
  out.authenticated = true;
  out.program_id = options.program_id;
  out.section(SectionKind::Text).bytes = std::move(text);
  if (const auto* s = input.find_section(SectionKind::Rodata)) out.sections.push_back(*s);
  if (const auto* s = input.find_section(SectionKind::Data)) out.sections.push_back(*s);
  if (const auto* s = input.find_section(SectionKind::Bss)) out.sections.push_back(*s);

  // Retarget data-resident code pointers.
  for (const auto& [slot, target_func] : ir.data_code_ptrs) {
    const auto sk = out.section_containing(slot);
    if (!sk.has_value()) continue;
    auto& sec = out.section(*sk);
    util::set_u32(sec.bytes, slot - sec.vaddr(), func_addr[target_func]);
  }

  // Symbols: functions at new addresses; data objects unchanged.
  for (std::size_t fi = 0; fi < ir.funcs.size(); ++fi) {
    const IrFunction& f = ir.funcs[fi];
    if (f.inlined_away) continue;
    std::uint32_t size = 0;
    if (f.opaque) {
      size = input.find_symbol(f.name)->size;
    } else if (!f.instrs.empty()) {
      const std::size_t lastix = f.instrs.size() - 1;
      size = instr_addr[fi][lastix] +
             static_cast<std::uint32_t>(isa::size_of(f.instrs[lastix].ins.op)) - func_addr[fi];
    }
    out.symbols.push_back(
        binary::Symbol{f.name, func_addr[fi], size, binary::SymbolKind::Function});
  }
  for (const auto& s : input.symbols) {
    if (s.kind == binary::SymbolKind::Object) out.symbols.push_back(s);
  }
  out.entry = func_addr[ir.entry_func];

  // ---- final call sites and call-MAC messages ----
  // Each message is encoded with its embedded AS MAC fields zero, and its
  // patch list binds each field to the AS whose MAC the signer splices in:
  // AS args in ascending order, then the predecessor set, the order of
  // embedded_mac_offsets.
  for (std::size_t si = 0; si < nsites; ++si) {
    policy::SyscallPolicy& pol = gp.policies[si];
    const analysis::SyscallSite& site = gp.scan.sites[si];
    const SiteAlloc& al = allocs[si];
    pol.call_site = instr_addr[site.func][site.instr];

    policy::EncodedPolicyInputs in;
    in.sysno = pol.sysno;
    in.descriptor = pol.descriptor();
    in.call_site = pol.call_site;
    in.block_id = pol.block_id;
    in.arity = pol.arity;
    std::vector<std::uint32_t> bodies;
    for (int a = 0; a < pol.arity; ++a) {
      const auto idx = static_cast<std::size_t>(a);
      const policy::ArgPolicy& arg = pol.args[idx];
      if (arg.kind == policy::ArgPolicy::Kind::Const) in.const_values[idx] = arg.value;
      if (arg.kind == policy::ArgPolicy::Kind::String) {
        in.as_args[idx] = {al.as_body[idx], static_cast<std::uint32_t>(arg.str.size()), {}};
        bodies.push_back(al.as_body[idx]);
      }
    }
    if (pol.control_flow) {
      in.pred_set = {al.pred_body, al.pred_len, {}};
      in.lb_ptr = state_addr;
      bodies.push_back(al.pred_body);
    }
    ManifestCallRecord& rec = result.manifest.calls[si];
    rec.mac_slot = al.mac_slot;
    rec.message = policy::encode_policy(in);
    const std::vector<std::size_t> mac_offs = policy::embedded_mac_offsets(in);
    for (std::size_t k = 0; k < mac_offs.size(); ++k) {
      rec.patches.push_back(ManifestPatch{static_cast<std::uint32_t>(mac_offs[k]), bodies[k]});
    }
  }

  // ---- the policy state starts at the start block; its MAC is signed ----
  {
    std::vector<std::uint8_t> last_block;
    util::put_u32(last_block, result.manifest.start_block);
    asdata.write(state_addr, last_block);
  }

  out.section(SectionKind::AsData).bytes = asdata.take();
  result.policies = std::move(gp.policies);
  return result;
}

}  // namespace asc::installer
