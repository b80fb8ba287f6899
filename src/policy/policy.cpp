#include "policy/policy.h"

#include <cstdio>

#include "util/error.h"
#include "util/hex.h"

namespace asc::policy {

std::uint32_t make_block_id(std::uint16_t program_id, std::uint32_t local_id, bool unique_ids) {
  if (!unique_ids) return local_id;
  return static_cast<std::uint32_t>(program_id) << 16 | (local_id & 0xffffu);
}

Descriptor SyscallPolicy::descriptor() const {
  Descriptor d;
  d.set_site();
  if (control_flow) d.set_control_flow();
  for (int i = 0; i < arity; ++i) {
    switch (args[static_cast<std::size_t>(i)].kind) {
      case ArgPolicy::Kind::Const:
      case ArgPolicy::Kind::MultiValue:
        // MultiValue is enforced as Const only when the policy was narrowed
        // to a single value; as a set it is advisory (Table 3 statistics)
        // unless the pattern mechanism encodes it. Here only single-valued
        // constants contribute to the descriptor.
        if (args[static_cast<std::size_t>(i)].kind == ArgPolicy::Kind::Const) {
          d.set_arg_constrained(i);
        }
        break;
      case ArgPolicy::Kind::String:
        d.set_arg_authenticated_string(i);
        break;
      case ArgPolicy::Kind::Pattern:
        d.set_arg_pattern(i);
        break;
      case ArgPolicy::Kind::Unconstrained:
        break;
    }
  }
  return d;
}

std::string SyscallPolicy::to_string() const {
  char buf[128];
  const auto& sig = os::signature(sys);
  std::snprintf(buf, sizeof buf, "Permit %s from location 0x%x in basic block %u\n", sig.name,
                call_site, block_id);
  std::string out = buf;
  for (int i = 0; i < arity; ++i) {
    const auto& a = args[static_cast<std::size_t>(i)];
    out += "  Parameter " + std::to_string(i) + " ";
    switch (a.kind) {
      case ArgPolicy::Kind::Unconstrained:
        out += "equals ANY\n";
        break;
      case ArgPolicy::Kind::Const: {
        std::snprintf(buf, sizeof buf, "equals %u\n", a.value);
        out += buf;
        break;
      }
      case ArgPolicy::Kind::String:
        out += "equals \"" + a.str + "\"\n";
        break;
      case ArgPolicy::Kind::Pattern:
        out += "matches \"" + a.str + "\"\n";
        break;
      case ArgPolicy::Kind::MultiValue: {
        out += "in {";
        for (std::size_t j = 0; j < a.values.size(); ++j) {
          if (j != 0) out += ", ";
          out += std::to_string(a.values[j]);
        }
        out += "}\n";
        break;
      }
    }
  }
  if (control_flow) {
    out += "  Possible predecessors";
    for (auto p : predecessors) {
      out += ' ';
      out += std::to_string(p);
    }
    out += "\n";
  }
  if (!fd_sources.empty()) {
    out += "  Fd argument from open sites";
    for (auto p : fd_sources) {
      out += ' ';
      out += std::to_string(p);
    }
    out += "\n";
  }
  return out;
}

namespace {

/// Little-endian stores into a caller-sized buffer: the fixed-buffer
/// counterpart of util::put_u*.
class FixedWriter {
 public:
  explicit FixedWriter(std::uint8_t* out) : begin_(out), p_(out) {}
  void u16(std::uint16_t v) {
    *p_++ = static_cast<std::uint8_t>(v);
    *p_++ = static_cast<std::uint8_t>(v >> 8);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) *p_++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) *p_++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void mac(const crypto::Mac& m) {
    for (const std::uint8_t b : m) *p_++ = b;
  }
  std::size_t size() const { return static_cast<std::size_t>(p_ - begin_); }

 private:
  std::uint8_t* begin_;
  std::uint8_t* p_;
};

}  // namespace

std::size_t encode_policy(const EncodedPolicyInputs& in, EncodedPolicy& out) {
  if (in.arity < 0 || in.arity > os::kMaxSyscallArgs) throw Error("encode_policy: bad arity");
  FixedWriter w(out.data());
  w.u16(in.sysno);
  w.u32(in.descriptor.bits());
  if (in.descriptor.site_constrained()) w.u32(in.call_site);
  w.u32(in.block_id);
  for (int i = 0; i < in.arity; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (in.descriptor.arg_is_authenticated_string(i)) {
      w.u32(in.as_args[idx].addr);
      w.u32(in.as_args[idx].len);
      w.mac(in.as_args[idx].mac);
    } else if (in.descriptor.arg_constrained(i)) {
      w.u32(in.const_values[idx]);
    }
  }
  if (in.descriptor.control_flow_constrained()) {
    w.u32(in.pred_set.addr);
    w.u32(in.pred_set.len);
    w.mac(in.pred_set.mac);
    w.u32(in.lb_ptr);
  }
  return w.size();
}

std::vector<std::uint8_t> encode_policy(const EncodedPolicyInputs& in) {
  EncodedPolicy buf{};
  const std::size_t n = encode_policy(in, buf);
  return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::vector<std::size_t> embedded_mac_offsets(const EncodedPolicyInputs& in) {
  std::vector<std::size_t> offs;
  std::size_t off = 2 + 4;  // sysno + descriptor
  if (in.descriptor.site_constrained()) off += 4;
  off += 4;  // block id
  for (int i = 0; i < in.arity; ++i) {
    if (in.descriptor.arg_is_authenticated_string(i)) {
      offs.push_back(off + 8);  // addr + len precede the content MAC
      off += 24;
    } else if (in.descriptor.arg_constrained(i)) {
      off += 4;
    }
  }
  if (in.descriptor.control_flow_constrained()) offs.push_back(off + 8);
  return offs;
}

std::vector<std::uint8_t> encode_pred_set(const std::vector<std::uint32_t>& predecessors,
                                          const std::vector<std::uint32_t>& fd_sources,
                                          const std::vector<PatternRef>& patterns) {
  std::vector<std::uint8_t> out;
  util::put_u32(out, static_cast<std::uint32_t>(predecessors.size()));
  for (auto p : predecessors) util::put_u32(out, p);
  util::put_u32(out, static_cast<std::uint32_t>(fd_sources.size()));
  for (auto c : fd_sources) util::put_u32(out, c);
  util::put_u32(out, static_cast<std::uint32_t>(patterns.size()));
  for (const auto& pr : patterns) {
    util::put_u32(out, pr.arg_index);
    util::put_u32(out, pr.pattern_addr);
  }
  return out;
}

bool decode_pred_set(std::span<const std::uint8_t> blob, std::vector<std::uint32_t>& predecessors,
                     std::vector<std::uint32_t>& fd_sources, std::vector<PatternRef>& patterns) {
  predecessors.clear();
  fd_sources.clear();
  patterns.clear();
  if (blob.size() < 12) return false;
  std::size_t off = 0;
  const std::uint32_t npred = util::get_u32(blob, off);
  off += 4;
  if (npred > blob.size() || blob.size() < off + 4ull * npred + 8) return false;
  for (std::uint32_t i = 0; i < npred; ++i) {
    predecessors.push_back(util::get_u32(blob, off));
    off += 4;
  }
  const std::uint32_t ncap = util::get_u32(blob, off);
  off += 4;
  if (ncap > blob.size() || blob.size() < off + 4ull * ncap + 4) return false;
  for (std::uint32_t i = 0; i < ncap; ++i) {
    fd_sources.push_back(util::get_u32(blob, off));
    off += 4;
  }
  const std::uint32_t npat = util::get_u32(blob, off);
  off += 4;
  if (npat > blob.size() || blob.size() < off + 8ull * npat) return false;
  for (std::uint32_t i = 0; i < npat; ++i) {
    PatternRef pr;
    pr.arg_index = util::get_u32(blob, off);
    pr.pattern_addr = util::get_u32(blob, off + 4);
    off += 8;
    patterns.push_back(pr);
  }
  return off == blob.size();
}

std::array<std::uint8_t, kPolicyStateMessageSize> encode_policy_state(std::uint32_t last_block,
                                                                      std::uint64_t counter) {
  std::array<std::uint8_t, kPolicyStateMessageSize> out{};
  FixedWriter w(out.data());
  w.u32(last_block);
  w.u64(counter);
  return out;
}

}  // namespace asc::policy
