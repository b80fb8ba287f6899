#include "installer/rekeyer.h"

#include <algorithm>
#include <unordered_map>

#include "policy/authstring.h"
#include "policy/policy.h"
#include "util/error.h"
#include "util/hex.h"

namespace asc::installer {

namespace {

// Manifest file format: magic, version, fixed header, AS table, call table.
constexpr std::uint32_t kManifestMagic = 0x464d5341;  // "ASMF"
constexpr std::uint32_t kManifestVersion = 1;

// Records per compute_batch chunk. Large enough to keep the 4-lane AES-NI
// core saturated, small enough that parallel_for has work to spread.
constexpr std::size_t kBatchChunk = 64;

/// A manifest's signing surface resolved to offsets into .asdata, every
/// address bounds-checked before any MAC is computed (throws happen before
/// threads start).
struct Surface {
  struct As {
    std::size_t body;  // content
    std::size_t mac;   // its 16-byte MAC
    std::uint32_t len;
  };
  std::vector<As> as;
  std::vector<std::size_t> call_macs;
  std::vector<std::vector<std::size_t>> patch_macs;  // per call: AS MAC offset per patch
  std::size_t state = 0;                              // policy-state record
};

Surface resolve(const binary::Section& asdata, const SignManifest& manifest) {
  const std::uint32_t base = asdata.vaddr();
  const std::vector<std::uint8_t>& bytes = asdata.bytes;
  // `what` names the offending record class on failure.
  auto at = [&](std::uint32_t vaddr, std::uint32_t n, const char* what) -> std::size_t {
    if (vaddr < base || vaddr - base > bytes.size() || n > bytes.size() - (vaddr - base)) {
      throw Error(std::string("sign: ") + what + " outside .asdata");
    }
    return vaddr - base;
  };
  Surface s;
  std::unordered_map<std::uint32_t, std::size_t> mac_of_body;
  for (const auto& as : manifest.as_records) {
    const std::size_t body = at(as.body, as.len, "AS body");
    const std::size_t mac = at(as.body - 16, 16, "AS MAC slot");
    if (as.body < base + policy::kAsHeaderSize ||
        util::get_u32(bytes, body - policy::kAsHeaderSize) != as.len) {
      throw Error("sign: AS length field mismatch");
    }
    s.as.push_back({body, mac, as.len});
    mac_of_body.emplace(as.body, mac);
  }
  for (const auto& c : manifest.calls) {
    s.call_macs.push_back(at(c.mac_slot, 16, "call MAC slot"));
    std::vector<std::size_t>& macs = s.patch_macs.emplace_back();
    for (const auto& p : c.patches) {
      const auto it = mac_of_body.find(p.as_body);
      if (it == mac_of_body.end()) throw Error("sign: patch names unknown AS");
      macs.push_back(it->second);
    }
  }
  s.state = at(manifest.state_addr, policy::kPolicyStateSize, "state record");
  return s;
}

/// CMACs under `key` of messages 0..n-1, kBatchChunk at a time through the
/// batched core, the chunks fanned out over `ex`. `msg(i, scratch)` returns
/// message i, built in `scratch` if it is not already in memory.
template <typename Msg>
std::vector<crypto::Mac> mac_all(std::size_t n, const Msg& msg, const crypto::MacKey& key,
                                 util::Executor& ex) {
  std::vector<crypto::Mac> macs(n);
  ex.parallel_for((n + kBatchChunk - 1) / kBatchChunk, [&](std::size_t ci) {
    const std::size_t lo = ci * kBatchChunk;
    const std::size_t hi = std::min(lo + kBatchChunk, n);
    std::vector<std::vector<std::uint8_t>> scratch(hi - lo);
    std::vector<std::span<const std::uint8_t>> msgs;
    for (std::size_t i = lo; i < hi; ++i) msgs.push_back(msg(i, scratch[i - lo]));
    const std::vector<crypto::Mac> out = key.mac_batch(msgs);
    std::copy(out.begin(), out.end(), macs.begin() + static_cast<std::ptrdiff_t>(lo));
  });
  return macs;
}

/// The MAC of every AS content.
std::vector<crypto::Mac> as_macs(const std::vector<std::uint8_t>& bytes, const Surface& s,
                                 const crypto::MacKey& key, util::Executor& ex) {
  return mac_all(
      s.as.size(),
      [&](std::size_t i, std::vector<std::uint8_t>&) {
        return std::span<const std::uint8_t>(bytes.data() + s.as[i].body, s.as[i].len);
      },
      key, ex);
}

/// The MAC of every call message, with the AS MACs `bytes` holds right now
/// spliced in.
std::vector<crypto::Mac> call_macs(const std::vector<std::uint8_t>& bytes, const Surface& s,
                                   const SignManifest& manifest, const crypto::MacKey& key,
                                   util::Executor& ex) {
  return mac_all(
      s.call_macs.size(),
      [&](std::size_t i, std::vector<std::uint8_t>& msg) {
        const ManifestCallRecord& c = manifest.calls[i];
        msg = c.message;
        for (std::size_t k = 0; k < c.patches.size(); ++k) {
          std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(s.patch_macs[i][k]), 16,
                      msg.begin() + c.patches[k].msg_off);
        }
        return std::span<const std::uint8_t>(msg);
      },
      key, ex);
}

/// Whether the 16 bytes at `off` are `mac`.
bool holds(const std::vector<std::uint8_t>& bytes, std::size_t off, const crypto::Mac& mac) {
  crypto::Mac m;
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(off), 16, m.begin());
  return crypto::Cmac::equal(m, mac);
}

void put(std::vector<std::uint8_t>& bytes, std::size_t off, const crypto::Mac& mac) {
  std::copy(mac.begin(), mac.end(), bytes.begin() + static_cast<std::ptrdiff_t>(off));
}

}  // namespace

std::uint64_t SignManifest::mac_surface_bytes() const {
  std::uint64_t total = policy::encode_policy_state(0, 0).size();
  for (const auto& as : as_records) total += as.len;
  for (const auto& c : calls) total += c.message.size();
  return total;
}

std::vector<std::uint8_t> SignManifest::serialize() const {
  std::vector<std::uint8_t> out;
  util::put_u32(out, kManifestMagic);
  util::put_u32(out, kManifestVersion);
  util::put_u16(out, program_id);
  out.push_back(unique_block_ids ? 1 : 0);
  util::put_u32(out, state_addr);
  util::put_u32(out, start_block);
  util::put_u32(out, static_cast<std::uint32_t>(as_records.size()));
  for (const auto& as : as_records) {
    util::put_u32(out, as.body);
    util::put_u32(out, as.len);
  }
  util::put_u32(out, static_cast<std::uint32_t>(calls.size()));
  for (const auto& c : calls) {
    util::put_u32(out, c.mac_slot);
    util::put_u32(out, static_cast<std::uint32_t>(c.message.size()));
    out.insert(out.end(), c.message.begin(), c.message.end());
    util::put_u32(out, static_cast<std::uint32_t>(c.patches.size()));
    for (const auto& p : c.patches) {
      util::put_u32(out, p.msg_off);
      util::put_u32(out, p.as_body);
    }
  }
  return out;
}

SignManifest SignManifest::deserialize(std::span<const std::uint8_t> file) {
  std::size_t off = 0;
  auto u32 = [&](const char* what) {
    if (off + 4 > file.size()) throw Error(std::string("SignManifest: truncated at ") + what);
    const std::uint32_t v = util::get_u32(file, off);
    off += 4;
    return v;
  };
  if (u32("magic") != kManifestMagic) throw Error("SignManifest: bad magic");
  if (u32("version") != kManifestVersion) throw Error("SignManifest: unsupported version");
  SignManifest m;
  if (off + 3 > file.size()) throw Error("SignManifest: truncated header");
  m.program_id = util::get_u16(file, off);
  off += 2;
  m.unique_block_ids = file[off++] != 0;
  m.state_addr = u32("state_addr");
  m.start_block = u32("start_block");
  const std::uint32_t n_as = u32("as count");
  for (std::uint32_t i = 0; i < n_as; ++i) {
    ManifestAsRecord as;
    as.body = u32("as body");
    as.len = u32("as len");
    m.as_records.push_back(as);
  }
  const std::uint32_t n_calls = u32("call count");
  for (std::uint32_t i = 0; i < n_calls; ++i) {
    ManifestCallRecord c;
    c.mac_slot = u32("call mac slot");
    const std::uint32_t msg_len = u32("call msg len");
    if (off + msg_len > file.size()) throw Error("SignManifest: truncated call message");
    c.message.assign(file.begin() + static_cast<std::ptrdiff_t>(off),
                     file.begin() + static_cast<std::ptrdiff_t>(off + msg_len));
    off += msg_len;
    const std::uint32_t n_patches = u32("patch count");
    for (std::uint32_t j = 0; j < n_patches; ++j) {
      ManifestPatch p;
      p.msg_off = u32("patch msg off");
      p.as_body = u32("patch as body");
      if (std::uint64_t{p.msg_off} + 16 > c.message.size()) {
        throw Error("SignManifest: patch out of message");
      }
      c.patches.push_back(p);
    }
    m.calls.push_back(c);
  }
  if (off != file.size()) throw Error("SignManifest: trailing bytes");
  return m;
}

void sign(binary::Image& image, const SignManifest& manifest, const crypto::MacKey& key,
          util::Executor* executor) {
  util::Executor& ex = util::resolve_executor(executor);
  binary::Section& asdata = image.section(binary::SectionKind::AsData);
  const Surface s = resolve(asdata, manifest);
  std::vector<std::uint8_t>& bytes = asdata.bytes;
  // AS content MACs first (content is key-independent), then the call MACs
  // over messages carrying those fresh AS MACs, then the state seed.
  const std::vector<crypto::Mac> as = as_macs(bytes, s, key, ex);
  for (std::size_t i = 0; i < as.size(); ++i) put(bytes, s.as[i].mac, as[i]);
  const std::vector<crypto::Mac> calls = call_macs(bytes, s, manifest, key, ex);
  for (std::size_t i = 0; i < calls.size(); ++i) put(bytes, s.call_macs[i], calls[i]);
  put(bytes, s.state + 4, key.mac(policy::encode_policy_state(manifest.start_block, 0)));
}

RekeyResult Rekeyer::rekey(const binary::Image& image, const SignManifest& manifest,
                           const crypto::Key128& old_key, const crypto::Key128& new_key,
                           util::Executor* executor) {
  util::Executor& ex = util::resolve_executor(executor);
  RekeyResult out;
  out.image = image;
  out.view.state_addr = manifest.state_addr;
  binary::Section& asdata = out.image.section(binary::SectionKind::AsData);

  // ---- verify the whole old surface under old_key. A mismatch means the
  // image was tampered with (or keys are wrong); refusing here keeps the
  // rekeyer from laundering a tamper into valid new-key MACs.
  {
    const crypto::MacKey old_mac(old_key);
    const Surface s = resolve(asdata, manifest);
    const std::vector<std::uint8_t>& bytes = asdata.bytes;
    bool ok = true;
    const std::vector<crypto::Mac> as = as_macs(bytes, s, old_mac, ex);
    for (std::size_t i = 0; i < as.size(); ++i) ok &= holds(bytes, s.as[i].mac, as[i]);
    const std::vector<crypto::Mac> calls = call_macs(bytes, s, manifest, old_mac, ex);
    for (std::size_t i = 0; i < calls.size(); ++i) ok &= holds(bytes, s.call_macs[i], calls[i]);
    // Policy-state seed: a rekeyable image is at rest, so its record must
    // still be the install-time {start_block, counter 0} seed.
    ok &= util::get_u32(bytes, s.state) == manifest.start_block &&
          holds(bytes, s.state + 4,
                old_mac.mac(policy::encode_policy_state(manifest.start_block, 0)));
    if (!ok) throw Error("Rekeyer: image does not verify under the old key");
  }

  sign(out.image, manifest, crypto::MacKey(new_key), &ex);

  // The live-swap view covers the AS and call MAC slots but NOT the state
  // MAC: a running process's {lastBlock, counter} has moved past the seed,
  // so the kernel re-MACs the live state itself (os/rekey.h).
  out.view.patches.reserve(manifest.as_records.size() + manifest.calls.size());
  auto patch = [&](std::uint32_t addr) {
    os::RekeyPatch p;
    p.addr = addr;
    std::copy_n(asdata.bytes.begin() + static_cast<std::ptrdiff_t>(addr - asdata.vaddr()), 16,
                p.bytes.begin());
    out.view.patches.push_back(p);
  };
  for (const auto& as : manifest.as_records) patch(as.body - 16);
  for (const auto& c : manifest.calls) patch(c.mac_slot);
  return out;
}

}  // namespace asc::installer
