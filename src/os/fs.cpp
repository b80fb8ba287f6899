#include "os/fs.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/error.h"

namespace asc::os {

namespace {
constexpr int kMaxSymlinkDepth = 8;
}

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

void SimFs::Content::Free::operator()(std::uint8_t* p) const noexcept {
  std::free(p);
}

void SimFs::Content::resize(std::size_t n) {
  if (n > capacity_) {
    const std::size_t cap = std::max(n, 2 * capacity_);
    auto* grown = static_cast<std::uint8_t*>(std::realloc(bytes_.get(), cap));
    if (grown == nullptr) throw std::bad_alloc();
    (void)bytes_.release();  // realloc took ownership of the old block
    bytes_.reset(grown);
    capacity_ = cap;
  }
  // Zero every new byte, those the caller is about to overwrite included: a
  // hole or a truncate-extended tail must read as zero, and one in-order
  // pass touches the new pages before the copy does.
  if (n > size_) std::memset(bytes_.get() + size_, 0, n - size_);
  size_ = n;
}

SimFs::SimFs() {
  Node root;
  root.kind = NodeKind::Dir;
  root.mode = 0755;
  root.inode = next_inode_;
  nodes_[next_inode_] = std::move(root);
  ++next_inode_;
  // Conventional top-level directories used by guest programs.
  (void)mkdir("/", "/tmp", 0777);
  (void)mkdir("/", "/etc", 0755);
  (void)mkdir("/", "/dev", 0755);
  (void)mkdir("/", "/home", 0755);
  // /dev/console and /dev/tty behave as ordinary writable files here.
  (void)open("/", "/dev/console", kWrOnly | kCreat, 0600);
  (void)open("/", "/dev/tty", kRdWr | kCreat, 0600);
  (void)open("/", "/etc/termcap", kWrOnly | kCreat, 0644);
}

SimFs::Node* SimFs::node(std::uint32_t inode) {
  auto it = nodes_.find(inode);
  return it == nodes_.end() ? nullptr : &it->second;
}

const SimFs::Node* SimFs::node(std::uint32_t inode) const {
  auto it = nodes_.find(inode);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::uint32_t SimFs::new_node(NodeKind kind, std::uint32_t mode) {
  Node n;
  n.kind = kind;
  n.mode = mode;
  n.inode = next_inode_;
  nodes_[next_inode_] = std::move(n);
  return next_inode_++;
}

std::int64_t SimFs::walk(const std::string& cwd, const std::string& path, bool parent_only,
                         std::string* leaf, int depth) const {
  if (depth > kMaxSymlinkDepth) return kErrLoop;
  std::vector<std::string> parts;
  if (!path.empty() && path[0] == '/') {
    parts = split_path(path);
  } else {
    parts = split_path(cwd);
    auto rel = split_path(path);
    parts.insert(parts.end(), rel.begin(), rel.end());
  }

  std::uint32_t cur = 1;  // root inode
  std::vector<std::uint32_t> dir_stack{1};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& comp = parts[i];
    const bool last = i + 1 == parts.size();
    const Node* d = node(cur);
    if (d == nullptr || d->kind != NodeKind::Dir) return kErrNotDir;
    if (comp == ".") continue;
    if (comp == "..") {
      if (dir_stack.size() > 1) {
        dir_stack.pop_back();
        cur = dir_stack.back();
      }
      continue;
    }
    auto it = d->entries.find(comp);
    if (it == d->entries.end()) {
      if (parent_only && last) {
        if (leaf != nullptr) *leaf = comp;
        return cur;
      }
      return kErrNoEnt;
    }
    const Node* child = node(it->second);
    if (child == nullptr) return kErrNoEnt;
    if (child->kind == NodeKind::Symlink) {
      if (last && parent_only) {
        if (leaf != nullptr) *leaf = comp;
        return cur;
      }
      // Re-resolve: target relative to the directory containing the link.
      std::string dir_path = "/";
      // Reconstruct the path of `cur` by joining the consumed components.
      // (We track it explicitly for simplicity.)
      {
        std::string acc;
        std::vector<std::string> consumed(parts.begin(),
                                          parts.begin() + static_cast<std::ptrdiff_t>(i));
        // Remove "."/".." effects by replaying them.
        std::vector<std::string> norm;
        for (const auto& c : consumed) {
          if (c == ".") continue;
          if (c == "..") {
            if (!norm.empty()) norm.pop_back();
            continue;
          }
          norm.push_back(c);
        }
        for (const auto& c : norm) acc += "/" + c;
        dir_path = acc.empty() ? "/" : acc;
      }
      std::string rest;
      for (std::size_t j = i + 1; j < parts.size(); ++j) rest += "/" + parts[j];
      std::string next = child->target;
      if (!rest.empty()) {
        if (!next.empty() && next.back() == '/') next.pop_back();
        next += rest;
      }
      return walk(dir_path, next, parent_only, leaf, depth + 1);
    }
    if (last) {
      if (parent_only) {
        if (leaf != nullptr) *leaf = comp;
        return cur;
      }
      return child->inode;
    }
    cur = child->inode;
    dir_stack.push_back(cur);
  }
  if (parent_only) {
    // Path named an existing directory itself; treat as invalid for
    // parent-only operations like open(O_CREAT) on "".
    return kErrInval;
  }
  return cur;
}

std::int64_t SimFs::open(const std::string& cwd, const std::string& path, std::uint32_t flags,
                         std::uint32_t mode) {
  std::string leaf;
  const std::int64_t parent = walk(cwd, path, /*parent_only=*/true, &leaf);
  if (parent < 0) return parent;
  Node* dir = node(static_cast<std::uint32_t>(parent));
  if (dir == nullptr || dir->kind != NodeKind::Dir) return kErrNotDir;

  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) {
    if ((flags & kCreat) == 0) return kErrNoEnt;
    const std::uint32_t ino = new_node(NodeKind::File, mode == 0 ? 0644 : mode);
    dir->entries[leaf] = ino;
    return ino;
  }
  // Existing entry: follow a final symlink via a full walk.
  const std::int64_t resolved = walk(cwd, path, /*parent_only=*/false, nullptr);
  if (resolved < 0) return resolved;
  Node* n = node(static_cast<std::uint32_t>(resolved));
  if (n == nullptr) return kErrNoEnt;
  if (n->kind == NodeKind::Dir) {
    if ((flags & kAccMask) != kRdOnly) return kErrIsDir;
    return n->inode;
  }
  if ((flags & kTrunc) != 0) n->content.clear();
  return n->inode;
}

std::int64_t SimFs::read(std::uint32_t inode, std::uint32_t offset, std::uint32_t n,
                         std::span<const std::uint8_t>& out) const {
  const Node* f = node(inode);
  if (f == nullptr || f->kind != NodeKind::File) return kErrBadf;
  out = {};
  if (offset >= f->content.size()) return 0;
  const std::uint32_t avail = static_cast<std::uint32_t>(f->content.size()) - offset;
  const std::uint32_t take = std::min(n, avail);
  out = {f->content.data() + offset, take};
  return take;
}

std::int64_t SimFs::write(std::uint32_t inode, std::uint32_t offset,
                          std::span<const std::uint8_t> bytes, bool append) {
  Node* f = node(inode);
  if (f == nullptr || f->kind != NodeKind::File) return kErrBadf;
  std::uint32_t pos = append ? static_cast<std::uint32_t>(f->content.size()) : offset;
  if (pos + bytes.size() > f->content.size()) f->content.resize(pos + bytes.size());
  if (!bytes.empty()) std::memcpy(f->content.data() + pos, bytes.data(), bytes.size());
  return static_cast<std::int64_t>(bytes.size());
}

std::int64_t SimFs::truncate(std::uint32_t inode, std::uint32_t len) {
  Node* f = node(inode);
  if (f == nullptr || f->kind != NodeKind::File) return kErrBadf;
  f->content.resize(len);
  return 0;
}

std::optional<StatInfo> SimFs::stat_inode(std::uint32_t inode) const {
  const Node* n = node(inode);
  if (n == nullptr) return std::nullopt;
  StatInfo s;
  s.kind = n->kind;
  s.mode = n->mode;
  s.inode = n->inode;
  s.size = n->kind == NodeKind::File ? static_cast<std::uint32_t>(n->content.size())
                                     : static_cast<std::uint32_t>(n->entries.size());
  return s;
}

std::int64_t SimFs::mkdir(const std::string& cwd, const std::string& path, std::uint32_t mode) {
  std::string leaf;
  const std::int64_t parent = walk(cwd, path, true, &leaf);
  if (parent < 0) return parent;
  Node* dir = node(static_cast<std::uint32_t>(parent));
  if (dir == nullptr || dir->kind != NodeKind::Dir) return kErrNotDir;
  if (dir->entries.count(leaf) != 0) return kErrExist;
  dir->entries[leaf] = new_node(NodeKind::Dir, mode == 0 ? 0755 : mode);
  return 0;
}

std::int64_t SimFs::rmdir(const std::string& cwd, const std::string& path) {
  std::string leaf;
  const std::int64_t parent = walk(cwd, path, true, &leaf);
  if (parent < 0) return parent;
  Node* dir = node(static_cast<std::uint32_t>(parent));
  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) return kErrNoEnt;
  Node* child = node(it->second);
  if (child == nullptr || child->kind != NodeKind::Dir) return kErrNotDir;
  if (!child->entries.empty()) return kErrNotEmpty;
  nodes_.erase(it->second);
  dir->entries.erase(it);
  return 0;
}

std::int64_t SimFs::unlink(const std::string& cwd, const std::string& path) {
  std::string leaf;
  const std::int64_t parent = walk(cwd, path, true, &leaf);
  if (parent < 0) return parent;
  Node* dir = node(static_cast<std::uint32_t>(parent));
  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) return kErrNoEnt;
  Node* child = node(it->second);
  if (child != nullptr && child->kind == NodeKind::Dir) return kErrIsDir;
  nodes_.erase(it->second);
  dir->entries.erase(it);
  return 0;
}

std::int64_t SimFs::rename(const std::string& cwd, const std::string& from, const std::string& to) {
  std::string from_leaf;
  const std::int64_t from_parent = walk(cwd, from, true, &from_leaf);
  if (from_parent < 0) return from_parent;
  Node* fdir = node(static_cast<std::uint32_t>(from_parent));
  auto fit = fdir->entries.find(from_leaf);
  if (fit == fdir->entries.end()) return kErrNoEnt;
  const std::uint32_t ino = fit->second;

  std::string to_leaf;
  const std::int64_t to_parent = walk(cwd, to, true, &to_leaf);
  if (to_parent < 0) return to_parent;
  Node* tdir = node(static_cast<std::uint32_t>(to_parent));
  if (tdir == nullptr || tdir->kind != NodeKind::Dir) return kErrNotDir;

  // Re-find the source entry: the destination walk may not invalidate it in
  // this implementation, but be defensive about same-map iterator reuse.
  fdir = node(static_cast<std::uint32_t>(from_parent));
  fdir->entries.erase(from_leaf);
  auto old = tdir->entries.find(to_leaf);
  if (old != tdir->entries.end()) nodes_.erase(old->second);
  tdir->entries[to_leaf] = ino;
  return 0;
}

std::int64_t SimFs::symlink(const std::string& cwd, const std::string& target,
                            const std::string& linkpath) {
  std::string leaf;
  const std::int64_t parent = walk(cwd, linkpath, true, &leaf);
  if (parent < 0) return parent;
  Node* dir = node(static_cast<std::uint32_t>(parent));
  if (dir->entries.count(leaf) != 0) return kErrExist;
  const std::uint32_t ino = new_node(NodeKind::Symlink, 0777);
  node(ino)->target = target;
  dir->entries[leaf] = ino;
  return 0;
}

std::int64_t SimFs::chmod(const std::string& cwd, const std::string& path, std::uint32_t mode) {
  const std::int64_t ino = walk(cwd, path, false, nullptr);
  if (ino < 0) return ino;
  node(static_cast<std::uint32_t>(ino))->mode = mode;
  return 0;
}

std::int64_t SimFs::access(const std::string& cwd, const std::string& path) {
  const std::int64_t ino = walk(cwd, path, false, nullptr);
  return ino < 0 ? ino : 0;
}

std::optional<StatInfo> SimFs::stat(const std::string& cwd, const std::string& path) const {
  const std::int64_t ino = walk(cwd, path, false, nullptr);
  if (ino < 0) return std::nullopt;
  return stat_inode(static_cast<std::uint32_t>(ino));
}

std::optional<std::string> SimFs::readlink(const std::string& cwd, const std::string& path) const {
  std::string leaf;
  const std::int64_t parent = walk(cwd, path, true, &leaf);
  if (parent < 0) return std::nullopt;
  const Node* dir = node(static_cast<std::uint32_t>(parent));
  auto it = dir->entries.find(leaf);
  if (it == dir->entries.end()) return std::nullopt;
  const Node* n = node(it->second);
  if (n == nullptr || n->kind != NodeKind::Symlink) return std::nullopt;
  return n->target;
}

std::optional<std::vector<std::string>> SimFs::list_dir(const std::string& cwd,
                                                        const std::string& path) const {
  const std::int64_t ino = walk(cwd, path, false, nullptr);
  if (ino < 0) return std::nullopt;
  const Node* d = node(static_cast<std::uint32_t>(ino));
  if (d == nullptr || d->kind != NodeKind::Dir) return std::nullopt;
  std::vector<std::string> names;
  names.reserve(d->entries.size());
  for (const auto& [name, _] : d->entries) names.push_back(name);
  return names;
}

bool SimFs::is_dir(const std::string& cwd, const std::string& path) const {
  const std::int64_t ino = walk(cwd, path, false, nullptr);
  if (ino < 0) return false;
  const Node* n = node(static_cast<std::uint32_t>(ino));
  return n != nullptr && n->kind == NodeKind::Dir;
}

std::optional<std::string> SimFs::path_of_inode(std::uint32_t inode) const {
  std::vector<std::pair<std::uint32_t, std::string>> frontier{{1u, ""}};
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto [cur, cur_path] = frontier[i];
    if (cur == inode) return cur_path.empty() ? "/" : cur_path;
    const Node* d = node(cur);
    if (d == nullptr || d->kind != NodeKind::Dir) continue;
    for (const auto& [name, child] : d->entries) {
      frontier.emplace_back(child, cur_path + "/" + name);
    }
  }
  return std::nullopt;
}

std::optional<std::string> SimFs::normalize(const std::string& cwd, const std::string& path,
                                            bool parent_only) const {
  // Resolve to an inode, then reconstruct a canonical absolute path by
  // searching for that inode from the root. For a simulation-scale FS a
  // breadth-first inode search is fine and keeps `walk` authoritative.
  std::string leaf;
  const std::int64_t ino = walk(cwd, path, parent_only, parent_only ? &leaf : nullptr);
  if (ino < 0) return std::nullopt;

  // BFS from root to find the canonical path of `ino`.
  std::vector<std::pair<std::uint32_t, std::string>> frontier{{1u, ""}};
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto [cur, cur_path] = frontier[i];
    if (cur == static_cast<std::uint32_t>(ino)) {
      std::string base = cur_path.empty() ? "/" : cur_path;
      if (!parent_only) return base;
      if (base == "/") return "/" + leaf;
      return base + "/" + leaf;
    }
    const Node* d = node(cur);
    if (d == nullptr || d->kind != NodeKind::Dir) continue;
    for (const auto& [name, child] : d->entries) {
      frontier.emplace_back(child, cur_path + "/" + name);
    }
  }
  return std::nullopt;
}

}  // namespace asc::os
