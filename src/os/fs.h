// In-memory simulated filesystem.
//
// Provides the substrate for the syscall-intensive benchmarks (Table 5/6, the
// Andrew-style multiprogram benchmark) and for the filename-normalization
// extension (§5.4): directories, regular files, symbolic links, permissions,
// and full path resolution with symlink following and `.`/`..` handling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace asc::os {

enum class NodeKind : std::uint8_t { Dir, File, Symlink };

struct StatInfo {
  NodeKind kind = NodeKind::File;
  std::uint32_t size = 0;
  std::uint32_t mode = 0644;
  std::uint32_t inode = 0;
};

class SimFs {
 public:
  SimFs();

  // All paths may be relative; `cwd` must be absolute. Errors are returned
  // as negative errno-style codes (see kErr* below); successes >= 0.

  /// Create/open checks. Returns inode id (>=0) or error.
  /// flags: kRdOnly/kWrOnly/kRdWr | kCreat | kTrunc | kAppend.
  std::int64_t open(const std::string& cwd, const std::string& path, std::uint32_t flags,
                    std::uint32_t mode);

  /// Up to `n` bytes at `offset`. `out` views the file's own content (no
  /// copy), valid until the file next changes; empty at or past the end.
  /// Returns the byte count or an error.
  std::int64_t read(std::uint32_t inode, std::uint32_t offset, std::uint32_t n,
                    std::span<const std::uint8_t>& out) const;
  std::int64_t write(std::uint32_t inode, std::uint32_t offset,
                     std::span<const std::uint8_t> bytes, bool append);
  std::int64_t truncate(std::uint32_t inode, std::uint32_t len);
  std::optional<StatInfo> stat_inode(std::uint32_t inode) const;

  std::int64_t mkdir(const std::string& cwd, const std::string& path, std::uint32_t mode);
  std::int64_t rmdir(const std::string& cwd, const std::string& path);
  std::int64_t unlink(const std::string& cwd, const std::string& path);
  std::int64_t rename(const std::string& cwd, const std::string& from, const std::string& to);
  std::int64_t symlink(const std::string& cwd, const std::string& target,
                       const std::string& linkpath);
  std::int64_t chmod(const std::string& cwd, const std::string& path, std::uint32_t mode);
  std::int64_t access(const std::string& cwd, const std::string& path);
  std::optional<StatInfo> stat(const std::string& cwd, const std::string& path) const;
  std::optional<std::string> readlink(const std::string& cwd, const std::string& path) const;
  std::optional<std::vector<std::string>> list_dir(const std::string& cwd,
                                                   const std::string& path) const;

  /// True if `path` resolves to an existing directory (used by chdir).
  bool is_dir(const std::string& cwd, const std::string& path) const;

  /// Canonical absolute path of a live inode (directory fds use this).
  std::optional<std::string> path_of_inode(std::uint32_t inode) const;

  /// Resolve to a normalized absolute path with all symlinks followed
  /// (the §5.4 "normalized file name"). nullopt when resolution fails.
  /// When `parent_only` is set, the final component is not required to exist
  /// (and a final-component symlink is NOT followed) -- open(O_CREAT),
  /// unlink, etc. use this.
  std::optional<std::string> normalize(const std::string& cwd, const std::string& path,
                                       bool parent_only = false) const;

  // errno-style codes
  static constexpr std::int64_t kErrNoEnt = -2;
  static constexpr std::int64_t kErrIsDir = -21;
  static constexpr std::int64_t kErrNotDir = -20;
  static constexpr std::int64_t kErrExist = -17;
  static constexpr std::int64_t kErrNotEmpty = -39;
  static constexpr std::int64_t kErrLoop = -40;
  static constexpr std::int64_t kErrInval = -22;
  static constexpr std::int64_t kErrBadf = -9;

  // open() flags
  static constexpr std::uint32_t kRdOnly = 0;
  static constexpr std::uint32_t kWrOnly = 1;
  static constexpr std::uint32_t kRdWr = 2;
  static constexpr std::uint32_t kAccMask = 3;
  static constexpr std::uint32_t kCreat = 0x40;
  static constexpr std::uint32_t kTrunc = 0x200;
  static constexpr std::uint32_t kAppend = 0x400;

 private:
  /// A regular file's bytes. Capacity doubles through realloc, which glibc
  /// serves with mremap above its mmap threshold: a file grown by appends
  /// moves its pages instead of copying them into a fresh mapping, and the
  /// old and new buffers are never both resident. Move-only.
  class Content {
   public:
    std::size_t size() const { return size_; }
    const std::uint8_t* data() const { return bytes_.get(); }
    std::uint8_t* data() { return bytes_.get(); }
    /// Resize to `n` bytes; bytes past the old size read as zero.
    void resize(std::size_t n);
    void clear() { size_ = 0; }

   private:
    struct Free {
      void operator()(std::uint8_t* p) const noexcept;
    };
    std::unique_ptr<std::uint8_t, Free> bytes_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  struct Node {
    NodeKind kind = NodeKind::File;
    std::uint32_t mode = 0644;
    std::uint32_t inode = 0;
    Content content;                            // File
    std::string target;                         // Symlink
    std::map<std::string, std::uint32_t> entries;  // Dir: name -> inode
  };

  Node* node(std::uint32_t inode);
  const Node* node(std::uint32_t inode) const;

  /// Walk `path` from `cwd`. Returns inode of the result, or error. With
  /// `parent_only`, returns the inode of the parent directory and stores the
  /// final component name in `*leaf` (final symlinks not followed).
  std::int64_t walk(const std::string& cwd, const std::string& path, bool parent_only,
                    std::string* leaf, int depth = 0) const;

  std::uint32_t new_node(NodeKind kind, std::uint32_t mode);

  std::map<std::uint32_t, Node> nodes_;
  std::uint32_t next_inode_ = 1;
};

/// Split a path into components, dropping empty ones ("a//b" == "a/b").
std::vector<std::string> split_path(const std::string& path);

}  // namespace asc::os
