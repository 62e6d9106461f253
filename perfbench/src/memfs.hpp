#pragma once

// A tmpfs inside the process, behind the simulator's io::FileSystem seam.
// Every benchmark WAL and tailer checkpoint lives here. Each file is a
// memfd: anonymous shared memory, the same pages a tmpfs file has, read and
// written with the usual system calls and synced with fsync (which returns
// at once, as on a tmpfs). So the WAL code runs whole, but no byte reaches
// the shared disk under the checkout, whose fsync and writeback stalls
// would swamp the program's own cost; and the pages are not mapped, so they
// stay out of the process's resident set, as a tmpfs file's would.
//
// POSIX semantics where the WAL code relies on them: readers and writers
// buffer 64 KiB as stdio does, readers see bytes once flushed, an open file
// survives remove() and follows rename(), and opening for writing needs the
// parent // directory. Thread-safe.

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "io/file.hpp"

namespace perfbench {

class MemoryFileSystem final : public tl::io::FileSystem {
 public:
  /// Owns one memfd; closes it when the last file or name lets go.
  struct Fd {
    int fd;
    explicit Fd(int f) : fd(f) {}
    ~Fd();
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
  };

  std::unique_ptr<tl::io::File> open(const std::string& path, tl::io::OpenMode mode) override;
  bool exists(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void create_directories(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir, const std::string& prefix) override;

  /// Removes `dir` and everything under it; a no-op when absent.
  void remove_all(const std::string& dir);
  /// Bytes in the files under `dir`, at any depth.
  std::uint64_t bytes_under(const std::string& dir);

 private:
  std::shared_ptr<Fd> find(const std::string& path, const char* op);

  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Fd>> files_;
  std::set<std::string> dirs_;
};

/// The process's WAL filesystem.
MemoryFileSystem& wal_filesystem();

}  // namespace perfbench
