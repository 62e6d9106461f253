#include "memfs.hpp"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace perfbench {

namespace {

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw tl::io::IoError{op + " failed on " + path + ": " + std::strerror(errno)};
}

std::uint64_t fd_size(int fd, const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw_errno("fstat", path);
  return static_cast<std::uint64_t>(st.st_size);
}

std::string parent_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash);
}

/// True when `path` is `dir` itself or lies under it.
bool at_or_under(const std::string& path, const std::string& dir) {
  return path.compare(0, dir.size(), dir) == 0 &&
         (path.size() == dir.size() || path[dir.size()] == '/');
}

/// One open file on a memfd, with its own position. Like a stdio stream,
/// a reader reads ahead 64 KiB and a writer buffers 64 KiB, then appends.
class MemoryFile final : public tl::io::File {
 public:
  MemoryFile(std::shared_ptr<MemoryFileSystem::Fd> fd, std::string path, bool writable)
      : fd_(std::move(fd)), path_(std::move(path)), writable_(writable) {}
  ~MemoryFile() override { close(); }

  std::size_t write(const void* data, std::size_t size) override {
    if (!writable_ || fd_ == nullptr) throw tl::io::IoError{"write on " + path_};
    const auto* p = static_cast<const char*>(data);
    pending_.insert(pending_.end(), p, p + size);
    if (pending_.size() >= kBufferBytes) flush();
    return size;
  }

  std::size_t read(void* data, std::size_t size) override {
    if (writable_ || fd_ == nullptr) throw tl::io::IoError{"read on " + path_};
    auto* out = static_cast<char*>(data);
    std::size_t done = 0;
    while (done < size) {
      if (pos_ >= buffer_at_ && pos_ < buffer_at_ + buffer_.size()) {
        const std::size_t at = static_cast<std::size_t>(pos_ - buffer_at_);
        const std::size_t take = std::min(size - done, buffer_.size() - at);
        std::memcpy(out + done, buffer_.data() + at, take);
        done += take;
        pos_ += take;
      } else if (size - done >= kBufferBytes) {
        const std::size_t n = pread_at(pos_, out + done, size - done);
        if (n == 0) break;
        done += n;
        pos_ += n;
      } else {
        buffer_.resize(kBufferBytes);
        buffer_.resize(pread_at(pos_, buffer_.data(), kBufferBytes));
        buffer_at_ = pos_;
        if (buffer_.empty()) break;
      }
    }
    return done;
  }

  void seek(std::uint64_t offset) override { pos_ = offset; }

  void flush() override {
    if (pending_.empty()) return;
    std::uint64_t end = fd_size(fd_->fd, path_);
    for (std::size_t done = 0; done < pending_.size();) {
      const ssize_t n = ::pwrite(fd_->fd, pending_.data() + done, pending_.size() - done,
                                 static_cast<off_t>(end));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw_errno("write", path_);
      done += static_cast<std::size_t>(n);
      end += static_cast<std::uint64_t>(n);
    }
    pending_.clear();
  }

  void sync() override {
    flush();
    if (::fsync(fd_->fd) != 0) throw_errno("fsync", path_);
  }

  std::uint64_t size() override {
    flush();
    return fd_size(fd_->fd, path_);
  }

  void close() override {
    if (fd_ == nullptr) return;
    try {
      flush();
    } catch (const tl::io::IoError&) {
      // Swallowed, as File::close documents.
    }
    fd_.reset();
  }

 private:
  /// Reads up to `size` bytes at `offset`, fewer only at the end of file.
  std::size_t pread_at(std::uint64_t offset, char* out, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd_->fd, out + done, size - done,
                                static_cast<off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw_errno("read", path_);
      if (n == 0) break;
      done += static_cast<std::size_t>(n);
    }
    return done;
  }

  static constexpr std::size_t kBufferBytes = 64 << 10;
  std::shared_ptr<MemoryFileSystem::Fd> fd_;
  std::string path_;
  bool writable_;
  std::uint64_t pos_ = 0;
  std::vector<char> pending_;           ///< written, not yet flushed
  std::vector<char> buffer_;            ///< read ahead from buffer_at_
  std::uint64_t buffer_at_ = 0;
};

}  // namespace

MemoryFileSystem::Fd::~Fd() { ::close(fd); }

std::shared_ptr<MemoryFileSystem::Fd> MemoryFileSystem::find(const std::string& path,
                                                             const char* op) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = files_.find(path);
  if (it == files_.end()) throw tl::io::IoError{std::string{op} + " failed on " + path};
  return it->second;
}

std::unique_ptr<tl::io::File> MemoryFileSystem::open(const std::string& path,
                                                     tl::io::OpenMode mode) {
  if (mode == tl::io::OpenMode::kRead) {
    return std::make_unique<MemoryFile>(find(path, "open"), path, false);
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  const std::string parent = parent_of(path);
  if (!parent.empty() && dirs_.count(parent) == 0) {
    throw tl::io::IoError{"open failed on " + path + ": no such directory"};
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    const int fd = ::memfd_create("perfbench-wal", MFD_CLOEXEC);
    if (fd < 0) throw_errno("memfd_create", path);
    it = files_.emplace(path, std::make_shared<Fd>(fd)).first;
  } else if (mode == tl::io::OpenMode::kTruncate && ::ftruncate(it->second->fd, 0) != 0) {
    throw_errno("truncate", path);
  }
  return std::make_unique<MemoryFile>(it->second, path, true);
}

bool MemoryFileSystem::exists(const std::string& path) {
  const std::lock_guard<std::mutex> lock{mutex_};
  return files_.count(path) != 0 || dirs_.count(path) != 0;
}

std::uint64_t MemoryFileSystem::file_size(const std::string& path) {
  return fd_size(find(path, "file_size")->fd, path);
}

void MemoryFileSystem::rename(const std::string& from, const std::string& to) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = files_.find(from);
  if (it == files_.end()) throw tl::io::IoError{"rename " + from + " -> " + to + " failed"};
  auto fd = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(fd);
}

void MemoryFileSystem::remove(const std::string& path) {
  const std::lock_guard<std::mutex> lock{mutex_};
  files_.erase(path);
}

void MemoryFileSystem::truncate(const std::string& path, std::uint64_t size) {
  if (::ftruncate(find(path, "truncate")->fd, static_cast<off_t>(size)) != 0) {
    throw_errno("truncate", path);
  }
}

void MemoryFileSystem::create_directories(const std::string& path) {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (std::string dir = path; !dir.empty(); dir = parent_of(dir)) dirs_.insert(dir);
}

std::vector<std::string> MemoryFileSystem::list(const std::string& dir,
                                                const std::string& prefix) {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::string> names;
  const std::string start = dir + "/" + prefix;
  for (auto it = files_.lower_bound(start);
       it != files_.end() && it->first.compare(0, start.size(), start) == 0; ++it) {
    if (it->first.find('/', dir.size() + 1) == std::string::npos) {
      names.push_back(it->first.substr(dir.size() + 1));
    }
  }
  return names;
}

void MemoryFileSystem::remove_all(const std::string& dir) {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::erase_if(files_, [&](const auto& f) { return at_or_under(f.first, dir); });
  std::erase_if(dirs_, [&](const auto& d) { return at_or_under(d, dir); });
}

std::uint64_t MemoryFileSystem::bytes_under(const std::string& dir) {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::uint64_t bytes = 0;
  for (const auto& [path, fd] : files_) {
    if (at_or_under(path, dir)) bytes += fd_size(fd->fd, path);
  }
  return bytes;
}

MemoryFileSystem& wal_filesystem() {
  static MemoryFileSystem fs;
  return fs;
}

}  // namespace perfbench
