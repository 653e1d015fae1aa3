#include "pgstub/vfs.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace vecdb::pgstub {

namespace {

/// stdio-backed file. "rb+" keeps existing bytes; Sync maps to fflush,
/// consistent with the repo-wide no-fsync durability model (the fault
/// model is process crash, not power loss).
///
/// A write that continues the previous one at its end offset skips the
/// seek: glibc's fseek flushes the buffer and issues an lseek, so a log
/// appending one small record at a time would pay two syscalls a record.
/// Such writes wait in the stdio buffer until it fills, or until Sync,
/// Size or Truncate flushes it. Any read, truncate or failed write
/// forgets the position, so the next write seeks again (C requires a
/// seek between input and output on one stream).
class StdioFile final : public VfsFile {
 public:
  explicit StdioFile(std::FILE* f) : f_(f) {}
  ~StdioFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }
  StdioFile(const StdioFile&) = delete;
  StdioFile& operator=(const StdioFile&) = delete;

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t len) override {
    write_end_ = kNoPosition;
    if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0) {
      return Status::IOError("vfs: seek failed");
    }
    size_t got = std::fread(buf, 1, len, f_);
    if (got < len && std::ferror(f_) != 0) {
      std::clearerr(f_);
      return Status::IOError("vfs: read failed");
    }
    return got;
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t len) override {
    if (offset != write_end_) {
      write_end_ = kNoPosition;
      if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0) {
        return Status::IOError("vfs: seek failed");
      }
    }
    if (std::fwrite(buf, 1, len, f_) != len) {
      write_end_ = kNoPosition;
      std::clearerr(f_);
      return Status::IOError("vfs: write failed");
    }
    write_end_ = offset + len;
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    // Flush first so buffered appends are visible to fstat.
    if (std::fflush(f_) != 0) return Status::IOError("vfs: flush failed");
    struct stat st;
    if (::fstat(::fileno(f_), &st) != 0) {
      return Status::IOError("vfs: fstat failed");
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status Sync() override {
    if (std::fflush(f_) != 0) return Status::IOError("vfs: flush failed");
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    write_end_ = kNoPosition;
    if (std::fflush(f_) != 0) return Status::IOError("vfs: flush failed");
    if (::ftruncate(::fileno(f_), static_cast<off_t>(size)) != 0) {
      return Status::IOError("vfs: truncate failed");
    }
    return Status::OK();
  }

 private:
  static constexpr uint64_t kNoPosition = ~uint64_t{0};

  std::FILE* f_;
  /// End offset of the last successful write, where the stream's position
  /// still is; kNoPosition when the next write must seek.
  uint64_t write_end_ = kNoPosition;
};

class StdioVfs final : public Vfs {
 public:
  Result<std::unique_ptr<VfsFile>> Open(const std::string& path,
                                        bool create) override {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    if (f == nullptr) {
      if (!create) return Status::NotFound("vfs: no such file " + path);
      // "wb+" would truncate a file that appeared between the two opens;
      // with a single-process engine that window is theoretical, but "ab"
      // create-then-reopen is just as cheap and never destroys data.
      f = std::fopen(path.c_str(), "ab");
      if (f != nullptr) {
        std::fclose(f);
        f = std::fopen(path.c_str(), "rb+");
      }
      if (f == nullptr) {
        return Status::IOError("vfs: cannot create " + path + ": " +
                               std::strerror(errno));
      }
    }
    return std::unique_ptr<VfsFile>(new StdioFile(f));
  }

  Result<bool> Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status Remove(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return Status::IOError("vfs: cannot remove " + path + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("vfs: cannot rename " + from + " -> " + to +
                             ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("vfs: cannot create directory " + path + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }
};

}  // namespace

Vfs* Vfs::Default() {
  static StdioVfs instance;
  return &instance;
}

// ---------------------------------------------------------------------------
// Fault injection

// Not in the anonymous namespace: FaultInjectionVfs befriends this exact
// (vecdb::pgstub) name so Charge/CheckAlive stay private to the pair.
class FaultInjectionFile final : public VfsFile {
 public:
  FaultInjectionFile(FaultInjectionVfs* owner, std::unique_ptr<VfsFile> base)
      : owner_(owner), base_(std::move(base)) {}

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t len) override {
    return base_->ReadAt(offset, buf, len);
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t len) override {
    auto allowed = owner_->Charge(len);
    if (!allowed.ok()) return allowed.status();
    if (*allowed > 0) {
      // The torn prefix still lands: the crash happens *during* the write.
      VECDB_RETURN_NOT_OK(base_->WriteAt(offset, buf, *allowed));
      // Make the torn bytes observable to a post-crash reader immediately
      // (stdio buffering would otherwise hold them until close).
      VECDB_RETURN_NOT_OK(base_->Sync());
    }
    if (*allowed < len) return Status::IOError("injected crash (torn write)");
    return Status::OK();
  }

  Result<uint64_t> Size() override { return base_->Size(); }

  Status Sync() override {
    VECDB_RETURN_NOT_OK(owner_->CheckAlive());
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    VECDB_RETURN_NOT_OK(owner_->CheckAlive());
    return base_->Truncate(size);
  }

 private:
  FaultInjectionVfs* owner_;
  std::unique_ptr<VfsFile> base_;
};

void FaultInjectionVfs::ArmAfterBytes(uint64_t budget) {
  MutexLock lock(mu_);
  budget_ = budget;
  written_ = 0;
  crashed_ = false;
}

void FaultInjectionVfs::Disarm() {
  MutexLock lock(mu_);
  budget_ = UINT64_MAX;
  crashed_ = false;
}

Result<size_t> FaultInjectionVfs::Charge(size_t want) {
  MutexLock lock(mu_);
  if (crashed_) return Status::IOError("injected crash");
  uint64_t room = budget_ - written_;  // budget_ >= written_ invariant
  size_t allowed = want;
  if (static_cast<uint64_t>(want) > room) {
    allowed = static_cast<size_t>(room);
    crashed_ = true;
  }
  written_ += allowed;
  return allowed;
}

Status FaultInjectionVfs::CheckAlive() const {
  MutexLock lock(mu_);
  if (crashed_) return Status::IOError("injected crash");
  return Status::OK();
}

Result<std::unique_ptr<VfsFile>> FaultInjectionVfs::Open(
    const std::string& path, bool create) {
  if (create) VECDB_RETURN_NOT_OK(CheckAlive());
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> base,
                         base_->Open(path, create));
  return std::unique_ptr<VfsFile>(
      new FaultInjectionFile(this, std::move(base)));
}

Result<bool> FaultInjectionVfs::Exists(const std::string& path) {
  return base_->Exists(path);
}

Status FaultInjectionVfs::Remove(const std::string& path) {
  VECDB_RETURN_NOT_OK(CheckAlive());
  return base_->Remove(path);
}

Status FaultInjectionVfs::Rename(const std::string& from,
                                 const std::string& to) {
  VECDB_RETURN_NOT_OK(CheckAlive());
  return base_->Rename(from, to);
}

Status FaultInjectionVfs::CreateDir(const std::string& path) {
  VECDB_RETURN_NOT_OK(CheckAlive());
  return base_->CreateDir(path);
}

}  // namespace vecdb::pgstub
