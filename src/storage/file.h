// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Byte-addressable file abstraction under the pager. Two implementations:
// PosixFile (pread/pwrite on a real file) and MemFile (an in-memory vector,
// used by tests and by benches that measure logical rather than physical
// I/O — the page-access counters in the pager are identical either way).

#ifndef ZDB_STORAGE_FILE_H_
#define ZDB_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"

namespace zdb {

/// Random-access file of bytes. Reads of unwritten ranges return zeros so
/// the pager can treat the file as a sparse array of pages. Read may run
/// concurrently with any call, Read included; the other calls are
/// serialized by the caller. A read racing a write of the same range may
/// return either content or a mix.
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly n bytes at offset into buf (zero-filling past EOF).
  virtual Status Read(uint64_t offset, size_t n, char* buf) const = 0;

  /// Writes n bytes at offset, extending the file as needed.
  virtual Status Write(uint64_t offset, const char* data, size_t n) = 0;

  /// Current size in bytes.
  virtual uint64_t Size() const = 0;

  /// Shrinks or extends the file to exactly `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Forces written data to stable storage (no-op for MemFile).
  virtual Status Sync() = 0;
};

/// Heap-backed file for tests and logical-I/O benchmarking. A growing
/// write reallocates the bytes, so every access takes an internal lock.
class MemFile : public File {
 public:
  Status Read(uint64_t offset, size_t n, char* buf) const override;
  Status Write(uint64_t offset, const char* data, size_t n) override;
  uint64_t Size() const override {
    ReaderLock lock(mu_);
    return data_.size();
  }
  Status Truncate(uint64_t size) override {
    WriterLock lock(mu_);
    data_.resize(size);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }

  /// Deep copy for crash-simulation tests.
  std::vector<char> Snapshot() const {
    ReaderLock lock(mu_);
    return data_;
  }
  void RestoreSnapshot(std::vector<char> snapshot) {
    WriterLock lock(mu_);
    data_ = std::move(snapshot);
  }

 private:
  mutable SharedMutex mu_;
  std::vector<char> data_ GUARDED_BY(mu_);
};

/// pread/pwrite-backed file.
class PosixFile : public File {
 public:
  /// Opens (creating if absent) the file at path for read/write.
  static Result<std::unique_ptr<PosixFile>> Open(const std::string& path);

  ~PosixFile() override;
  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  Status Read(uint64_t offset, size_t n, char* buf) const override;
  Status Write(uint64_t offset, const char* data, size_t n) override;
  uint64_t Size() const override;
  Status Truncate(uint64_t size) override;
  Status Sync() override;

 private:
  explicit PosixFile(int fd) : fd_(fd) {}
  int fd_;
};

}  // namespace zdb

#endif  // ZDB_STORAGE_FILE_H_
