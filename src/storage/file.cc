// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace zdb {

Status MemFile::Read(uint64_t offset, size_t n, char* buf) const {
  ReaderLock lock(mu_);
  std::memset(buf, 0, n);
  if (offset >= data_.size()) return Status::OK();
  const size_t avail = data_.size() - offset;
  std::memcpy(buf, data_.data() + offset, avail < n ? avail : n);
  return Status::OK();
}

Status MemFile::Write(uint64_t offset, const char* data, size_t n) {
  WriterLock lock(mu_);
  if (offset + n > data_.size()) data_.resize(offset + n);
  std::memcpy(data_.data() + offset, data, n);
  return Status::OK();
}

Result<std::unique_ptr<PosixFile>> PosixFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<PosixFile>(new PosixFile(fd));
}

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixFile::Read(uint64_t offset, size_t n, char* buf) const {
  std::memset(buf, 0, n);
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, buf + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    if (r == 0) break;  // EOF: remainder stays zero-filled
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PosixFile::Write(uint64_t offset, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd_, data + done, n - done,
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

uint64_t PosixFile::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

Status PosixFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError(std::string("ftruncate: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status PosixFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace zdb
