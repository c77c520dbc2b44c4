// Copyright (c) zdb authors. Licensed under the MIT license.
//
// MappedAllocator: a std-compatible allocator for large, short-lived
// scratch buffers such as the bulk loader's sort buffer. Every
// allocation is its own anonymous mapping and every deallocation unmaps
// it, so the memory goes back to the OS at once.
//
// Through malloc, freeing such a buffer has a lasting cost on glibc: a
// freed mmap'd chunk raises the dynamic mmap threshold to its size (up
// to 32 MiB). Every later allocation below that size then comes from
// the heap, where a buffer freed by a growing vector leaves a hole that
// stays resident. One bulk load of a few hundred thousand entries was
// enough to leave tens of MiB of such holes for the rest of the process.

#ifndef ZDB_COMMON_MAPPED_ALLOCATOR_H_
#define ZDB_COMMON_MAPPED_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>

namespace zdb {

template <typename T>
class MappedAllocator {
 public:
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) noexcept {
    if (p != nullptr) ::munmap(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace zdb

#endif  // ZDB_COMMON_MAPPED_ALLOCATOR_H_
