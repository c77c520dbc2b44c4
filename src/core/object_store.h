// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Fixed-record heap file mapping ObjectId -> ObjectRecord through the
// buffer pool (every fetch that misses the pool is a page access). Object
// ids are dense and assigned in insertion order, so consecutively
// inserted objects cluster on pages — as a sequentially loaded 1989 data
// file would.

#ifndef ZDB_CORE_OBJECT_STORE_H_
#define ZDB_CORE_OBJECT_STORE_H_

#include <vector>

#include "common/result.h"
#include "core/object.h"
#include "storage/buffer_pool.h"

namespace zdb {

class ObjectStore {
 public:
  explicit ObjectStore(BufferPool* pool);

  /// Appends a live record; returns its id. NoSpace once the append
  /// cursor reaches kObjectIdLimit.
  Result<ObjectId> Insert(const Rect& mbr, uint32_t payload = 0);

  /// Writes a live record under a caller-chosen id (sharded engines
  /// replicate one global oid into several stores). The page directory
  /// grows with kInvalidPageId holes for any skipped pages; freshly
  /// allocated pages come zeroed from the pool, so skipped slots inside
  /// an allocated page decode as dead records. Fails if `oid` already
  /// names a live record, and with InvalidArgument if `oid` is at or
  /// above kObjectIdLimit.
  Status InsertAt(ObjectId oid, const Rect& mbr, uint32_t payload = 0);

  /// Fetches a record (including dead ones; check `live`).
  Result<ObjectRecord> Fetch(ObjectId oid);

  /// Overwrites a record in place (kind/payload fix-ups).
  Status Rewrite(ObjectId oid, const ObjectRecord& rec);

  /// Marks a record dead. The slot is not recycled (the 1989 comparisons
  /// consider growing files; liveness suffices for correctness).
  Status Erase(ObjectId oid);

  /// One past the highest id ever written (including dead records and,
  /// in sharded stores, ids this store never saw — those read as holes).
  uint32_t size() const { return next_oid_; }

  /// Heap pages allocated.
  uint32_t page_count() const {
    return static_cast<uint32_t>(pages_.size());
  }

  uint32_t records_per_page() const { return per_page_; }

  /// Page directory and append cursor (for persistence).
  const std::vector<PageId>& pages() const { return pages_; }
  void Restore(std::vector<PageId> pages, uint32_t next_oid) {
    pages_ = std::move(pages);
    next_oid_ = next_oid;
  }

 private:
  BufferPool* pool_;
  uint32_t per_page_;
  uint32_t next_oid_ = 0;
  std::vector<PageId> pages_;  ///< page directory, oid / per_page_ -> page
};

}  // namespace zdb

#endif  // ZDB_CORE_OBJECT_STORE_H_
