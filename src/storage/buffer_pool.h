// Copyright (c) zdb authors. Licensed under the MIT license.
//
// LRU buffer pool over a Pager. Callers pin pages through RAII PageRefs;
// unpinned pages stay cached until evicted, and only pool misses and dirty
// write-backs reach the pager's I/O counters. Benches control the cache
// regime by sizing the pool (e.g. "root page only" to mirror the 1989
// experimental setups).
//
// Concurrency: the pool is safe for concurrent Fetch/New/Delete and for
// concurrent PageRef release. The page table is sharded by page id; each
// shard has its own mutex, frames, free list and LRU clock, so readers on
// different shards never contend. Pin counts are atomics released without
// a lock; eviction only considers frames whose pin count is zero *while
// holding the shard lock*, and new pins are only created under that same
// lock, so eviction can never race a pin. Small pools (< 32 frames) use a
// single shard, preserving the exact global-LRU semantics the cold-cache
// experiments rely on. FlushAll/Clear lock all shards and are intended to
// be called from one thread with no concurrent mutators.
//
// Page buffers are reference-counted. A pinned snapshot reader
// (FetchAt) takes a counted reference to the cached buffer instead of a
// frame pin, so it never blocks eviction, Delete or Discard, and the
// bytes it holds stay valid after the frame is reused: a buffer a
// reader may hold is never written again (see storage/snapshot.h for
// the writer's buffer handoff). A frame gets a fresh buffer whenever it
// loads or creates a page.
//
// A snapshot reader's miss reads the page outside the shard lock, so
// hits and misses on other pages of the shard do not queue behind the
// read (a writer's Fetch still loads under it). The reader caches what
// it read only if nothing that can change a page on disk happened in
// the shard meanwhile (Shard::generation); otherwise it keeps the bytes
// to itself, and FetchAt's second look in the version chain decides
// what it sees, exactly as for a load under the lock.

#ifndef ZDB_STORAGE_BUFFER_POOL_H_
#define ZDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace zdb {

class BufferPool;

/// RAII pin on a cached page. While a PageRef is alive the frame cannot be
/// evicted and its data pointer stays valid. Move-only. A PageRef may be
/// released from any thread.
///
/// A PageRef can also be backed by an immutable page buffer instead of
/// a pinned frame (returned by BufferPool::FetchAt). Such a ref holds no
/// pin — it shares ownership of a cached or version-chain buffer — and
/// aborts on mutable_data(): snapshot pages are read-only by
/// construction.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return pool_ != nullptr || snap_ != nullptr; }
  PageId id() const;

  /// Read-only view of the page bytes.
  const char* data() const;

  /// Mutable view; automatically marks the page dirty. Under an
  /// installed VersioningScope, the batch's first call hands the page's
  /// pre-batch buffer to the version chains and returns a fresh copy,
  /// so pointers from earlier data() calls keep reading the pre-batch
  /// bytes: re-read data() after the first mutable_data().
  char* mutable_data();

  /// Drops the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, uint32_t shard, uint32_t frame)
      : pool_(pool), shard_(shard), frame_(frame) {}
  PageRef(PageVersions::Buffer snap, PageId id)
      : snap_(std::move(snap)), snap_id_(id) {}

  BufferPool* pool_ = nullptr;
  uint32_t shard_ = 0;
  uint32_t frame_ = 0;
  PageVersions::Buffer snap_;
  PageId snap_id_ = kInvalidPageId;
};

/// Fixed-capacity page cache with sharded LRU replacement and pin counts.
class BufferPool {
 public:
  /// `capacity` is the total number of page frames (>= 1).
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the pager on a miss. Thread-safe.
  /// The live read and write path.
  [[nodiscard]] Result<PageRef> Fetch(PageId id);

  /// Resolves page `id` at `view`'s pinned epoch: the version-chain
  /// image if one covers the epoch, otherwise a counted reference to
  /// the cached buffer (read from the pager on a miss). The ref holds
  /// no frame pin. Counts hits, misses and pages pinned like Fetch.
  /// Thread-safe.
  /// A null `view` is the live Fetch, so components that may run under
  /// a snapshot view pass whatever view covers them.
  [[nodiscard]] Result<PageRef> FetchAt(const SnapshotView* view, PageId id);

  /// Allocates a fresh page, pinned and zero-filled (and dirty). If a
  /// pinned reader re-cached the recycled id after it was freed, that
  /// stale frame is dropped first. Thread-safe.
  [[nodiscard]] Result<PageRef> New();

  /// Removes page `id` from the pool (must be unpinned) and frees it in
  /// the pager. Under an installed VersioningScope the page's pre-batch
  /// image is saved to the chains first.
  [[nodiscard]] Status Delete(PageId id);

  /// Writes back every dirty unpinned page. If dirty pages remain pinned
  /// after that, returns InvalidArgument naming how many pins block the
  /// flush and which page — everything flushable has still been written,
  /// so retrying after releasing the pins completes the flush.
  [[nodiscard]] Status FlushAll();

  /// Writes back every dirty page, *including* pinned ones. Only safe
  /// when no mutator can race the write-back — i.e. the caller excludes
  /// all writers (the group-commit thread holds the index commit mutex)
  /// and remaining pins are read-only. Readers never mutate frame bytes,
  /// so copying a reader-pinned frame to the pager is a consistent
  /// snapshot; the frame stays cached and pinned afterwards.
  [[nodiscard]] Status FlushForCommit();

  /// Writes back everything and drops the cache (keeps capacity).
  [[nodiscard]] Status Clear();

  /// Drops every cached page WITHOUT writing dirty frames back, so the
  /// cache afterwards reflects exactly what is on disk. Fails (dropping
  /// nothing) if any frame is pinned. Pairs with Pager::AbortBatch():
  /// once the file is rolled back, discarding the partially mutated
  /// cache makes subsequent fetches reload the restored images. Like
  /// FlushAll/Clear, intended for one thread with no concurrent
  /// mutators.
  [[nodiscard]] Status Discard();

  Pager* pager() const { return pager_; }
  size_t capacity() const { return capacity_; }

  /// Number of table shards (1 for small pools).
  size_t shard_count() const { return shards_.size(); }

  /// Pages currently cached. Takes every shard lock; diagnostics use.
  size_t cached_pages() const;

  /// Frames currently pinned by live PageRefs. Takes every shard lock;
  /// diagnostics use (e.g. verifying no pins remain before Checkpoint).
  size_t pinned_pages() const;

 private:
  friend class PageRef;

  /// Frame fields are deliberately NOT GUARDED_BY(shard mu): id/data are
  /// read by pinned PageRefs without the shard lock (the pin count — not
  /// the mutex — is what keeps them stable), and pins/dirty are atomics.
  /// id, data and last_used are only *mutated* under the shard lock
  /// (FetchAt copies `data` under it too). `data` is null while the
  /// frame is free. save_stamp marks the versioning batch whose
  /// before-image save this frame already performed (0 = none since
  /// load); it is written under the shard lock on load and by the
  /// single armed mutator otherwise.
  struct Frame {
    PageId id = kInvalidPageId;
    std::shared_ptr<char[]> data;
    std::atomic<uint32_t> pins{0};
    std::atomic<bool> dirty{false};
    uint64_t last_used = 0;
    std::atomic<uint64_t> save_stamp{0};
  };

  struct Shard {
    mutable Mutex mu;
    std::vector<Frame> frames;  ///< fixed at construction; see Frame note
    std::vector<uint32_t> free_frames GUARDED_BY(mu);
    std::unordered_map<PageId, uint32_t> table GUARDED_BY(mu);
    uint64_t tick GUARDED_BY(mu) = 0;
    /// Bumped by everything that may change a page of this shard on disk
    /// or its place in the table: write-back, New, Delete (whose pager
    /// Free follows), Clear and Discard (which follows a rollback).
    uint64_t generation GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(PageId id) {
    return shards_[static_cast<size_t>(id) & shard_mask_];
  }

  void Unpin(uint32_t shard, uint32_t frame);
  static void Touch(Shard& s, uint32_t frame) REQUIRES(s.mu) {
    s.frames[frame].last_used = ++s.tick;
  }

  /// Finds a frame to (re)use within the shard, evicting the LRU unpinned
  /// page if needed.
  Result<uint32_t> AcquireFrame(Shard& s) REQUIRES(s.mu);

  /// Writes frame `f` (which must belong to shard `s`) back to the pager
  /// if dirty. The shard reference is the capability token.
  Status WriteBack(Shard& s, Frame* f) REQUIRES(s.mu);

  /// Shared body of FlushAll/FlushForCommit.
  Status FlushInternal(bool include_pinned);

  /// Fetch's hit/miss step: the frame caching `id`, read from the pager
  /// into a fresh buffer on a miss. Counts the hit or miss and the page
  /// pinned.
  Result<uint32_t> FindOrLoad(Shard& s, PageId id) REQUIRES(s.mu);

  /// FetchAt's cache step: the cached buffer of `id`, or on a miss a
  /// fresh buffer read outside the shard lock (cached afterwards unless
  /// the shard's generation moved). Counts like FindOrLoad.
  Result<PageVersions::Buffer> ReadShared(PageId id);

  /// Body of PageRef::mutable_data(): marks the frame dirty and, on the
  /// batch's first mutation under a VersioningScope, hands the buffer to
  /// the chains and swaps in a fresh copy. Returns the bytes to write.
  char* PrepareWrite(uint32_t shard, uint32_t frame);

  Pager* pager_;
  size_t capacity_;
  size_t shard_mask_;            ///< shard count - 1 (power of two)
  std::vector<Shard> shards_;
};

}  // namespace zdb

#endif  // ZDB_STORAGE_BUFFER_POOL_H_
