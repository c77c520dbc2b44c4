// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Page-level before-image version chains and the thread-local snapshot
// view — the storage half of epoch-based snapshot reads (the pin/GC
// half lives in core/epoch.h).
//
// Model: every write batch publishes one write epoch E under the
// exclusive index latch. While the batch runs, the first mutation of a
// page through PageRef::mutable_data() hands the page's cached buffer —
// its *pre-batch* bytes — to the version chain tagged `as_of = E-1`
// ("content at the end of epoch E-1") and writes into a fresh copy, so
// no buffer a reader may hold is ever written again. A reader pinned at
// epoch P resolves a page by taking the first chain entry with
// `as_of >= P` (the oldest image still valid at P); if there is none,
// the live buffer is current for P and the reader takes a counted
// reference to it (BufferPool::FetchAt). The reader looks in the chain
// before and again after taking the live buffer: a buffer taken after a
// handoff is the writer's fresh copy, but the handoff put the true
// image in the chain first, so the second look finds it.
//
// Chains are append-only per page (epochs are monotonic), so entries
// stay sorted by as_of without re-sorting. ReclaimBefore(M) drops every
// entry with as_of < M: no pin below M exists or can be created (the
// epoch manager computes M under its pin mutex), so nothing can look
// those entries up again.
//
// One PageVersions belongs to one index: its epochs tag the entries,
// and its epoch manager reclaims them. Indexes that share a buffer pool
// keep separate tables, so one index's GC never drops another's
// before-images.

#ifndef ZDB_STORAGE_SNAPSHOT_H_
#define ZDB_STORAGE_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace zdb {

/// Counters for the version-chain table. `live`/`bytes` are the current
/// footprint; `saved`/`reclaimed` are lifetime totals (their difference
/// is `live` — the GC reclamation tests assert on exactly that).
struct PageVersionStats {
  uint64_t live = 0;
  uint64_t bytes = 0;
  uint64_t saved = 0;
  uint64_t reclaimed = 0;
};

/// Sharded PageId -> before-image chain table. One instance per index.
/// Thread-safe; see the file comment for the handoff protocol.
class PageVersions {
 public:
  /// A page image shared between the buffer pool, the chains and the
  /// readers holding it. Immutable once a reader can reach it.
  using Buffer = std::shared_ptr<const char[]>;

  explicit PageVersions(uint32_t page_size) : page_size_(page_size) {}
  PageVersions(const PageVersions&) = delete;
  PageVersions& operator=(const PageVersions&) = delete;

  /// Appends `image` (exactly page_size bytes, never written again) as
  /// the pre-batch image of `page` tagged `as_of` and returns true,
  /// unless an entry for that as_of already exists — keep-first: only
  /// the batch's *first* save holds the true pre-batch bytes, and
  /// re-saves (checkpoint + batch sharing a stamp, a page re-loaded
  /// mid-batch, a freed page re-deleted) must not overwrite it. Returns
  /// false then, and the caller still owns `image`.
  bool SaveBeforeImage(PageId page, uint64_t as_of, Buffer image);

  /// First chain entry with as_of >= epoch, or nullptr if the live
  /// buffer is current for `epoch`.
  Buffer Lookup(PageId page, uint64_t epoch) const;

  /// True while any chain entry exists; a pinned fetch skips both chain
  /// looks when false. An entry saved before a buffer handoff that a
  /// reader observed (through the pool shard mutex) is always counted.
  bool empty() const { return live_.load(std::memory_order_acquire) == 0; }

  /// Drops every entry with as_of < min_epoch. Called by the GC thread
  /// once no pin at or below those epochs can exist.
  void ReclaimBefore(uint64_t min_epoch);

  /// Drops everything (index shutdown / reload with no pins).
  void Clear();

  PageVersionStats stats() const;
  uint32_t page_size() const { return page_size_; }

 private:
  struct Entry {
    uint64_t as_of;
    Buffer data;
  };
  struct Shard {
    mutable Mutex mu;
    std::map<PageId, std::vector<Entry>> chains GUARDED_BY(mu);
  };
  static constexpr size_t kShards = 16;

  Shard& shard_for(PageId page) { return shards_[page % kShards]; }
  const Shard& shard_for(PageId page) const { return shards_[page % kShards]; }

  const uint32_t page_size_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> saved_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

/// The non-page index state a pinned reader needs, captured by the
/// writer under the exclusive latch at every publish. Everything here
/// is a value copy — a reader holding the meta shares nothing mutable
/// with later writers.
struct SnapshotMeta {
  PageId btree_root = kInvalidPageId;
  uint32_t btree_height = 1;
  uint32_t obj_next_oid = 0;
  std::vector<PageId> obj_pages;
  std::vector<PageId> poly_pages;
  uint64_t level_mask = 0;
  uint64_t live_objects = 0;
};

/// A thread-local redirection record: while installed (via
/// SnapshotScope), reads through the tagged components resolve at
/// `epoch` instead of the live state. BTree matches `btree`, the stores
/// match `objects`/`polygons`, and SpatialIndex matches `owner` (level
/// mask / live-object count); each component passes its view to
/// BufferPool::FetchAt, which resolves pages through `versions`. Tags
/// are opaque pointers so storage/ stays ignorant of core/ types.
///
/// Views form a per-thread stack (nested queries — e.g. kNN issuing
/// window sweeps — reuse the installed view; an executor worker
/// installs its own). Lookups walk the stack and match the *innermost*
/// view for the component.
struct SnapshotView {
  uint64_t epoch = 0;
  const PageVersions* versions = nullptr;
  const void* owner = nullptr;
  const void* btree = nullptr;
  const void* objects = nullptr;
  const void* polygons = nullptr;
  std::shared_ptr<const SnapshotMeta> meta;
  const SnapshotView* prev = nullptr;

  static const SnapshotView* FindOwner(const void* owner);
  static const SnapshotView* FindBTree(const void* btree);
  static const SnapshotView* FindObjects(const void* objects);
  static const SnapshotView* FindPolygons(const void* polygons);
};

/// RAII installer for a SnapshotView on the current thread. The view is
/// copied in; the scope must be destroyed on the thread that created it
/// (strictly nested, like any TLS stack).
class SnapshotScope {
 public:
  explicit SnapshotScope(SnapshotView view);
  ~SnapshotScope();
  SnapshotScope(const SnapshotScope&) = delete;
  SnapshotScope& operator=(const SnapshotScope&) = delete;

 private:
  SnapshotView view_;
};

/// The writer half of the protocol: while installed on a thread, the
/// first mutation of each page through PageRef::mutable_data() (and
/// every BufferPool::Delete) on that thread saves the page's pre-batch
/// image into `versions` tagged `stamp - 1`. The index's writer section
/// installs one for the batch that will publish epoch `stamp`. Not
/// nestable; destroy on the creating thread.
class VersioningScope {
 public:
  VersioningScope(PageVersions* versions, uint64_t stamp);
  ~VersioningScope();
  VersioningScope(const VersioningScope&) = delete;
  VersioningScope& operator=(const VersioningScope&) = delete;

  /// The scope installed on this thread, or nullptr.
  static const VersioningScope* Current();

  PageVersions* versions() const { return versions_; }
  uint64_t stamp() const { return stamp_; }

 private:
  PageVersions* versions_;
  uint64_t stamp_;
};

}  // namespace zdb

#endif  // ZDB_STORAGE_SNAPSHOT_H_
