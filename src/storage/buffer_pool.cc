// Copyright (c) zdb authors. Licensed under the MIT license.

#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>
#include <string>

namespace zdb {

namespace {

/// Shards are only worth their capacity fragmentation for pools large
/// enough that per-shard LRU behaves like global LRU. Below 2 * 16 frames
/// a single shard keeps the exact historical semantics.
constexpr size_t kMinFramesPerShard = 16;
constexpr size_t kMaxShards = 16;

size_t PickShardCount(size_t capacity) {
  size_t n = 1;
  while (n * 2 <= kMaxShards && capacity / (n * 2) >= kMinFramesPerShard) {
    n *= 2;
  }
  return n;
}

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    snap_ = std::move(other.snap_);
    snap_id_ = other.snap_id_;
    other.pool_ = nullptr;
    other.snap_.reset();
  }
  return *this;
}

PageId PageRef::id() const {
  assert(valid());
  if (snap_ != nullptr) return snap_id_;
  return pool_->shards_[shard_].frames[frame_].id;
}

const char* PageRef::data() const {
  assert(valid());
  if (snap_ != nullptr) return snap_.get();
  return pool_->shards_[shard_].frames[frame_].data.get();
}

char* PageRef::mutable_data() {
  assert(valid());
  if (snap_ != nullptr) {
    internal::LockAssertFail("mutable_data() on a snapshot-backed page");
  }
  return pool_->PrepareWrite(shard_, frame_);
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_, frame_);
    pool_ = nullptr;
  }
  snap_.reset();
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager),
      capacity_(capacity),
      shards_(PickShardCount(capacity)) {
  assert(capacity >= 1);
  shard_mask_ = shards_.size() - 1;
  // Distribute frames round-robin so every shard gets within one frame of
  // capacity / shards.
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t n =
        capacity / shards_.size() + (s < capacity % shards_.size() ? 1 : 0);
    Shard& sh = shards_[s];
    sh.frames = std::vector<Frame>(n);
    sh.free_frames.reserve(n);
    for (size_t i = n; i > 0; --i) {
      sh.free_frames.push_back(static_cast<uint32_t>(i - 1));
    }
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back; errors here have nowhere to go.
  (void)FlushAll();
}

void BufferPool::Unpin(uint32_t shard, uint32_t frame) {
  Frame& f = shards_[shard].frames[frame];
  // Release order: pairs with the acquire load in AcquireFrame so an
  // evictor that observes pins == 0 also observes this pin's page writes.
  const uint32_t prev = f.pins.fetch_sub(1, std::memory_order_release);
  assert(prev > 0);
  (void)prev;
}

Status BufferPool::WriteBack(Shard& s, Frame* f) {
  (void)s;  // capability token: proves the frame's shard lock is held
  if (!f->dirty.load(std::memory_order_relaxed)) return Status::OK();
  ZDB_RETURN_IF_ERROR(pager_->WritePage(f->id, f->data.get()));
  f->dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

Result<uint32_t> BufferPool::AcquireFrame(Shard& s) {
  if (!s.free_frames.empty()) {
    uint32_t idx = s.free_frames.back();
    s.free_frames.pop_back();
    return idx;
  }
  // Evict the least-recently-used unpinned frame of this shard.
  uint32_t victim = static_cast<uint32_t>(s.frames.size());
  uint64_t best = UINT64_MAX;
  for (uint32_t i = 0; i < s.frames.size(); ++i) {
    const Frame& f = s.frames[i];
    if (f.pins.load(std::memory_order_acquire) == 0 && f.last_used < best) {
      best = f.last_used;
      victim = i;
    }
  }
  if (victim == s.frames.size()) {
    return Status::NoSpace("buffer pool exhausted: all pages pinned");
  }
  Frame& f = s.frames[victim];
  ZDB_RETURN_IF_ERROR(WriteBack(s, &f));
  ++pager_->mutable_io_stats()->pool_evictions;
  // New() may have orphaned this frame (see there): only unmap the id
  // if it still maps here.
  auto it = s.table.find(f.id);
  if (it != s.table.end() && it->second == victim) s.table.erase(it);
  f.id = kInvalidPageId;
  f.data.reset();
  return victim;
}

char* BufferPool::PrepareWrite(uint32_t shard, uint32_t frame) {
  Shard& s = shards_[shard];
  Frame& f = s.frames[frame];
  // Only the single armed mutator (exclusive index latch) of this page
  // reaches here under a scope, so the stamp comparison cannot race
  // another writer; its own pin keeps the frame from being reused.
  const VersioningScope* vs = VersioningScope::Current();
  if (vs != nullptr &&
      f.save_stamp.load(std::memory_order_relaxed) != vs->stamp()) {
    // First mutation of the page in this batch: its buffer is the
    // pre-batch image, which pinned readers may hold or still need.
    // Hand it to the chain and write into a fresh copy. If the chain
    // already holds this batch's image (keep-first: the page was
    // re-loaded after a mid-batch eviction), no reader resolves to this
    // buffer, so it is mutated in place; swapping it would drop the
    // last reference to bytes the writer may still point into.
    MutexLock lock(s.mu);
    if (vs->versions()->SaveBeforeImage(f.id, vs->stamp() - 1, f.data)) {
      const uint32_t n = pager_->page_size();
      std::shared_ptr<char[]> fresh =
          std::make_shared_for_overwrite<char[]>(n);
      std::memcpy(fresh.get(), f.data.get(), n);
      f.data = std::move(fresh);
    }
    f.save_stamp.store(vs->stamp(), std::memory_order_relaxed);
  }
  f.dirty.store(true, std::memory_order_relaxed);
  return f.data.get();
}

Result<uint32_t> BufferPool::FindOrLoad(Shard& s, PageId id) {
  ThreadIoStats* tls = GetThreadIoStats();
  auto it = s.table.find(id);
  if (it != s.table.end()) {
    ++pager_->mutable_io_stats()->pool_hits;
    if (tls != nullptr) {
      ++tls->pool_hits;
      ++tls->pages_pinned;
    }
    Touch(s, it->second);
    return it->second;
  }
  ++pager_->mutable_io_stats()->pool_misses;
  if (tls != nullptr) ++tls->pool_misses;
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, AcquireFrame(s));
  Frame& f = s.frames[idx];
  // Always a fresh buffer: a reader may still hold the previous one.
  f.data = std::make_shared_for_overwrite<char[]>(pager_->page_size());
  Status st = pager_->ReadPage(id, f.data.get());
  if (!st.ok()) {
    f.data.reset();
    s.free_frames.push_back(idx);
    return st;
  }
  f.id = id;
  f.dirty.store(false, std::memory_order_relaxed);
  // Freshly loaded bytes may be the pre-batch image (or a mid-batch
  // re-load after eviction): force the next mutation through the save
  // path and let keep-first dedup sort out which case it was.
  f.save_stamp.store(0, std::memory_order_relaxed);
  s.table[id] = idx;
  Touch(s, idx);
  if (tls != nullptr) ++tls->pages_pinned;
  return idx;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  const uint32_t sidx = static_cast<uint32_t>(id) & shard_mask_;
  Shard& s = shards_[sidx];
  MutexLock lock(s.mu);
  uint32_t idx;
  ZDB_ASSIGN_OR_RETURN(idx, FindOrLoad(s, id));
  s.frames[idx].pins.fetch_add(1, std::memory_order_relaxed);
  return PageRef(this, sidx, idx);
}

Result<PageRef> BufferPool::FetchAt(const SnapshotView* view, PageId id) {
  if (view == nullptr) return Fetch(id);
  const PageVersions& versions = *view->versions;
  // Chain first: a page a concurrent batch mutated or freed resolves
  // here without touching (or re-caching) the live page.
  if (!versions.empty()) {
    if (PageVersions::Buffer b = versions.Lookup(id, view->epoch)) {
      ++pager_->mutable_io_stats()->pool_hits;
      ThreadIoStats* tls = GetThreadIoStats();
      if (tls != nullptr) {
        ++tls->pool_hits;
        ++tls->pages_pinned;
      }
      return PageRef(std::move(b), id);
    }
  }
  PageVersions::Buffer live;
  Status st;
  {
    Shard& s = shard_for(id);
    MutexLock lock(s.mu);
    auto r = FindOrLoad(s, id);
    if (r.ok()) {
      live = s.frames[r.value()].data;
    } else {
      st = r.status();
    }
  }
  // Look again: a buffer taken after a writer's handoff is the writer's
  // fresh copy (and a load racing a Delete reads a freed page), but the
  // writer saved the true image to the chain first, and the shard mutex
  // orders that save before this look.
  if (!versions.empty()) {
    if (PageVersions::Buffer b = versions.Lookup(id, view->epoch)) {
      return PageRef(std::move(b), id);
    }
  }
  ZDB_RETURN_IF_ERROR(st);
  return PageRef(std::move(live), id);
}

Result<PageRef> BufferPool::New() {
  PageId id;
  ZDB_ASSIGN_OR_RETURN(id, pager_->Allocate());
  const uint32_t sidx = static_cast<uint32_t>(id) & shard_mask_;
  Shard& s = shards_[sidx];
  MutexLock lock(s.mu);
  // A pinned reader whose chain miss raced the Delete of this id may
  // have cached it again. Unmap that stale frame, so the id never maps
  // to two frames (evicting the stale one would otherwise unmap the
  // live one, and the next Fetch would read old bytes from the pager).
  if (auto it = s.table.find(id); it != s.table.end()) {
    Frame& stale = s.frames[it->second];
    if (stale.pins.load(std::memory_order_acquire) == 0) {
      stale.dirty.store(false, std::memory_order_relaxed);
      stale.id = kInvalidPageId;
      stale.data.reset();
      s.free_frames.push_back(it->second);
    }
    s.table.erase(it);
  }
  uint32_t idx;
  {
    auto r = AcquireFrame(s);
    if (!r.ok()) {
      // Undo the allocation so the pager does not leak the page.
      (void)pager_->Free(id);
      return r.status();
    }
    idx = r.value();
  }
  Frame& f = s.frames[idx];
  f.data = std::make_shared<char[]>(pager_->page_size());
  f.id = id;
  f.pins.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  // A fresh page has no pre-batch content to preserve (if the id was
  // freed earlier in this batch, the Delete hook already saved it).
  const VersioningScope* vs = VersioningScope::Current();
  f.save_stamp.store(vs != nullptr ? vs->stamp() : 0,
                     std::memory_order_relaxed);
  s.table[id] = idx;
  Touch(s, idx);
  ThreadIoStats* tls = GetThreadIoStats();
  if (tls != nullptr) ++tls->pages_pinned;
  return PageRef(this, sidx, idx);
}

Status BufferPool::Delete(PageId id) {
  const VersioningScope* vs = VersioningScope::Current();
  Shard& s = shard_for(id);
  {
    MutexLock lock(s.mu);
    auto it = s.table.find(id);
    if (it != s.table.end()) {
      Frame& f = s.frames[it->second];
      if (f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("deleting a pinned page");
      }
      // A pinned reader may still need this page at an older epoch:
      // hand its pre-batch image to the chain before the id is
      // recycled. If this batch already mutated the page, the true
      // pre-batch bytes are in the chain and keep-first drops this save.
      if (vs != nullptr &&
          f.save_stamp.load(std::memory_order_relaxed) != vs->stamp()) {
        (void)vs->versions()->SaveBeforeImage(id, vs->stamp() - 1, f.data);
      }
      // Contents are garbage now; never write back.
      f.dirty.store(false, std::memory_order_relaxed);
      f.id = kInvalidPageId;
      f.data.reset();
      s.free_frames.push_back(it->second);
      s.table.erase(it);
    } else if (vs != nullptr) {
      // Uncached: the disk image is the pre-batch image unless this
      // batch mutated the page and it was evicted — in which case the
      // chain already holds the true one and keep-first skips the save.
      std::shared_ptr<char[]> buf =
          std::make_shared_for_overwrite<char[]>(pager_->page_size());
      ZDB_RETURN_IF_ERROR(pager_->ReadPage(id, buf.get()));
      (void)vs->versions()->SaveBeforeImage(id, vs->stamp() - 1,
                                            std::move(buf));
    }
  }
  return pager_->Free(id);
}

Status BufferPool::FlushAll() { return FlushInternal(false); }

Status BufferPool::FlushForCommit() { return FlushInternal(true); }

Status BufferPool::FlushInternal(bool include_pinned) {
  // First pass: write back everything writable. Collect what is blocked
  // instead of failing midway, so the caller never gets a silent partial
  // flush — all flushable pages are durable and the error says exactly
  // what remains. With include_pinned (group-commit mode, writers
  // excluded by the caller) reader pins don't block: the bytes are
  // stable, so a pinned frame is written in place and stays cached.
  size_t blocked = 0;
  PageId first_blocked = kInvalidPageId;
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (auto& f : s.frames) {
      if (f.id == kInvalidPageId ||
          !f.dirty.load(std::memory_order_relaxed)) {
        continue;
      }
      if (!include_pinned && f.pins.load(std::memory_order_acquire) > 0) {
        ++blocked;
        if (first_blocked == kInvalidPageId) first_blocked = f.id;
        continue;
      }
      ZDB_RETURN_IF_ERROR(WriteBack(s, &f));
    }
  }
  if (blocked > 0) {
    return Status::InvalidArgument(
        "cannot flush " + std::to_string(blocked) +
        " dirty page(s) still pinned (e.g. page " +
        std::to_string(first_blocked) +
        "); release all PageRefs/cursors and retry");
  }
  return Status::OK();
}

Status BufferPool::Clear() {
  ZDB_RETURN_IF_ERROR(FlushAll());
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.id != kInvalidPageId) {
        if (f.pins.load(std::memory_order_acquire) > 0) {
          return Status::InvalidArgument("clearing pinned page");
        }
        f.id = kInvalidPageId;
        f.data.reset();
        s.free_frames.push_back(i);
      }
    }
    s.table.clear();
  }
  return Status::OK();
}

Status BufferPool::Discard() {
  // Two passes so a pinned frame fails the whole call before anything
  // is dropped (a half-discarded cache would be worse than either
  // outcome).
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (const auto& f : s.frames) {
      if (f.id != kInvalidPageId &&
          f.pins.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("discarding pinned page " +
                                       std::to_string(f.id));
      }
    }
  }
  for (auto& s : shards_) {
    MutexLock lock(s.mu);
    for (uint32_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.id != kInvalidPageId) {
        f.dirty.store(false, std::memory_order_relaxed);
        f.id = kInvalidPageId;
        f.data.reset();
        s.free_frames.push_back(i);
      }
    }
    s.table.clear();
  }
  return Status::OK();
}

size_t BufferPool::cached_pages() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    n += s.table.size();
  }
  return n;
}

size_t BufferPool::pinned_pages() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    for (const auto& f : s.frames) {
      if (f.id != kInvalidPageId &&
          f.pins.load(std::memory_order_acquire) > 0) {
        ++n;
      }
    }
  }
  return n;
}

}  // namespace zdb
