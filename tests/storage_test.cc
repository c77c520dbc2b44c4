// Copyright (c) zdb authors. Licensed under the MIT license.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "storage/snapshot.h"

namespace zdb {
namespace {

// ------------------------------------------------------------------ files

TEST(MemFile, ZeroFillsPastEof) {
  MemFile f;
  ASSERT_TRUE(f.Write(0, "abc", 3).ok());
  char buf[8];
  std::memset(buf, 'x', sizeof(buf));
  ASSERT_TRUE(f.Read(1, 6, buf).ok());
  EXPECT_EQ(buf[0], 'b');
  EXPECT_EQ(buf[1], 'c');
  EXPECT_EQ(buf[2], 0);
  EXPECT_EQ(buf[5], 0);
  EXPECT_EQ(f.Size(), 3u);
}

TEST(MemFile, SparseWriteExtends) {
  MemFile f;
  ASSERT_TRUE(f.Write(100, "z", 1).ok());
  EXPECT_EQ(f.Size(), 101u);
  char c = 'x';
  ASSERT_TRUE(f.Read(50, 1, &c).ok());
  EXPECT_EQ(c, 0);
}

TEST(PosixFile, RoundTrip) {
  char path[] = "/tmp/zdb_file_test_XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(4096, "hello", 5).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    EXPECT_EQ((*f)->Size(), 4101u);
  }
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok());
    char buf[5];
    ASSERT_TRUE((*f)->Read(4096, 5, buf).ok());
    EXPECT_EQ(std::string(buf, 5), "hello");
    // Reads past EOF zero-fill.
    char past[3];
    ASSERT_TRUE((*f)->Read(10000, 3, past).ok());
    EXPECT_EQ(past[0], 0);
  }
  std::remove(path);
}

// ------------------------------------------------------------------ pager

TEST(Pager, RejectsBadPageSize) {
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 100).ok());
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 1000).ok());
  EXPECT_FALSE(Pager::Open(std::make_unique<MemFile>(), 1 << 20).ok());
  EXPECT_TRUE(Pager::Open(std::make_unique<MemFile>(), 256).ok());
}

TEST(Pager, AllocateReadWrite) {
  auto pager = Pager::OpenInMemory(512);
  auto p1 = pager->Allocate();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);  // page 0 is the header
  std::vector<char> buf(512, 'a');
  ASSERT_TRUE(pager->WritePage(*p1, buf.data()).ok());
  std::vector<char> got(512);
  ASSERT_TRUE(pager->ReadPage(*p1, got.data()).ok());
  EXPECT_EQ(got, buf);
  EXPECT_EQ(pager->io_stats().page_reads, 1u);
  EXPECT_EQ(pager->io_stats().page_writes, 1u);
  EXPECT_EQ(pager->live_page_count(), 1u);
}

TEST(Pager, FreeListRecycles) {
  auto pager = Pager::OpenInMemory(512);
  const PageId a = pager->Allocate().value();
  const PageId b = pager->Allocate().value();
  EXPECT_EQ(pager->live_page_count(), 2u);
  ASSERT_TRUE(pager->Free(a).ok());
  ASSERT_TRUE(pager->Free(b).ok());
  EXPECT_EQ(pager->live_page_count(), 0u);
  // LIFO recycling.
  EXPECT_EQ(pager->Allocate().value(), b);
  EXPECT_EQ(pager->Allocate().value(), a);
  // No new pages were created.
  EXPECT_EQ(pager->page_count(), 3u);
}

TEST(Pager, RejectsInvalidIds) {
  auto pager = Pager::OpenInMemory(512);
  std::vector<char> buf(512);
  EXPECT_FALSE(pager->ReadPage(kInvalidPageId, buf.data()).ok());
  EXPECT_FALSE(pager->ReadPage(99, buf.data()).ok());
  EXPECT_FALSE(pager->WritePage(99, buf.data()).ok());
  EXPECT_FALSE(pager->Free(99).ok());
}

TEST(Pager, PersistsAcrossReopen) {
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  PageId page;
  {
    auto pager = Pager::Open(std::move(file), 512).value();
    page = pager->Allocate().value();
    std::vector<char> buf(512, 'q');
    ASSERT_TRUE(pager->WritePage(page, buf.data()).ok());
    ASSERT_TRUE(pager->Sync().ok());
    // Hand the file back for "reopen" (MemFile has no real identity; we
    // copy its contents into a fresh one).
    file = std::make_unique<MemFile>();
    std::vector<char> all(raw->Size());
    ASSERT_TRUE(raw->Read(0, all.size(), all.data()).ok());
    ASSERT_TRUE(file->Write(0, all.data(), all.size()).ok());
  }
  auto pager = Pager::Open(std::move(file), 512);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->live_page_count(), 1u);
  std::vector<char> got(512);
  ASSERT_TRUE((*pager)->ReadPage(page, got.data()).ok());
  EXPECT_EQ(got[0], 'q');
}

TEST(Pager, ReopenRejectsWrongPageSize) {
  auto file = std::make_unique<MemFile>();
  MemFile* raw = file.get();
  {
    auto pager = Pager::Open(std::move(file), 512).value();
    ASSERT_TRUE(pager->Sync().ok());
    file = std::make_unique<MemFile>();
    std::vector<char> all(raw->Size());
    ASSERT_TRUE(raw->Read(0, all.size(), all.data()).ok());
    ASSERT_TRUE(file->Write(0, all.data(), all.size()).ok());
  }
  EXPECT_FALSE(Pager::Open(std::move(file), 1024).ok());
}

// ------------------------------------------------------------ buffer pool

TEST(BufferPool, HitAndMissAccounting) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[0] = 'z';
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Clear().ok());

  const IoStats before = pager->io_stats();
  {
    auto ref = pool.Fetch(id).value();  // miss
    EXPECT_EQ(ref.data()[0], 'z');
  }
  {
    auto ref = pool.Fetch(id).value();  // hit
    (void)ref;
  }
  const IoStats d = pager->io_stats().Since(before);
  EXPECT_EQ(d.pool_misses, 1u);
  EXPECT_EQ(d.pool_hits, 1u);
  EXPECT_EQ(d.page_reads, 1u);
}

TEST(BufferPool, EvictsLeastRecentlyUsed) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  const PageId a = pool.New().value().id();
  const PageId b = pool.New().value().id();
  ASSERT_TRUE(pool.FlushAll().ok());

  // Touch a, then fetch a third page: b must be evicted.
  (void)pool.Fetch(a).value();
  const PageId c = pool.New().value().id();
  (void)c;
  const IoStats before = pager->io_stats();
  (void)pool.Fetch(a).value();  // still cached -> hit
  EXPECT_EQ(pager->io_stats().Since(before).pool_hits, 1u);
  const IoStats before_b = pager->io_stats();
  (void)pool.Fetch(b).value();  // evicted -> miss
  EXPECT_EQ(pager->io_stats().Since(before_b).pool_misses, 1u);
}

TEST(BufferPool, PinnedPagesAreNotEvicted) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  auto pin1 = pool.New().value();
  auto pin2 = pool.New().value();
  // Pool full of pins: a third page must fail.
  auto third = pool.New();
  EXPECT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsNoSpace());
  pin1.Release();
  EXPECT_TRUE(pool.New().ok());
}

TEST(BufferPool, DirtyPagesAreWrittenBackOnEviction) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 1);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[7] = 'd';
  }
  // Evict by fetching another page.
  const PageId other = pager->Allocate().value();
  std::vector<char> zero(512, 0);
  ASSERT_TRUE(pager->WritePage(other, zero.data()).ok());
  (void)pool.Fetch(other).value();
  // The dirty page reached the file.
  std::vector<char> got(512);
  ASSERT_TRUE(pager->ReadPage(id, got.data()).ok());
  EXPECT_EQ(got[7], 'd');
  EXPECT_GE(pager->io_stats().pool_evictions, 1u);
}

TEST(BufferPool, DeleteDropsPage) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
  }
  ASSERT_TRUE(pool.Delete(id).ok());
  EXPECT_EQ(pager->live_page_count(), 0u);
  // Freed page is recycled by the next New().
  EXPECT_EQ(pool.New().value().id(), id);
}

TEST(BufferPool, DeletePinnedFails) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  auto ref = pool.New().value();
  EXPECT_FALSE(pool.Delete(ref.id()).ok());
}

TEST(BufferPool, MoveSemanticsOfPageRef) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  auto a = pool.New().value();
  const PageId id = a.id();
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  b.Release();
  EXPECT_FALSE(b.valid());
}


// A recycled id must map to one frame. Here a reader re-caches page x
// after it was freed (what a pinned read whose chain miss races a
// Delete does); New() then recycles x for page y. If both frames stayed
// cached, evicting the stale one would unmap the live one and the last
// Fetch(y) would read x's freed bytes from the pager.
TEST(BufferPool, NewDropsAFrameCachedUnderARecycledId) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageId x;
  {
    auto ref = pool.New().value();
    x = ref.id();
    ref.mutable_data()[0] = 'A';
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Delete(x).ok());
  (void)pool.Fetch(x).value();  // re-caches the freed id
  PageId y;
  {
    auto ref = pool.New().value();
    y = ref.id();
    ref.mutable_data()[0] = 'B';
  }
  ASSERT_EQ(y, x);
  (void)pool.New().value();
  (void)pool.New().value();
  (void)pool.Fetch(y).value();
  (void)pool.New().value();
  EXPECT_EQ(pool.Fetch(y).value().data()[0], 'B');
}

// ------------------------------------------- copy-free snapshot fetches

/// A snapshot view at `epoch` over `versions` (storage-level: no meta).
SnapshotView ViewAt(const PageVersions* versions, uint64_t epoch) {
  SnapshotView v;
  v.epoch = epoch;
  v.versions = versions;
  return v;
}

TEST(BufferPool, SnapshotRefHoldsNoPin) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageVersions versions(512);
  const SnapshotView view = ViewAt(&versions, 0);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[0] = 's';
  }
  const IoStats before = pager->io_stats();
  PageRef ref = pool.FetchAt(&view, id).value();
  EXPECT_EQ(pager->io_stats().Since(before).pool_hits, 1u);
  EXPECT_EQ(ref.data()[0], 's');
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(BufferPool, SnapshotMissCachesWhatItRead) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageVersions versions(512);
  const SnapshotView view = ViewAt(&versions, 0);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[0] = 'm';
  }
  ASSERT_TRUE(pool.Clear().ok());
  const IoStats before = pager->io_stats();
  EXPECT_EQ(pool.FetchAt(&view, id).value().data()[0], 'm');
  EXPECT_EQ(pool.cached_pages(), 1u);
  EXPECT_EQ(pool.FetchAt(&view, id).value().data()[0], 'm');
  const IoStats d = pager->io_stats().Since(before);
  EXPECT_EQ(d.pool_misses, 1u);
  EXPECT_EQ(d.page_reads, 1u);
  EXPECT_EQ(d.pool_hits, 1u);
}

// A snapshot miss reads outside the shard lock. If the page is written
// back (and dropped) while that read is in flight, the bytes it got may
// predate the write, so they serve that read only and are not cached.
TEST(BufferPool, SnapshotMissRacingAWriteBackIsNotCached) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 4);
  PageVersions versions(512);
  const SnapshotView view = ViewAt(&versions, 0);
  PageId id;
  {
    auto ref = pool.New().value();
    id = ref.id();
    ref.mutable_data()[0] = 'o';
  }
  ASSERT_TRUE(pool.Clear().ok());

  pager->set_simulated_read_latency_us(500000);
  std::atomic<bool> started{false};
  Status read_status;
  std::thread reader([&] {
    started.store(true);
    read_status = pool.FetchAt(&view, id).status();
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pager->set_simulated_read_latency_us(0);
  {
    auto ref = pool.Fetch(id).value();
    ref.mutable_data()[0] = 'w';
  }
  ASSERT_TRUE(pool.Clear().ok());  // writes the page back and drops it
  reader.join();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(pool.cached_pages(), 0u);
  EXPECT_EQ(pool.FetchAt(&view, id).value().data()[0], 'w');
}

TEST(BufferPool, SnapshotRefOutlivesDeleteAndEviction) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 2);
  PageVersions versions(512);
  const SnapshotView view = ViewAt(&versions, 0);
  PageId a, b;
  {
    auto ref = pool.New().value();
    a = ref.id();
    std::memset(ref.mutable_data(), 'a', 512);
  }
  {
    auto ref = pool.New().value();
    b = ref.id();
    std::memset(ref.mutable_data(), 'b', 512);
  }
  PageRef ra = pool.FetchAt(&view, a).value();
  PageRef rb = pool.FetchAt(&view, b).value();
  // Both succeed although the refs are alive: they hold no pins.
  ASSERT_TRUE(pool.Delete(a).ok());
  auto fresh = pool.New().value();  // recycles a's id
  std::memset(fresh.mutable_data(), 'n', 512);
  auto other = pool.New().value();  // evicts b
  fresh.Release();
  other.Release();
  EXPECT_GE(pager->io_stats().pool_evictions, 1u);
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(ra.data()[i], 'a') << i;
    ASSERT_EQ(rb.data()[i], 'b') << i;
  }
}

// Readers at epoch 0 fetch pages while a writer runs three batches that
// mutate, free and recycle them through a pool too small to hold them
// all: every byte a reader sees must be the epoch-0 image.
TEST(BufferPool, PinnedReadersSeePreBatchImagesUnderWriterChurn) {
  constexpr uint32_t kPageSize = 512;
  constexpr size_t kPages = 48;
  auto pager = Pager::OpenInMemory(kPageSize);
  BufferPool pool(pager.get(), 16);
  PageVersions versions(kPageSize);
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto ref = pool.New().value();
    ids.push_back(ref.id());
    std::memset(ref.mutable_data(), static_cast<int>(1 + i), kPageSize);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  auto pattern = [&](PageId id) -> char {
    for (size_t i = 0; i < kPages; ++i) {
      if (ids[i] == id) return static_cast<char>(1 + i);
    }
    return 0;
  };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const SnapshotView view = ViewAt(&versions, 0);
      std::mt19937 rng(t);
      bool last = false;
      while (!last) {
        last = done.load(std::memory_order_acquire);
        for (int n = 0; n < 64; ++n) {
          const PageId id = ids[rng() % kPages];
          auto r = pool.FetchAt(&view, id);
          if (!r.ok()) {
            ++failures;
            continue;
          }
          const char want = pattern(id);
          for (uint32_t i = 0; i < kPageSize; ++i) {
            if (r.value().data()[i] != want) {
              ++failures;
              break;
            }
          }
        }
      }
    });
  }

  std::mt19937 rng(42);
  std::set<PageId> live(ids.begin(), ids.end());
  for (uint64_t stamp = 1; stamp <= 3; ++stamp) {
    VersioningScope batch(&versions, stamp);
    std::vector<PageId> freed;
    for (PageId id : std::vector<PageId>(live.begin(), live.end())) {
      const uint32_t dice = rng() % 4;
      if (dice == 0) {
        ASSERT_TRUE(pool.Delete(id).ok());
        live.erase(id);
        freed.push_back(id);
      } else if (dice != 1) {
        auto ref = pool.Fetch(id).value();
        std::memset(ref.mutable_data(), 0x70 + static_cast<int>(stamp),
                    kPageSize);
        ref.mutable_data()[0] = 'w';
      }
    }
    for (size_t i = 0; i < freed.size(); ++i) {
      auto ref = pool.New().value();
      live.insert(ref.id());
      std::memset(ref.mutable_data(), 0x60, kPageSize);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(versions.stats().saved, 0u);
}

}  // namespace
}  // namespace zdb
