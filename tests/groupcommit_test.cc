// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The off-latch group-commit durability pipeline: batches published
// under the latch coalesce into fewer journal commits, durability
// waiters complete in epoch order through the durable watermark, and a
// crash between publish and commit rolls published batches back as
// units — never partially. Runs under TSan (label "groupcommit"), so
// the durability thread's handoffs are race-checked here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/commit_sink.h"
#include "core/spatial_index.h"
#include "shard/router.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "zdb/db.h"

namespace zdb {
namespace {

/// Journaled in-memory rig with crash simulation, plus a group-commit
/// aware baseline builder (the baseline commits synchronously BEFORE the
/// pipeline starts, so it is the initial durable group boundary).
struct GroupRig {
  GroupRig() {
    auto db_file = std::make_unique<MemFile>();
    auto journal_file = std::make_unique<MemFile>();
    db = db_file.get();
    journal = journal_file.get();
    pager =
        Pager::Open(std::move(db_file), std::move(journal_file), 512).value();
    pool = std::make_unique<BufferPool>(pager.get(), 64);
  }

  /// Creates the index, inserts `n` baseline objects on a diagonal,
  /// checkpoints and commits synchronously.
  std::unique_ptr<SpatialIndex> Baseline(int n) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(pool.get(), opt).value();
    EXPECT_TRUE(pager->BeginBatch().ok());
    for (int i = 0; i < n; ++i) {
      const double x = 0.8 * i / n + 0.01;
      EXPECT_TRUE(index->Insert(Rect{x, x, x + 0.004, x + 0.004}).ok());
    }
    master = index->Checkpoint().value();
    EXPECT_TRUE(pool->FlushAll().ok());
    EXPECT_TRUE(pager->CommitBatch().ok());
    return index;
  }

  /// Simulates a crash: snapshots both files NOW (while the doomed index
  /// and its durability thread may still be alive) for a later reopen.
  void SnapshotForCrash() {
    db_snapshot = db->Snapshot();
    journal_snapshot = journal->Snapshot();
  }

  /// Reopens fresh structures from the crash snapshots (recovery runs
  /// inside Pager::Open). The old index must be destroyed first.
  std::unique_ptr<SpatialIndex> Reopen() {
    auto db_copy = std::make_unique<MemFile>();
    db_copy->RestoreSnapshot(db_snapshot);
    auto journal_copy = std::make_unique<MemFile>();
    journal_copy->RestoreSnapshot(journal_snapshot);
    db = db_copy.get();
    journal = journal_copy.get();
    pool.reset();
    pager = Pager::Open(std::move(db_copy), std::move(journal_copy), 512)
                .value();
    pool = std::make_unique<BufferPool>(pager.get(), 64);
    return SpatialIndex::Open(pool.get(), master).value();
  }

  MemFile* db;
  MemFile* journal;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
  PageId master = kInvalidPageId;
  std::vector<char> db_snapshot;
  std::vector<char> journal_snapshot;
};

WriteBatch InsertBatch(double x, int n = 1) {
  WriteBatch b;
  for (int i = 0; i < n; ++i) {
    b.Insert(Rect{x, 0.9, x + 0.004, 0.95});
    x += 0.005;
  }
  return b;
}

TEST(GroupCommit, WritersCoalesceIntoFewerCommitsThanBatches) {
  GroupRig rig;
  auto index = rig.Baseline(50);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  // Freeze the durability thread so every published batch lands in the
  // same armed journal batch, then publish from k writer threads.
  index->SetGroupCommitPaused(true);
  const uint64_t commits_before = rig.pager->commit_count();
  const uint64_t durable_before = index->durable_epoch();

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 5;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        auto r = index->ApplyBatch(
            InsertBatch(0.01 + 0.03 * (w * kBatchesPerWriter + b)),
            Durability::kPublished);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& t : writers) t.join();

  // Published: readers see all 20 batches; nothing is durable yet and
  // the journal has not committed.
  EXPECT_EQ(index->object_count(), 70u);
  EXPECT_EQ(index->durable_epoch(), durable_before);
  EXPECT_EQ(rig.pager->commit_count(), commits_before);

  // Resume: the pipeline must make everything durable with FEWER journal
  // commits than batches — one group, in the usual case.
  index->SetGroupCommitPaused(false);
  const uint64_t last_epoch = index->write_epoch();
  ASSERT_TRUE(index->WaitDurable(last_epoch).ok());

  const uint64_t commits = rig.pager->commit_count() - commits_before;
  EXPECT_GE(commits, 1u);
  EXPECT_LT(commits, static_cast<uint64_t>(kWriters * kBatchesPerWriter));
  EXPECT_GE(index->durable_epoch(), last_epoch);
}

TEST(GroupCommit, WaitersCompleteInEpochOrder) {
  GroupRig rig;
  auto index = rig.Baseline(30);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  // Each writer publishes under a turn mutex so it learns its batch's
  // exact epoch, then waits for durability. Completion contract: a
  // waiter for epoch e may only return OK once the durable watermark has
  // reached e — so at every completion, every batch with a smaller
  // epoch is durable too (strict epoch order).
  std::mutex turn;
  std::atomic<int> ok_count{0};
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 6;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        uint64_t epoch = 0;
        {
          std::lock_guard<std::mutex> lk(turn);
          auto r = index->ApplyBatch(
              InsertBatch(0.01 + 0.02 * (w * kBatchesPerWriter + b)),
              Durability::kPublished);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          epoch = index->write_epoch();
        }
        ASSERT_TRUE(index->WaitDurable(epoch).ok());
        EXPECT_GE(index->durable_epoch(), epoch);
        ++ok_count;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(ok_count.load(), kWriters * kBatchesPerWriter);
  EXPECT_EQ(index->object_count(),
            30u + static_cast<uint64_t>(kWriters * kBatchesPerWriter));
}

TEST(GroupCommit, WaitDurableTimesOutWhilePipelineIsStalled) {
  GroupRig rig;
  auto index = rig.Baseline(10);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  index->SetGroupCommitPaused(true);
  ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.1),
                                Durability::kPublished).ok());
  const uint64_t epoch = index->write_epoch();

  // Stalled pipeline: a bounded wait must report TimedOut, not hang.
  EXPECT_TRUE(index->WaitDurable(epoch, /*timeout_ms=*/50).IsTimedOut());

  index->SetGroupCommitPaused(false);
  EXPECT_TRUE(index->WaitDurable(epoch).ok());
  EXPECT_GE(index->durable_epoch(), epoch);
}

TEST(GroupCommit, EmptyBatchDoesNotCommitOrAdvanceEpoch) {
  // Regression: ApplyBatch used to run its entry checkpoint + journal
  // commit even when the batch validated empty. An empty batch must be
  // a true no-op on BOTH paths: no journal commit, no epoch movement.
  {
    // Legacy synchronous path (no pipeline).
    GroupRig rig;
    auto index = rig.Baseline(10);
    const uint64_t commits = rig.pager->commit_count();
    const uint64_t epoch = index->write_epoch();
    auto r = index->ApplyBatch(WriteBatch{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(rig.pager->commit_count(), commits);
    EXPECT_EQ(index->write_epoch(), epoch);
  }
  {
    // Group-commit path: nothing published either.
    GroupRig rig;
    auto index = rig.Baseline(10);
    ASSERT_TRUE(index->StartGroupCommit().ok());
    const uint64_t commits = rig.pager->commit_count();
    const uint64_t epoch = index->write_epoch();
    const uint64_t durable = index->durable_epoch();
    auto r = index->ApplyBatch(WriteBatch{}, Durability::kPublished);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(index->write_epoch(), epoch);
    EXPECT_EQ(index->durable_epoch(), durable);
    ASSERT_TRUE(index->StopGroupCommit().ok());
    // Stop may retire the armed batch; the no-op itself committed nothing
    // while the pipeline ran.
    EXPECT_LE(rig.pager->commit_count(), commits + 1);
  }
}

TEST(GroupCommit, CrashBetweenPublishAndCommitRollsBackWholeBatches) {
  GroupRig rig;
  std::vector<ObjectId> baseline_ids;
  {
    auto index = rig.Baseline(40);
    baseline_ids = index->WindowQuery(Rect{0, 0, 1, 1}).value();
    std::sort(baseline_ids.begin(), baseline_ids.end());
    ASSERT_TRUE(index->StartGroupCommit().ok());

    // Two published-but-not-durable batches: a mixed erase+insert and a
    // pure insert. Both visible to readers, neither committed.
    index->SetGroupCommitPaused(true);
    WriteBatch mixed;
    for (ObjectId oid = 0; oid < 10; ++oid) mixed.Erase(oid);
    mixed.Insert(Rect{0.9, 0.02, 0.95, 0.06});
    ASSERT_TRUE(index->ApplyBatch(mixed, Durability::kPublished).ok());
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.3, 5),
                                  Durability::kPublished).ok());
    EXPECT_EQ(index->object_count(), 36u);  // 40 - 10 + 1 + 5

    // Power goes out between publish and the group's journal commit.
    rig.SnapshotForCrash();
    // (The doomed index's destructor drains the pipeline — that is the
    // graceful-shutdown path and must not affect the snapshot.)
  }

  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  // Whole-batch rollback: the pre-crash durable state, exactly. No
  // partial batch may survive — not the erases, not the inserts.
  EXPECT_EQ(reopened->object_count(), 40u);
  auto hits = reopened->WindowQuery(Rect{0, 0, 1, 1}).value();
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, baseline_ids);
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.89, 0.01, 0.96, 0.07})
                  .value()
                  .empty());
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.29, 0.89, 0.45, 0.96})
                  .value()
                  .empty());
}

TEST(GroupCommit, CrashPreservesDurableGroupsAndDropsPublishedTail) {
  GroupRig rig;
  {
    auto index = rig.Baseline(20);
    ASSERT_TRUE(index->StartGroupCommit().ok());

    // Batch A becomes durable (kDurable waits for its group's fsync).
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.1, 3),
                                  Durability::kDurable).ok());
    // Batch B is only published when the "power" goes out.
    index->SetGroupCommitPaused(true);
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.5, 4),
                                  Durability::kPublished).ok());
    EXPECT_EQ(index->object_count(), 27u);
    rig.SnapshotForCrash();
  }

  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  EXPECT_EQ(reopened->object_count(), 23u);  // baseline + A, not B
  EXPECT_EQ(reopened->WindowQuery(Rect{0.09, 0.89, 0.13, 0.96})
                .value()
                .size(),
            3u);
  EXPECT_TRUE(reopened->WindowQuery(Rect{0.49, 0.89, 0.53, 0.96})
                  .value()
                  .empty());
}

TEST(GroupCommit, ReadersRunThroughTheDurabilityWindow) {
  // Concurrent readers query while writers push durable batches through
  // the pipeline — under TSan this is the race check on the durability
  // thread's latch/flush/commit handoffs.
  GroupRig rig;
  auto index = rig.Baseline(60);
  ASSERT_TRUE(index->StartGroupCommit().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        const double lo = 0.1 + 0.2 * t;
        if (!index->WindowQuery(Rect{lo, lo, lo + 0.3, lo + 0.3}).ok() ||
            !index->NearestNeighbors(Point{lo, lo}, 3).ok()) {
          ++failures;
          return;
        }
      }
    });
  }

  for (int b = 0; b < 12; ++b) {
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.01 + 0.07 * b),
                                  Durability::kDurable).ok());
  }
  // Single-op mutations are acknowledged at publish while the pipeline
  // runs; WaitDurable on the current epoch blocks until they fsync.
  ASSERT_TRUE(index->Insert(Rect{0.85, 0.85, 0.86, 0.86}).ok());
  ASSERT_TRUE(index->Erase(0).ok());
  ASSERT_TRUE(index->WaitDurable(index->write_epoch()).ok());

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->object_count(), 72u);  // 60 + 12 + 1 - 1
}

TEST(GroupCommit, StopDrainsRestartsAndSurvivesCrash) {
  GroupRig rig;
  {
    auto index = rig.Baseline(15);
    ASSERT_TRUE(index->StartGroupCommit().ok());
    index->SetGroupCommitPaused(true);
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.2, 2),
                                  Durability::kPublished).ok());

    // Stop drains the published tail even while paused, leaving
    // everything durable; the pipeline restarts cleanly.
    ASSERT_TRUE(index->StopGroupCommit().ok());
    EXPECT_FALSE(index->group_commit_active());
    ASSERT_TRUE(index->StartGroupCommit().ok());
    ASSERT_TRUE(index->ApplyBatch(InsertBatch(0.6, 2),
                                  Durability::kDurable).ok());
    ASSERT_TRUE(index->StopGroupCommit().ok());
    rig.SnapshotForCrash();
  }
  auto reopened = rig.Reopen();
  ASSERT_TRUE(reopened->btree()->CheckInvariants().ok());
  EXPECT_EQ(reopened->object_count(), 19u);
}

TEST(GroupCommit, StartRequiresJournalAndNoCallerBatch) {
  {
    auto pager = Pager::OpenInMemory(512);
    BufferPool pool(pager.get(), 32);
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    auto index = SpatialIndex::Create(&pool, opt).value();
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());
  }
  {
    GroupRig rig;
    auto index = rig.Baseline(5);
    ASSERT_TRUE(rig.pager->BeginBatch().ok());
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());
    ASSERT_TRUE(rig.pager->CommitBatch().ok());
    ASSERT_TRUE(index->StartGroupCommit().ok());
    EXPECT_TRUE(index->StartGroupCommit().IsInvalidArgument());  // twice
  }
}

TEST(GroupCommit, DbFacadeRunsThePipeline) {
  // The facade wires the pipeline up from DBOptions: a journaled
  // in-memory DB applies published and durable batches, reports the
  // epochs and coalesced commit count through Stats(), and Checkpoint()
  // waits the pipeline out.
  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(4);
  options.memory_journal = true;
  auto db = DB::Open(":memory:", options).value();
  ASSERT_TRUE(db->Stats().group_commit);

  ASSERT_TRUE(db->Apply(InsertBatch(0.1, 3)).ok());  // durable default
  ASSERT_TRUE(db->Apply(InsertBatch(0.4, 2), Durability::kPublished).ok());
  EXPECT_EQ(db->object_count(), 5u);

  ASSERT_TRUE(db->Checkpoint().ok());
  const DBStats s = db->Stats();
  EXPECT_EQ(s.objects, 5u);
  EXPECT_GE(s.durable_epoch, s.write_epoch);
  EXPECT_GE(s.journal_commits, 1u);
  EXPECT_TRUE(db->WaitDurable(db->write_epoch()).ok());

  // And the legacy path is still selectable.
  DBOptions sync = options;
  sync.group_commit = false;
  auto db2 = DB::Open(":memory:", sync).value();
  EXPECT_FALSE(db2->Stats().group_commit);
  ASSERT_TRUE(db2->Apply(InsertBatch(0.1)).ok());
  EXPECT_EQ(db2->object_count(), 1u);
}

/// Counts OnCommit calls; the sink only has to exist for DB::Apply to
/// take its replication path.
class CountingSink : public CommitSink {
 public:
  void OnCommit(uint64_t, const WriteBatch&) override { ++commits; }
  std::atomic<int> commits{0};
};

TEST(GroupCommit, DbReportsBatchesLostToAFailedGroupCommit) {
  // A one-shard DB whose group fsync fails: the rolled-back batches must
  // fail their durability waits (also once a later batch is durable),
  // and the DB's epoch, object count and next oid must follow the
  // rolled-back state. Run with and without a commit sink, which waits
  // durability through the router epoch it reports to the sink.
  for (const bool with_sink : {false, true}) {
    SCOPED_TRACE(with_sink ? "commit sink" : "no sink");
    DBOptions options;
    options.index.data = DecomposeOptions::SizeBound(4);
    options.memory_journal = true;
    auto db = DB::Open(":memory:", options).value();
    CountingSink sink;
    if (with_sink) {
      ASSERT_TRUE(db->SetCommitSink(&sink).ok());
    }
    shard::ShardRouter* router = db->router();
    ASSERT_EQ(router->shards(), 1u);
    ASSERT_TRUE(db->Apply(InsertBatch(0.1, 3)).ok());  // oids 0..2, durable

    // Hold the pipeline, publish a batch, then a durable writer that
    // blocks on the held group; the group's fsync will fail.
    db->index()->SetGroupCommitPaused(true);
    router->engine(0)->pager()->FailNextCommits(1);
    auto lost = db->Apply(InsertBatch(0.3, 2), Durability::kPublished);
    ASSERT_TRUE(lost.ok());
    EXPECT_EQ(lost.value(), (std::vector<ObjectId>{3, 4}));
    const uint64_t lost_epoch = db->write_epoch();
    Status durable_status;
    std::thread writer([&] {
      durable_status = db->Apply(InsertBatch(0.5)).status();
    });
    while (db->write_epoch() == lost_epoch) std::this_thread::yield();
    db->index()->SetGroupCommitPaused(false);
    writer.join();

    EXPECT_TRUE(durable_status.IsIOError()) << durable_status.ToString();
    EXPECT_TRUE(db->WaitDurable(lost_epoch).IsIOError());
    EXPECT_EQ(db->object_count(), 3u);
    EXPECT_EQ(db->Stats().objects, 3u);

    // The rollback moved the epoch past both lost batches, and a quiet
    // DB brackets its (rolled-back) answer with e0 == e1.
    const uint64_t e0 = router->write_epoch();
    auto all = db->Window(Rect{0, 0, 1, 1});
    const uint64_t e1 = router->announced_epoch();
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all.value(), (std::vector<ObjectId>{0, 1, 2}));
    EXPECT_EQ(e0, e1);
    EXPECT_GT(e0, lost_epoch + 1);

    // The next insert takes the next dense oid, and later durable
    // batches do not make the lost one durable.
    auto next = db->Apply(InsertBatch(0.7));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next.value(), (std::vector<ObjectId>{3}));
    const uint64_t next_epoch = db->write_epoch();
    for (int i = 0; i < 100; ++i) {  // enough marks to prune the old ones
      ASSERT_TRUE(
          db->Apply(InsertBatch(0.01 * (i % 80)), Durability::kPublished)
              .ok());
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_TRUE(db->WaitDurable(next_epoch).ok());
    EXPECT_TRUE(db->WaitDurable(db->write_epoch()).ok());
    EXPECT_TRUE(db->WaitDurable(lost_epoch).IsIOError());
    EXPECT_EQ(db->object_count(), 104u);
    EXPECT_EQ(db->Stats().durable_epoch, db->write_epoch());
    if (with_sink) {
      EXPECT_EQ(sink.commits.load(), 104);
      ASSERT_TRUE(db->SetCommitSink(nullptr).ok());
    }
  }
}

}  // namespace
}  // namespace zdb
