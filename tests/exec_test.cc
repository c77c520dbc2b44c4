// Copyright (c) zdb authors. Licensed under the MIT license.
//
// QueryExecutor correctness: batch execution and intra-query parallelism
// must return exactly what the serial SpatialIndex calls return, across
// thread counts and index modes (plain, store_mbr_in_leaf, BIGMIN), and
// the per-worker counters must add up.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/datagen.h"
#include "zdb/db.h"
#include "workload/querygen.h"

namespace zdb {
namespace {

struct ExecFixture {
  explicit ExecFixture(SpatialIndexOptions opt = MakeOptions(), size_t n = 800,
                       size_t pool_pages = 512)
      : db(OpenDB(opt, pool_pages)), index(db->index()) {
    DataGenOptions dg;
    dg.distribution = Distribution::kClusters;
    for (const Rect& r : GenerateData(n, dg)) {
      EXPECT_TRUE(db->Insert(r).ok());
    }
  }

  /// In-memory, unjournaled, 512-byte pages.
  static std::unique_ptr<DB> OpenDB(const SpatialIndexOptions& opt,
                                    size_t pool_pages) {
    DBOptions dopt;
    dopt.index = opt;
    dopt.page_size = 512;
    dopt.cache_pages = pool_pages;
    return DB::Open("", dopt).value();
  }

  static SpatialIndexOptions MakeOptions() {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    return opt;
  }

  std::unique_ptr<DB> db;
  SpatialIndex* index;  ///< the DB's one engine, for the serial answers
};

TEST(QueryExecutor, WindowBatchMatchesSerial) {
  ExecFixture f;
  const auto windows = GenerateWindows(40, 0.02, QueryGenOptions{});
  std::vector<std::vector<ObjectId>> expected;
  for (const auto& w : windows) {
    expected.push_back(f.index->WindowQuery(w).value());
  }
  for (size_t threads : {1u, 2u, 4u}) {
    auto exec_owner = f.db->NewExecutor(threads);
    QueryExecutor& exec = *exec_owner;
    auto got = exec.WindowBatch(windows).value();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "window " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST(QueryExecutor, PointBatchMatchesSerial) {
  ExecFixture f;
  const auto points = GeneratePoints(60, 3);
  std::vector<std::vector<ObjectId>> expected;
  for (const auto& p : points) {
    expected.push_back(f.index->PointQuery(p).value());
  }
  auto exec_owner = f.db->NewExecutor(4);
  QueryExecutor& exec = *exec_owner;
  auto got = exec.PointBatch(points).value();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "point " << i;
  }
}

TEST(QueryExecutor, NearestBatchMatchesSerial) {
  ExecFixture f;
  const auto points = GeneratePoints(20, 5);
  std::vector<std::vector<std::pair<ObjectId, double>>> expected;
  for (const auto& p : points) {
    expected.push_back(f.index->NearestNeighbors(p, 5).value());
  }
  auto exec_owner = f.db->NewExecutor(3);
  QueryExecutor& exec = *exec_owner;
  auto got = exec.NearestBatch(points, 5).value();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "knn " << i;
  }
}

TEST(QueryExecutor, ParallelWindowQueryMatchesSerial) {
  ExecFixture f;
  const auto windows = GenerateWindows(10, 0.1, QueryGenOptions{.seed = 11});
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    auto exec_owner = f.db->NewExecutor(threads);
    QueryExecutor& exec = *exec_owner;
    for (const auto& w : windows) {
      QueryStats serial_stats, par_stats;
      auto expected = f.index->WindowQuery(w, &serial_stats).value();
      auto got = exec.ParallelWindowQuery(w, &par_stats).value();
      EXPECT_EQ(got, expected) << "at " << threads << " threads";
      EXPECT_EQ(par_stats.results, expected.size());
      EXPECT_EQ(par_stats.unique_candidates, serial_stats.unique_candidates);
    }
  }
}

TEST(QueryExecutor, ParallelWindowQueryLeafMbrMode) {
  SpatialIndexOptions opt = ExecFixture::MakeOptions();
  opt.store_mbr_in_leaf = true;
  ExecFixture f(opt);
  auto exec_owner = f.db->NewExecutor(4);
  QueryExecutor& exec = *exec_owner;
  for (const auto& w : GenerateWindows(10, 0.05, QueryGenOptions{})) {
    auto expected = f.index->WindowQuery(w).value();
    EXPECT_EQ(exec.ParallelWindowQuery(w).value(), expected);
  }
}

TEST(QueryExecutor, ParallelWindowQueryBigminMode) {
  SpatialIndexOptions opt = ExecFixture::MakeOptions();
  opt.use_bigmin = true;
  ExecFixture f(opt);
  auto exec_owner = f.db->NewExecutor(4);
  QueryExecutor& exec = *exec_owner;
  for (const auto& w : GenerateWindows(10, 0.05, QueryGenOptions{})) {
    auto expected = f.index->WindowQuery(w).value();
    EXPECT_EQ(exec.ParallelWindowQuery(w).value(), expected);
  }
}

TEST(QueryExecutor, EmptyBatchesAndEmptyIndex) {
  ExecFixture f(ExecFixture::MakeOptions(), 0);
  auto exec_owner = f.db->NewExecutor(2);
  QueryExecutor& exec = *exec_owner;
  EXPECT_TRUE(exec.WindowBatch({}).value().empty());
  EXPECT_TRUE(exec.PointBatch({}).value().empty());
  auto got = exec.WindowBatch({Rect{0, 0, 1, 1}}).value();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(exec.ParallelWindowQuery(Rect{0, 0, 1, 1}).value().empty());
}

TEST(QueryExecutor, PropagatesQueryErrors) {
  ExecFixture f;
  auto exec_owner = f.db->NewExecutor(2);
  QueryExecutor& exec = *exec_owner;
  const Rect bad{0.5, 0.5, 0.4, 0.6};  // xlo > xhi
  EXPECT_TRUE(exec.WindowBatch({Rect{0, 0, 1, 1}, bad})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(exec.ParallelWindowQuery(bad).status().IsInvalidArgument());
  // The executor survives a failed batch and keeps answering.
  EXPECT_FALSE(exec.WindowBatch({Rect{0, 0, 1, 1}}).value().empty());
}

TEST(QueryExecutor, MixedWorkloadWritesThroughTheRouter) {
  // The mixed-mode writer applies through the DB's router, so the
  // router's oid cursor and owner masks follow it: later DB batches
  // continue the dense oid sequence and can erase what it inserted.
  ExecFixture f(ExecFixture::MakeOptions(), 50);
  auto exec_owner = f.db->NewExecutor(2);
  QueryExecutor& exec = *exec_owner;
  std::vector<MixedRound> rounds(3);
  for (size_t r = 0; r < rounds.size(); ++r) {
    rounds[r].writes.Insert(Rect{0.1, 0.1, 0.2, 0.2});
    rounds[r].writes.Erase(static_cast<ObjectId>(r));
    rounds[r].windows = {Rect{0, 0, 1, 1}};
  }
  auto results = exec.MixedWorkload(rounds).value();
  ASSERT_EQ(results.size(), rounds.size());
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(results[r].inserted,
              std::vector<ObjectId>{static_cast<ObjectId>(50 + r)});
  }
  WriteBatch next;
  next.Insert(Rect{0.3, 0.3, 0.4, 0.4});
  next.Erase(50);
  EXPECT_EQ(f.db->Apply(next).value(), std::vector<ObjectId>{53});
  EXPECT_EQ(f.db->object_count(), 50u);
}

TEST(QueryExecutor, PerWorkerStatsAggregate) {
  ExecFixture f;
  const auto windows = GenerateWindows(32, 0.02, QueryGenOptions{});
  auto exec_owner = f.db->NewExecutor(4);
  QueryExecutor& exec = *exec_owner;
  exec.ResetStats();
  auto results = exec.WindowBatch(windows).value();
  size_t total_results = 0;
  for (const auto& r : results) total_results += r.size();

  const ExecStats stats = exec.stats();
  ASSERT_EQ(stats.workers.size(), 4u);
  const WorkerStats totals = stats.Totals();
  EXPECT_EQ(totals.tasks, windows.size());
  EXPECT_EQ(totals.query.results, total_results);
  // Every query pinned at least one page, and every pin was a hit or a
  // miss.
  EXPECT_GE(totals.io.pages_pinned, windows.size());
  EXPECT_EQ(totals.io.pages_pinned, totals.io.pool_hits + totals.io.pool_misses);

  exec.ResetStats();
  EXPECT_EQ(exec.stats().Totals().tasks, 0u);
  EXPECT_EQ(exec.stats().Totals().io.pages_pinned, 0u);
}

TEST(QueryExecutor, PlanSliceUnionCoversWholeQuery) {
  // Any partition of the plan's work items must reproduce the full
  // candidate set — the invariant ParallelWindowQuery builds on.
  ExecFixture f;
  const Rect w{0.1, 0.1, 0.6, 0.55};
  const EpochPin pin = f.index->PinEpoch();
  auto scope = f.index->OpenSnapshot(pin).value();
  auto plan = f.index->PlanWindow(w).value();
  ASSERT_GT(plan.work_items(), 0u);

  QueryStats qs;
  auto full =
      f.index->ExecuteWindowPlanSlice(plan, 0, plan.work_items(), &qs).value();

  for (size_t pieces : {2u, 3u, 5u}) {
    std::vector<ObjectId> merged;
    const size_t step = (plan.work_items() + pieces - 1) / pieces;
    for (size_t b = 0; b < plan.work_items(); b += step) {
      QueryStats part;
      auto slice =
          f.index
              ->ExecuteWindowPlanSlice(plan, b, b + step, &part)
              .value();
      merged.insert(merged.end(), slice.begin(), slice.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    EXPECT_EQ(merged, full) << pieces << " pieces";
  }
}

}  // namespace
}  // namespace zdb
