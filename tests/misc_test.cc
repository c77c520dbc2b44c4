// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Odds and ends: bench-table rendering, bench argv parsing, cursor
// error paths, seek boundary semantics, polygon-store capacity across
// page sizes.

#include <gtest/gtest.h>

#include <limits>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "btree/btree.h"
#include "btree/cursor.h"
#include "core/polygon_store.h"
#include "storage/pager.h"

namespace zdb {
namespace {

TEST(Table, CsvRendering) {
  Table t("demo", {"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "2.5"});
  EXPECT_EQ(t.ToCsv(), "name,value\nalpha,1\nbeta,2.5\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.0, 0), "3");
  EXPECT_EQ(Fmt(uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
  EXPECT_EQ(Fmt(-5), "-5");
}

TEST(Cursor, NextOnInvalidCursorFails) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 8);
  auto tree = BTree::Create(&pool).value();
  auto cur = tree->SeekFirst().value();
  ASSERT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.Next().IsInvalidArgument());
}

TEST(Cursor, SeekBoundarySemantics) {
  auto pager = Pager::OpenInMemory(512);
  BufferPool pool(pager.get(), 16);
  auto tree = BTree::Create(&pool).value();
  for (const char* k : {"b", "d", "f"}) {
    ASSERT_TRUE(tree->Insert(k, "v").ok());
  }
  // Seek to an existing key lands on it.
  EXPECT_EQ(tree->Seek("d").value().key().ToString(), "d");
  // Seek between keys lands on the successor.
  EXPECT_EQ(tree->Seek("c").value().key().ToString(), "d");
  // Seek("") equals SeekFirst.
  EXPECT_EQ(tree->Seek("").value().key().ToString(), "b");
  // Seek past the last key is invalid.
  EXPECT_FALSE(tree->Seek("z").value().Valid());
}

TEST(PolygonStore, CapacityScalesWithPageSize) {
  for (uint32_t page_size : {256u, 512u, 4096u}) {
    auto pager = Pager::OpenInMemory(page_size);
    BufferPool pool(pager.get(), 8);
    PolygonStore store(&pool);
    // A full-capacity ring round-trips.
    std::vector<Point> ring(store.max_vertices());
    for (size_t i = 0; i < ring.size(); ++i) {
      ring[i] = Point{static_cast<double>(i), static_cast<double>(i) / 2};
    }
    const PolyRef ref = store.Insert(Polygon(ring)).value();
    const Polygon got = store.Fetch(ref).value();
    ASSERT_EQ(got.size(), ring.size());
    EXPECT_EQ(got.vertices().front(), ring.front());
    EXPECT_EQ(got.vertices().back(), ring.back());
    // One more vertex is rejected.
    ring.push_back(Point{0, 0});
    EXPECT_TRUE(store.Insert(Polygon(ring)).status().IsInvalidArgument());
  }
}


// ------------------------------------------------------ bench argv

TEST(BenchArgs, ParseCountAcceptsPositiveDecimals) {
  EXPECT_EQ(ParseCount("1").value(), 1u);
  EXPECT_EQ(ParseCount("20000").value(), 20000u);
  EXPECT_EQ(ParseCount("007").value(), 7u);
  EXPECT_EQ(ParseCount("18446744073709551615").value(),
            std::numeric_limits<size_t>::max());
}

TEST(BenchArgs, ParseCountRejectsMalformedInput) {
  for (const char* bad : {"", "abc", "12abc", " 12", "12 ", "-5", "+5",
                          "0", "000", "1.5", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    auto r = ParseCount(bad);
    EXPECT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_TRUE(r.status().IsInvalidArgument()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseCount(nullptr).ok());
}

TEST(BenchArgs, CountArgFallsBackWhenAbsent) {
  char prog[] = "bench";
  char arg[] = "42";
  char* argv[] = {prog, arg};
  EXPECT_EQ(CountArg(1, argv, 1, 20000, "[objects]"), 20000u);
  EXPECT_EQ(CountArg(2, argv, 1, 20000, "[objects]"), 42u);
}

TEST(BenchArgsDeathTest, CountArgExitsWithUsageOnGarbage) {
  char prog[] = "bench_e2_window_io";
  char arg[] = "abc";
  char* argv[] = {prog, arg};
  EXPECT_EXIT((void)CountArg(2, argv, 1, 20000, "[objects]"),
              ::testing::ExitedWithCode(2),
              "usage: bench_e2_window_io \\[objects\\]");
}

}  // namespace
}  // namespace zdb
