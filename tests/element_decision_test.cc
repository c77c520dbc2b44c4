// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The window filter decides candidates from their stored z-element: an
// entry whose element misses the query grid rect is skipped, and an
// entry whose element lies inside the window's interior cells is a
// certain hit, reported without an object-record fetch (core/query.cc).
// These cases check both rules against brute force where they are most
// fragile — edges exactly on cell boundaries and one ulp either side,
// zero-width windows and objects, and geometry partly or wholly outside
// the world (clamped cells) — over k, BIGMIN on and off, one and four
// shards, and the parallel executor. They also pin the fetch counts the
// certain-hit rule promises, and the 2^31 limit on object ids that frees
// the mark bit.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/spatial_index.h"
#include "exec/executor.h"
#include "geom/polygon.h"
#include "zdb/db.h"

namespace zdb {
namespace {

// A coarse grid (64 cells per axis) makes cell boundaries easy to hit
// and keeps windows a few cells wide.
constexpr uint32_t kGridBits = 6;
constexpr double kCell = 1.0 / (1u << kGridBits);

/// A coordinate on, or one ulp either side of, a cell boundary, inside
/// or a few cells outside the unit world; now and then an arbitrary
/// value, or one far outside the world.
double EdgeCoord(Random* rng) {
  const uint64_t kind = rng->Uniform(10);
  if (kind == 0) return rng->NextDouble();
  if (kind == 1) return rng->NextDouble() * 3.0 - 1.0;
  const double b =
      static_cast<double>(static_cast<int64_t>(rng->Uniform(72)) - 4) * kCell;
  switch (rng->Uniform(3)) {
    case 0:
      return b;
    case 1:
      return std::nextafter(b, 2.0);
    default:
      return std::nextafter(b, -2.0);
  }
}

/// The far edge of an extent starting at `lo`: a whole number of cells
/// further (zero included), then possibly one ulp either way.
double FarEdge(Random* rng, double lo, uint32_t max_cells) {
  double hi = lo + static_cast<double>(rng->Uniform(max_cells + 1)) * kCell;
  switch (rng->Uniform(3)) {
    case 0:
      return hi;
    case 1:
      return std::nextafter(hi, 4.0);
    default:
      return std::max(lo, std::nextafter(hi, -4.0));
  }
}

/// A rect whose low edges are EdgeCoords and whose far edges are
/// FarEdges; one in four is a point.
Rect EdgeRect(Random* rng, uint32_t max_cells) {
  Rect r;
  r.xlo = EdgeCoord(rng);
  r.ylo = EdgeCoord(rng);
  r.xhi = FarEdge(rng, r.xlo, max_cells);
  r.yhi = FarEdge(rng, r.ylo, max_cells);
  if (rng->Uniform(4) == 0) {
    r.xhi = r.xlo;
    r.yhi = r.ylo;
  }
  return r;
}

std::vector<Rect> EdgeObjects(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<Rect> out;
  for (size_t i = 0; i < n; ++i) out.push_back(EdgeRect(&rng, 6));
  return out;
}

std::vector<Rect> EdgeWindows(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<Rect> out;
  for (size_t i = 0; i < n; ++i) out.push_back(EdgeRect(&rng, 12));
  // Wholly outside the world, straddling its corner, and the world.
  out.push_back(Rect{1.25, 1.25, 1.5, 1.75});
  out.push_back(Rect{-0.5, -0.25, -0.125, 0.5});
  out.push_back(Rect{-0.25, -0.25, 4 * kCell, 4 * kCell});
  out.push_back(Rect{0.0, 0.0, 1.0, 1.0});
  return out;
}

template <typename Pred>
std::vector<ObjectId> Brute(const std::vector<Rect>& data, Pred pred) {
  std::vector<ObjectId> out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (pred(data[i])) out.push_back(static_cast<ObjectId>(i));
  }
  return out;
}

/// NearestNeighbors clips its search windows to the world, so it never
/// sees an object wholly outside it; the kNN oracle leaves those out.
std::vector<double> BruteKnnDistances(const std::vector<Rect>& data,
                                      const Point& p, size_t k) {
  std::vector<double> d;
  for (const Rect& r : data) {
    if (r.Intersects(Rect{0.0, 0.0, 1.0, 1.0})) d.push_back(r.DistanceTo(p));
  }
  std::sort(d.begin(), d.end());
  if (d.size() > k) d.resize(k);
  return d;
}

std::unique_ptr<DB> OpenEdgeDB(uint32_t k, bool bigmin, uint32_t shards,
                               size_t cache_pages = 1024) {
  DBOptions opt;
  opt.index.grid_bits = kGridBits;
  opt.index.data = DecomposeOptions::SizeBound(k);
  opt.index.use_bigmin = bigmin;
  opt.page_size = 512;
  opt.cache_pages = cache_pages;
  opt.shards = shards;
  return DB::Open("", opt).value();
}

/// The counter identities every window answer keeps.
void ExpectIdentities(const QueryStats& qs, size_t results) {
  EXPECT_EQ(qs.results, results);
  EXPECT_EQ(qs.unique_candidates, qs.results + qs.false_hits);
  EXPECT_LE(qs.certain_hits, qs.results);
  EXPECT_GE(qs.candidates, qs.unique_candidates);
}

struct Config {
  uint32_t k;
  bool bigmin;
  uint32_t shards;
};

std::vector<Config> Configs() {
  std::vector<Config> out;
  for (uint32_t k : {1u, 4u, 32u}) {
    for (bool bigmin : {false, true}) {
      for (uint32_t shards : {1u, 4u}) out.push_back({k, bigmin, shards});
    }
  }
  return out;
}

TEST(ElementDecision, EdgeCasesMatchBruteForce) {
  const std::vector<Rect> data = EdgeObjects(101, 400);
  const std::vector<Rect> windows = EdgeWindows(202, 160);
  for (const Config& c : Configs()) {
    SCOPED_TRACE(testing::Message() << "k=" << c.k << " bigmin=" << c.bigmin
                                    << " shards=" << c.shards);
    auto db = OpenEdgeDB(c.k, c.bigmin, c.shards);
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(db->Insert(data[i]).value(), static_cast<ObjectId>(i));
    }
    uint64_t certain = 0;
    for (const Rect& w : windows) {
      SCOPED_TRACE(testing::Message()
                   << "window " << w.xlo << "," << w.ylo << "," << w.xhi
                   << "," << w.yhi);
      QueryStats qs;
      const auto got = db->Window(w, &qs).value();
      EXPECT_EQ(got, Brute(data, [&](const Rect& r) {
                  return r.Intersects(w);
                }));
      if (c.shards == 1) ExpectIdentities(qs, got.size());
      certain += qs.certain_hits;
      EXPECT_EQ(db->Containment(w).value(),
                Brute(data, [&](const Rect& r) { return w.Contains(r); }));
      if (c.shards == 1) {
        EXPECT_EQ(db->index()->EnclosureQuery(w).value(),
                  Brute(data, [&](const Rect& r) { return r.Contains(w); }));
      }
    }
    // The rule must actually fire on this data, or the oracle proves
    // nothing about it.
    EXPECT_GT(certain, 0u);
    Random rng(303);
    for (int i = 0; i < 12; ++i) {
      const Point p{EdgeCoord(&rng), EdgeCoord(&rng)};
      for (size_t kn : {1u, 4u, 32u}) {
        const auto got = db->Nearest(p, kn).value();
        std::vector<double> d;
        for (const auto& [oid, dist] : got) {
          EXPECT_EQ(dist, data[oid].DistanceTo(p));
          d.push_back(dist);
        }
        EXPECT_EQ(d, BruteKnnDistances(data, p, kn));
      }
      EXPECT_EQ(db->Point(p).value(),
                Brute(data, [&](const Rect& r) { return r.Contains(p); }));
    }
  }
}

TEST(QueryExecutor, ElementDecisionParallelWindowMatchesBruteForce) {
  const std::vector<Rect> data = EdgeObjects(404, 400);
  const std::vector<Rect> windows = EdgeWindows(505, 80);
  for (const Config& c : Configs()) {
    SCOPED_TRACE(testing::Message() << "k=" << c.k << " bigmin=" << c.bigmin
                                    << " shards=" << c.shards);
    auto db = OpenEdgeDB(c.k, c.bigmin, c.shards);
    for (const Rect& r : data) ASSERT_TRUE(db->Insert(r).ok());
    auto exec = db->NewExecutor(3);
    for (const Rect& w : windows) {
      QueryStats qs;
      const auto got = exec->ParallelWindowQuery(w, &qs).value();
      EXPECT_EQ(got, Brute(data, [&](const Rect& r) {
                  return r.Intersects(w);
                }));
      ExpectIdentities(qs, got.size());
    }
  }
}

/// Pages pinned (hits + misses) on shard 0's pager since `before`.
uint64_t PinsSince(DB* db, const IoStats& before) {
  const IoStats d = db->io_stats().Since(before);
  return d.pool_hits.load() + d.pool_misses.load();
}

TEST(ElementDecision, DeepInteriorObjectCostsNoRecordFetch) {
  auto db = OpenEdgeDB(4, false, 1);
  ASSERT_TRUE(db->Insert(Rect{0.4, 0.4, 0.6, 0.6}).ok());
  SpatialIndex* ix = db->index();

  // Refinement pins no page: the object's every element lies inside
  // the window's interior cells.
  {
    const EpochPin pin = ix->PinEpoch();
    auto scope = ix->OpenSnapshot(pin).value();
    const Rect w{0.1, 0.1, 0.9, 0.9};
    QueryStats qs;
    auto plan = ix->PlanWindow(w).value();
    auto cands = ix->ExecuteWindowPlanSlice(plan, 0, plan.work_items(), &qs)
                     .value();
    const IoStats before = db->io_stats();
    EXPECT_EQ(ix->RefineWindowCandidates(w, std::move(cands), &qs).value(),
              std::vector<ObjectId>{0});
    EXPECT_EQ(PinsSince(db.get(), before), 0u);
    EXPECT_EQ(qs.certain_hits, 1u);
    EXPECT_EQ(qs.false_hits, 0u);
  }

  // A window whose edge cell holds the object's edge must fetch it.
  QueryStats qs;
  EXPECT_EQ(db->Window(Rect{0.1, 0.1, 0.4, 0.4}, &qs).value(),
            std::vector<ObjectId>{0});
  EXPECT_EQ(qs.certain_hits, 0u);
  EXPECT_EQ(qs.results, 1u);
}

TEST(ElementDecision, DbWindowAndStagedHooksFetchTheSamePages) {
  const std::vector<Rect> data = EdgeObjects(606, 400);
  auto db = OpenEdgeDB(4, false, 1, /*cache_pages=*/4096);
  for (const Rect& r : data) ASSERT_TRUE(db->Insert(r).ok());
  SpatialIndex* ix = db->index();
  for (const Rect& w : EdgeWindows(707, 40)) {
    IoStats before = db->io_stats();
    QueryStats direct_stats;
    const auto direct = db->Window(w, &direct_stats).value();
    const uint64_t direct_pins = PinsSince(db.get(), before);

    before = db->io_stats();
    QueryStats staged_stats;
    std::vector<ObjectId> staged;
    {
      const EpochPin pin = ix->PinEpoch();
      auto scope = ix->OpenSnapshot(pin).value();
      auto plan = ix->PlanWindow(w).value();
      auto cands =
          ix->ExecuteWindowPlanSlice(plan, 0, plan.work_items(),
                                     &staged_stats)
              .value();
      staged = ix->RefineWindowCandidates(w, std::move(cands), &staged_stats)
                   .value();
    }
    EXPECT_EQ(PinsSince(db.get(), before), direct_pins);
    EXPECT_EQ(staged, direct);
    EXPECT_EQ(staged_stats.certain_hits, direct_stats.certain_hits);
    EXPECT_EQ(staged_stats.unique_candidates, direct_stats.unique_candidates);
    EXPECT_EQ(staged_stats.false_hits, direct_stats.false_hits);
  }
}

TEST(ElementDecision, PolygonIndexReportsNoCertainHits) {
  const std::vector<Rect> data = EdgeObjects(808, 200);
  auto db = OpenEdgeDB(4, false, 1);
  for (const Rect& r : data) ASSERT_TRUE(db->Insert(r).ok());
  const Polygon tri({Point{0.3, 0.3}, Point{0.7, 0.3}, Point{0.5, 0.7}});
  const ObjectId poly_oid = db->InsertPolygon(tri).value();
  for (const Rect& w : EdgeWindows(909, 60)) {
    QueryStats qs;
    const auto got = db->Window(w, &qs).value();
    EXPECT_EQ(qs.certain_hits, 0u);
    ExpectIdentities(qs, got.size());
    auto want = Brute(data, [&](const Rect& r) { return r.Intersects(w); });
    if (tri.Intersects(w)) want.push_back(poly_oid);
    EXPECT_EQ(got, want);
  }
}

TEST(ElementDecision, ObjectIdsAtOrAboveTwoToThe31AreRejected) {
  auto db = OpenEdgeDB(4, false, 1);
  const Rect r{0.1, 0.1, 0.2, 0.2};

  // The router, for a leader-assigned id.
  WriteBatch batch;
  batch.InsertWithOid(r, kObjectIdLimit);
  auto replicated = db->ApplyReplicated(batch);
  ASSERT_FALSE(replicated.ok());
  EXPECT_TRUE(replicated.status().IsInvalidArgument());

  // The object store, for a caller-chosen id and for its append cursor.
  ObjectStore* store = db->index()->objects();
  EXPECT_TRUE(store->InsertAt(kObjectIdLimit, r).IsInvalidArgument());
  EXPECT_TRUE(store->InsertAt(0xFFFFFFFEu, r).IsInvalidArgument());
  const std::vector<PageId> pages = store->pages();
  const uint32_t next = store->size();
  store->Restore(pages, kObjectIdLimit);
  auto appended = store->Insert(r);
  ASSERT_FALSE(appended.ok());
  EXPECT_TRUE(appended.status().IsNoSpace());
  store->Restore(pages, next);

  // Nothing was written; the DB still works.
  EXPECT_EQ(db->Insert(r).value(), 0u);
  EXPECT_EQ(db->Window(Rect{0.0, 0.0, 1.0, 1.0}).value(),
            std::vector<ObjectId>{0});
}

}  // namespace
}  // namespace zdb
