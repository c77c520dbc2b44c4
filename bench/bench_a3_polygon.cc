// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A3 (ablation): decomposing exact polygon geometry versus decomposing
// the MBR, at equal element budget. Slim diagonal polygons are the worst
// case for MBR approximation: the MBR is almost entirely dead space, so
// region decomposition buys large filter-precision gains at the same
// redundancy. Reports approximation error and window-query cost for
// both paths.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "core/spatial_index.h"
#include "decompose/region.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

/// Slim, rotated "road segment" polygons along random directions.
std::vector<Polygon> RoadSegments(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<Polygon> out;
  while (out.size() < n) {
    const double cx = rng.UniformDouble(0.15, 0.85);
    const double cy = rng.UniformDouble(0.15, 0.85);
    const double len = rng.UniformDouble(0.03, 0.12);
    const double width = rng.UniformDouble(0.001, 0.004);
    const double ang = rng.UniformDouble(0, 3.14159265358979);
    const double dx = std::cos(ang) * len / 2, dy = std::sin(ang) * len / 2;
    const double wx = -std::sin(ang) * width / 2,
                 wy = std::cos(ang) * width / 2;
    Polygon p({{cx - dx - wx, cy - dy - wy},
               {cx + dx - wx, cy + dy - wy},
               {cx + dx + wx, cy + dy + wy},
               {cx - dx + wx, cy - dy + wy}});
    const Rect b = p.Bounds();
    if (b.xlo >= 0 && b.ylo >= 0 && b.xhi < 1 && b.yhi < 1) {
      out.push_back(std::move(p));
    }
  }
  return out;
}

void Run(size_t n) {
  const auto roads = RoadSegments(n, 61);
  const auto queries = GenerateWindows(kQueries, 0.001, QueryGenOptions{});

  Table table("A3 exact-geometry vs MBR decomposition (slim rotated "
              "polygons, 0.1% windows, per query)",
              {"config", "redundancy", "avg error", "accesses",
               "false hits", "results"});

  for (uint32_t k : {4u, 16u}) {
    for (bool exact : {false, true}) {
      Env env = MakeEnv(kBenchPageSize, 32);
      SpatialIndexOptions opt;
      opt.data = DecomposeOptions::SizeBound(k);
      auto index = MakeZIndex(&env, opt).value();
      for (const Polygon& p : roads) {
        if (exact) {
          if (!index->InsertPolygon(p).ok()) std::exit(1);
        } else {
          // MBR path, but refinement still uses the exact ring: insert
          // as polygon-kind with an MBR-driven decomposition. Emulated by
          // inserting the bounding box as the decomposition driver.
          PolyRef ref = index->polygons()->Insert(p).value();
          ObjectId oid = index->Insert(p.Bounds(), ref).value();
          ObjectRecord rec = index->objects()->Fetch(oid).value();
          rec.kind = ObjectKind::kPolygon;
          if (!index->objects()->Rewrite(oid, rec).ok()) std::exit(1);
        }
      }
      if (!env.pool->FlushAll().ok()) std::exit(1);

      // Approximation error measured against the exact polygon area for
      // BOTH paths (the index's own build stats measure the MBR path
      // against the MBR, which is not comparable).
      double err_sum = 0.0;
      for (const Polygon& p : roads) {
        double covered;
        if (exact) {
          const PolygonRegion region(&p);
          covered =
              DecomposeRegion(region, index->mapper(), opt.data).covered_area;
        } else {
          const RectRegion region(p.Bounds());
          covered =
              DecomposeRegion(region, index->mapper(), opt.data).covered_area;
        }
        err_sum += (covered - p.Area()) / p.Area();
      }

      auto rr = RunWindowQueries(&env, index.get(), queries).value();
      table.AddRow(
          {std::string(exact ? "exact" : "mbr") + " k=" + std::to_string(k),
           Fmt(index->build_stats().redundancy()),
           Fmt(err_sum / roads.size(), 2), Fmt(rr.avg_accesses, 1),
           Fmt(rr.per_query(rr.totals.false_hits), 1),
           Fmt(rr.avg_results, 1)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 10000, "[objects]");
  zdb::Run(n);
  return 0;
}
