// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E11 (extension): redundancy versus transformation — the era's two
// B+-tree-compatible routes to spatial indexing. The transformation
// stores each rectangle once as a 4-D corner point (redundancy 1, cheap
// updates); the redundant z-index stores k elements per object. The 4-D
// query boxes of the transformation touch two faces of the transform
// space and cover it coarsely, so its filter scans more entries —
// especially for large query windows. Expected shape: transformation
// wins on build cost and small windows over k=1, loses to moderate
// redundancy on queries; its relative standing degrades as windows grow.

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "transform/transform_index.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;
constexpr size_t kPoints = 100;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto small_windows =
      GenerateWindows(kQueries, 0.001, QueryGenOptions{});
  const auto big_windows = GenerateWindows(kQueries, 0.01, QueryGenOptions{});
  const auto points = GeneratePoints(kPoints, 1111);

  Table table("E11 redundancy vs transformation — " +
                  DistributionName(dist) + " (" + std::to_string(n) +
                  " objects, accesses/query)",
              {"method", "0.1% win", "1% win", "point", "insert acc",
               "entries"});

  auto run_z = [&](const std::string& label, uint32_t k) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto r_small = RunWindowQueries(&env, index.get(), small_windows).value();
    auto r_big = RunWindowQueries(&env, index.get(), big_windows).value();
    auto r_pt = RunPointQueries(&env, index.get(), points).value();
    table.AddRow({label, Fmt(r_small.avg_accesses, 1),
                  Fmt(r_big.avg_accesses, 1), Fmt(r_pt.avg_accesses, 1),
                  Fmt(br.avg_insert_accesses, 2),
                  Fmt(index->btree()->size())});
  };

  auto run_transform = [&](const std::string& label, uint32_t qelems) {
    Env env = MakeEnv();
    TransformIndexOptions opt;
    opt.query_elements = qelems;
    const IoStats snap = env.pager->io_stats();
    auto index = TransformIndex::Create(env.pool.get(), opt).value();
    for (const Rect& r : data) {
      if (!index->Insert(r).ok()) std::exit(1);
    }
    if (!env.pool->FlushAll().ok()) std::exit(1);
    const double insert_acc =
        static_cast<double>(env.Delta(snap).accesses()) / n;

    auto run_batch = [&](const std::vector<Rect>& windows) {
      uint64_t total = 0;
      for (const Rect& w : windows) {
        if (!env.pool->Clear().ok()) std::exit(1);
        const IoStats s = env.pager->io_stats();
        if (!index->WindowQuery(w).ok()) std::exit(1);
        total += env.Delta(s).accesses();
      }
      return static_cast<double>(total) / windows.size();
    };
    uint64_t pt_total = 0;
    for (const Point& p : points) {
      if (!env.pool->Clear().ok()) std::exit(1);
      const IoStats s = env.pager->io_stats();
      if (!index->PointQuery(p).ok()) std::exit(1);
      pt_total += env.Delta(s).accesses();
    }
    table.AddRow({label, Fmt(run_batch(small_windows), 1),
                  Fmt(run_batch(big_windows), 1),
                  Fmt(static_cast<double>(pt_total) / kPoints, 1),
                  Fmt(insert_acc, 2), Fmt(index->btree()->size())});
  };

  run_z("z k=1", 1);
  run_z("z k=4", 4);
  run_z("z k=8", 8);
  run_transform("transform q=16", 16);
  run_transform("transform q=64", 64);
  run_transform("transform q=256", 256);
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kUniformLarge,
        zdb::Distribution::kDiagonal}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
