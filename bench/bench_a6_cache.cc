// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A6 (ablation): buffer-pool size sensitivity. The 1989 setups kept only
// the root (plus the last search path) resident; modern deployments
// cache much more. Each index is built once with an adequate pool, then
// re-attached under pools from "bare search path" to "everything fits",
// and a warm 100-query batch measures physical accesses. Expected shape:
// all methods converge to ~0 once their working set fits; the
// non-redundant z-index fits soonest (smallest index) while the
// redundant one wins under realistic mid-size caches (fewer false-hit
// data-page fetches).

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 100;
constexpr size_t kBuildPool = 64;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries = GenerateWindows(kQueries, 0.01, QueryGenOptions{});

  Table table("A6 buffer-pool sensitivity — " + DistributionName(dist) +
                  " (1% windows, warm batch of " + std::to_string(kQueries) +
                  ", physical accesses/query)",
              {"pool pages", "z k=1", "z k=8", "rtree"});

  // Build all three structures once, in their own paged files, and
  // remember how to re-attach.
  struct ZBuild {
    Env env;
    PageId master;
  };
  ZBuild z[2];
  const uint32_t ks[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    z[i].env = MakeEnv(kBenchPageSize, kBuildPool);
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(ks[i]);
    auto index = BuildZIndex(&z[i].env, data, opt).value();
    z[i].master = index->Checkpoint().value();
    if (!z[i].env.pool->FlushAll().ok()) std::exit(1);
  }
  Env renv = MakeEnv(kBenchPageSize, kBuildPool);
  PageId rtree_root;
  uint32_t rtree_height;
  uint64_t rtree_count;
  {
    auto tree = BuildRTree(&renv, data, RTreeOptions{}).value();
    rtree_root = tree->root();
    rtree_height = tree->height();
    rtree_count = tree->size();
  }

  for (size_t pool_pages : {8u, 32u, 128u, 512u, 2048u, 8192u}) {
    std::vector<std::string> row{Fmt(static_cast<uint64_t>(pool_pages))};

    for (int i = 0; i < 2; ++i) {
      // Swap in a pool of the target size over the already-built file.
      ResizePool(&z[i].env, pool_pages);
      auto index = OpenZIndex(&z[i].env, z[i].master).value();
      const IoStats snap = z[i].env.pager->io_stats();
      for (const Rect& w : queries) {
        if (!index->WindowQuery(w).ok()) std::exit(1);
      }
      row.push_back(Fmt(
          static_cast<double>(z[i].env.Delta(snap).accesses()) / kQueries,
          1));
    }
    {
      ResizePool(&renv, pool_pages);
      auto tree = RTree::Attach(renv.pool.get(), RTreeOptions{}, rtree_root,
                                rtree_height, rtree_count)
                      .value();
      const IoStats snap = renv.pager->io_stats();
      for (const Rect& w : queries) {
        if (!tree->WindowQuery(w).ok()) std::exit(1);
      }
      row.push_back(Fmt(
          static_cast<double>(renv.Delta(snap).accesses()) / kQueries, 1));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  zdb::RunDistribution(zdb::Distribution::kClusters, n);
  return 0;
}
