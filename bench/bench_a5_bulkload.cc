// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A5 (extension): bulk loading versus incremental insertion. Incremental
// build cost scales with redundancy (k random B+-tree descents per
// object, E6); bulk loading decomposes everything, sorts once, and packs
// leaves bottom-up. Reports build page accesses, resulting pages and
// leaf fill, and confirms query cost is unaffected (slightly better, via
// denser leaves).

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries = GenerateWindows(kQueries, 0.01, QueryGenOptions{});

  Table table("A5 bulk load vs incremental build — " +
                  DistributionName(dist) + " (" + std::to_string(n) +
                  " objects)",
              {"config", "build acc/obj", "index pages", "leaf fill",
               "query acc"});

  for (uint32_t k : {1u, 8u}) {
    for (bool bulk : {false, true}) {
      Env env = MakeEnv();
      SpatialIndexOptions opt;
      opt.data = DecomposeOptions::SizeBound(k);

      const IoStats snap = env.pager->io_stats();
      std::unique_ptr<SpatialIndex> index;
      if (bulk) {
        index = MakeZIndex(&env, opt).value();
        if (!index->BulkLoad(data).ok()) std::exit(1);
        if (!env.pool->FlushAll().ok()) std::exit(1);
      } else {
        index = BuildZIndex(&env, data, opt).value();
      }
      const double build_acc =
          static_cast<double>(env.Delta(snap).accesses()) / n;

      auto stats = index->btree()->ComputeStats().value();
      auto rr = RunWindowQueries(&env, index.get(), queries).value();
      table.AddRow({std::string(bulk ? "bulk" : "incremental") +
                        " k=" + std::to_string(k),
                    Fmt(build_acc, 2),
                    Fmt(static_cast<uint64_t>(stats.total_pages())),
                    Fmt(stats.avg_leaf_fill, 2), Fmt(rr.avg_accesses, 1)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kContours}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
