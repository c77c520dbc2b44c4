// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A7 (ablation): grid resolution. The grid is the decomposition's
// resolution floor: too coarse and every tiny object smears across whole
// cells (false hits the decomposition cannot remove); too fine only
// lengthens keys' useful depth without changing the approximation of
// objects larger than a cell. Expected shape: query cost falls steeply
// until cells shrink below the typical object, then flattens.

#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries = GenerateWindows(kQueries, 0.001, QueryGenOptions{});

  Table table("A7 grid resolution — " + DistributionName(dist) +
                  " (data k=8, 0.1% windows, per query)",
              {"grid bits", "cell size", "redundancy", "accesses",
               "false hits", "results"});

  for (uint32_t bits : {6u, 8u, 10u, 12u, 16u, 20u}) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.grid_bits = bits;
    opt.data = DecomposeOptions::SizeBound(8);
    // Fine query decomposition so false hits reflect the DATA-side
    // approximation floor, not query-side dead space.
    opt.query = DecomposeOptions::ErrorBound(0.02, 512);
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto rr = RunWindowQueries(&env, index.get(), queries).value();
    table.AddRow({Fmt(static_cast<uint64_t>(bits)),
                  Fmt(1.0 / (1u << bits), 6), Fmt(br.redundancy),
                  Fmt(rr.avg_accesses, 1),
                  Fmt(rr.per_query(rr.totals.false_hits), 1),
                  Fmt(rr.avg_results, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
