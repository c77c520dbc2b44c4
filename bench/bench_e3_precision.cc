// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E3 (Figure 2): filter precision versus redundancy. At a fixed 1%
// window selectivity, sweep k and report what the filter step produced:
// raw candidates, duplicates (the price of redundancy), unique
// candidates, false hits (the price of a loose approximation), and true
// results. Expected shape: false hits fall steeply with k while
// duplicates rise slowly — the net being the E4 crossover.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;
constexpr double kSelectivity = 0.01;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries =
      GenerateWindows(kQueries, kSelectivity, QueryGenOptions{});

  Table table("E3 filter precision vs redundancy — " +
                  DistributionName(dist) + " (1% windows, per query)",
              {"k", "candidates", "duplicates", "unique", "false hits",
               "results", "precision"});

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    // A fine query-side decomposition isolates the data-side effect:
    // query-approximation dead space would otherwise dominate false hits.
    opt.query = DecomposeOptions::ErrorBound(0.02, 512);
    auto index = BuildZIndex(&env, data, opt).value();
    auto rr = RunWindowQueries(&env, index.get(), queries).value();
    const double unique = rr.per_query(rr.totals.unique_candidates);
    const double results = rr.per_query(rr.totals.results);
    table.AddRow({std::to_string(k), Fmt(rr.per_query(rr.totals.candidates), 1),
                  Fmt(rr.per_query(rr.totals.duplicates()), 1), Fmt(unique, 1),
                  Fmt(rr.per_query(rr.totals.false_hits), 1), Fmt(results, 1),
                  Fmt(unique > 0 ? results / unique : 1.0, 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformLarge, zdb::Distribution::kClusters,
        zdb::Distribution::kDiagonal}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
