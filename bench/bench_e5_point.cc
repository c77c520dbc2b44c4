// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E5 (Table 2): point queries versus redundancy. Point-query candidates
// are exactly the entries stored under enclosing elements of the point's
// cell, so cost is dominated by the number of element levels present in
// the index (ancestor probes) plus refinement fetches for false hits.
// Expected shape: k=1 suffers where objects straddle partition lines
// (huge elements enclose every point); moderate k wins; very large k adds
// levels to probe with little gain.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 100;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto points = GeneratePoints(kQueries, 4242);

  Table table("E5 point queries vs redundancy — " + DistributionName(dist) +
                  " (per query, " + std::to_string(kQueries) + " queries)",
              {"k", "accesses", "probes", "candidates", "false hits",
               "results"});

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    auto index = BuildZIndex(&env, data, opt).value();
    auto rr = RunPointQueries(&env, index.get(), points).value();
    table.AddRow({std::to_string(k), Fmt(rr.avg_accesses, 2),
                  Fmt(rr.per_query(rr.totals.ancestor_probes), 1),
                  Fmt(rr.per_query(rr.totals.candidates), 2),
                  Fmt(rr.per_query(rr.totals.false_hits), 2),
                  Fmt(rr.avg_results, 2)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformLarge, zdb::Distribution::kSkewedSizes,
        zdb::Distribution::kDiagonal}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
