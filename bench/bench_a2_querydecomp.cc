// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A2 (ablation): query-side decomposition granularity at fixed data-side
// redundancy. More query elements mean tighter query coverage (fewer
// spurious candidates in the query approximation's dead space) but more
// scans, each costing at least a root-to-leaf descent. Expected shape:
// an interior optimum, typically at a handful of query elements.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

void RunDistribution(Distribution dist, size_t n, double selectivity) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries =
      GenerateWindows(kQueries, selectivity, QueryGenOptions{});

  Table table("A2 query decomposition granularity — " +
                  DistributionName(dist) + " (data k=8, " +
                  Fmt(selectivity * 100, 1) + "% windows, per query)",
              {"query policy", "q-elems", "probes", "accesses",
               "candidates", "false hits", "results"});

  auto run = [&](const std::string& label, const DecomposeOptions& qpolicy) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(8);
    opt.query = qpolicy;
    auto index = BuildZIndex(&env, data, opt).value();
    auto rr = RunWindowQueries(&env, index.get(), queries).value();
    table.AddRow({label, Fmt(rr.per_query(rr.totals.query_elements), 1),
                  Fmt(rr.per_query(rr.totals.ancestor_probes), 1),
                  Fmt(rr.avg_accesses, 1),
                  Fmt(rr.per_query(rr.totals.candidates), 1),
                  Fmt(rr.per_query(rr.totals.false_hits), 1),
                  Fmt(rr.avg_results, 1)});
  };

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    run("size-bound k=" + std::to_string(k), DecomposeOptions::SizeBound(k));
  }
  run("error-bound e=0.10", DecomposeOptions::ErrorBound(0.10, 256));
  run("error-bound e=0.02", DecomposeOptions::ErrorBound(0.02, 1024));
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  zdb::RunDistribution(zdb::Distribution::kClusters, n, 0.01);
  zdb::RunDistribution(zdb::Distribution::kUniformSmall, n, 0.01);
  return 0;
}
