// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A1 (ablation): query-side strategy — decompose the query into elements
// versus scanning its single enclosing element with BIGMIN dead-space
// skipping. Diagonal data maximizes the dead space a coarse query
// approximation drags in. Expected shape: both beat the naive single-
// element scan without skipping; fine decomposition and BIGMIN land in
// the same ballpark (they skip the same dead space by different means).


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

  Table table("A1 query strategy ablation — " + DistributionName(dist) +
                  " (data k=8, 1% windows, per query)",
              {"strategy", "accesses", "entries", "candidates",
               "bigmin jumps", "results"});

  auto run = [&](const std::string& label, bool bigmin,
                 const DecomposeOptions& query_policy) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(8);
    opt.query = query_policy;
    opt.use_bigmin = bigmin;
    auto index = BuildZIndex(&env, data, opt).value();
    auto rr = RunWindowQueries(&env, index.get(), queries).value();
    table.AddRow({label, Fmt(rr.avg_accesses, 1),
                  Fmt(rr.per_query(rr.totals.index_entries), 1),
                  Fmt(rr.per_query(rr.totals.candidates), 1),
                  Fmt(rr.per_query(rr.totals.bigmin_jumps), 1),
                  Fmt(rr.avg_results, 1)});
  };

  run("single element, no skipping", false, DecomposeOptions::SizeBound(1));
  run("single element + BIGMIN", true, DecomposeOptions::SizeBound(1));
  run("decompose k=4", false, DecomposeOptions::SizeBound(4));
  run("decompose k=16", false, DecomposeOptions::SizeBound(16));
  run("decompose e=0.05", false, DecomposeOptions::ErrorBound(0.05, 256));
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kDiagonal, zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
