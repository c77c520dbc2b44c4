// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E4 (Figure 3): the redundancy crossover — total query cost versus k on
// a fine k ladder. Page accesses include both the filter scans and the
// refinement's object fetches, so the two opposing forces are summed:
// less dead space (fewer false hits, fewer wasted data-page reads) versus
// a larger index (longer scans, more duplicates). Expected shape: a cost
// minimum at moderate redundancy, rising on both sides.

#include <cstdio>

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

  Table table(
      "E4 total cost crossover — " + DistributionName(dist) + " (" +
          Fmt(selectivity * 100, 2) + "% windows)",
      {"k", "redundancy", "accesses/q", "index pages", "false hits/q",
       "dups/q", "results/q"});

  double best_cost = 1e300;
  uint32_t best_k = 1;
  for (uint32_t k : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto stats = index->btree()->ComputeStats().value();
    auto rr = RunWindowQueries(&env, index.get(), queries).value();
    if (rr.avg_accesses < best_cost) {
      best_cost = rr.avg_accesses;
      best_k = k;
    }
    table.AddRow({std::to_string(k), Fmt(br.redundancy),
                  Fmt(rr.avg_accesses, 1),
                  Fmt(static_cast<uint64_t>(stats.total_pages())),
                  Fmt(rr.per_query(rr.totals.false_hits), 1),
                  Fmt(rr.per_query(rr.totals.duplicates()), 1),
                  Fmt(rr.avg_results, 1)});
  }
  table.Print();
  std::printf("optimal redundancy bound: k = %u (%.1f accesses/query)\n",
              best_k, best_cost);
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  zdb::RunDistribution(zdb::Distribution::kUniformLarge, n, 0.01);
  zdb::RunDistribution(zdb::Distribution::kDiagonal, n, 0.01);
  zdb::RunDistribution(zdb::Distribution::kClusters, n, 0.001);
  return 0;
}
