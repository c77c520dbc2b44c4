// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E2 (Figure 1): window-query page accesses versus redundancy. For each
// distribution, sweep the size-bound k and report the average page
// accesses per query (cold cache) at four selectivities. Expected shape:
// a steep drop from k=1 to moderate k (the single enclosing element of an
// object straddling a high-order partition line is enormous), flattening
// out and eventually rising as the index itself grows.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr double kSelectivities[] = {0.0001, 0.001, 0.01, 0.1};
constexpr size_t kQueries = 20;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);

  std::vector<std::vector<Rect>> query_sets;
  for (double sel : kSelectivities) {
    query_sets.push_back(GenerateWindows(kQueries, sel, QueryGenOptions{}));
  }

  Table table("E2 window accesses vs redundancy — " +
                  DistributionName(dist) + " (" + std::to_string(n) +
                  " objects, " + std::to_string(kQueries) +
                  " queries/cell)",
              {"k", "redundancy", "0.01% win", "0.1% win", "1% win",
               "10% win"});

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    std::vector<std::string> row{std::to_string(k), Fmt(br.redundancy)};
    for (const auto& queries : query_sets) {
      auto rr = RunWindowQueries(&env, index.get(), queries).value();
      row.push_back(Fmt(rr.avg_accesses, 1));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kUniformLarge,
        zdb::Distribution::kClusters, zdb::Distribution::kDiagonal}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
