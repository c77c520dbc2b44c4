// Copyright (c) zdb authors. Licensed under the MIT license.
//
// A4 (extension): k-nearest-neighbor queries — the proximity queries the
// paper leaves as future work. Compares the z-index's expanding-window
// search (the natural strategy for a one-dimensional ordered index)
// against the R-tree's best-first MINDIST traversal, across data
// redundancy and k. Expected shape: the R-tree's targeted descent wins;
// moderate redundancy narrows the gap by shrinking the windows' false
// hits; the gap widens with k.

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 50;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto points = GeneratePoints(kQueries, 606);

  Table table("A4 k-nearest-neighbor — " + DistributionName(dist) +
                  " (accesses/query)",
              {"method", "k=1", "k=5", "k=20", "rounds@20"});

  auto run_z = [&](const std::string& label, uint32_t data_k) {
    Env env = MakeEnv();
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(data_k);
    auto index = BuildZIndex(&env, data, opt).value();
    std::vector<std::string> row{label};
    double rounds_at_20 = 0;
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
      uint64_t total = 0;
      uint64_t total_rounds = 0;
      for (const Point& p : points) {
        if (!env.pool->Clear().ok()) std::exit(1);
        const IoStats snap = env.pager->io_stats();
        uint32_t rounds = 0;
        auto r = index->NearestNeighbors(p, k, nullptr, &rounds);
        if (!r.ok()) std::exit(1);
        total += env.Delta(snap).accesses();
        total_rounds += rounds;
      }
      row.push_back(Fmt(static_cast<double>(total) / points.size(), 1));
      if (k == 20) {
        rounds_at_20 = static_cast<double>(total_rounds) / points.size();
      }
    }
    row.push_back(Fmt(rounds_at_20, 1));
    table.AddRow(row);
  };

  auto run_rtree = [&]() {
    Env env = MakeEnv();
    auto tree = BuildRTree(&env, data, RTreeOptions{}).value();
    std::vector<std::string> row{"rtree best-first"};
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
      uint64_t total = 0;
      for (const Point& p : points) {
        if (!env.pool->Clear().ok()) std::exit(1);
        const IoStats snap = env.pager->io_stats();
        auto r = tree->NearestNeighbors(p, k);
        if (!r.ok()) std::exit(1);
        total += env.Delta(snap).accesses();
      }
      row.push_back(Fmt(static_cast<double>(total) / points.size(), 1));
    }
    row.push_back("-");
    table.AddRow(row);
  };

  run_rtree();
  run_z("z k=1 expanding", 1);
  run_z("z k=4 expanding", 4);
  run_z("z k=16 expanding", 16);
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
