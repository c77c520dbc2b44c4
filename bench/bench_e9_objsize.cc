// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E9 (Figure 5): object size versus the optimal redundancy. Uniformly
// placed square objects of a fixed edge length; the edge length sweeps
// three orders of magnitude; for each size the k ladder is evaluated and
// the cost-minimizing k reported. Expected shape: tiny objects (smaller
// than a grid cell's neighborhood) need no redundancy; the larger the
// object relative to the partition grid, the higher the paying k — until
// objects are so large that every query touches them anyway.

#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

std::vector<Rect> FixedSizeRects(size_t n, double edge, uint64_t seed) {
  Random rng(seed);
  std::vector<Rect> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double cx = rng.UniformDouble(edge / 2, 1.0 - edge / 2);
    const double cy = rng.UniformDouble(edge / 2, 1.0 - edge / 2);
    out.push_back(Rect::FromCenter(cx, cy, edge / 2, edge / 2));
  }
  return out;
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  using namespace zdb;
  const size_t n = zdb::CountArg(argc, argv, 1, 15000, "[objects]");
  const auto queries = GenerateWindows(kQueries, 0.01, QueryGenOptions{});

  Table table("E9 object size vs optimal redundancy (uniform squares, 1% "
              "windows, accesses/query)",
              {"edge", "k=1", "k=2", "k=4", "k=8", "k=16", "k=32",
               "best k"});

  for (double edge : {0.0005, 0.002, 0.008, 0.03, 0.1}) {
    const auto data = FixedSizeRects(n, edge, 5150);
    std::vector<std::string> row{Fmt(edge, 4)};
    double best_cost = 1e300;
    uint32_t best_k = 1;
    for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
      Env env = MakeEnv();
      SpatialIndexOptions opt;
      opt.data = DecomposeOptions::SizeBound(k);
      auto index = BuildZIndex(&env, data, opt).value();
      auto rr = RunWindowQueries(&env, index.get(), queries).value();
      row.push_back(Fmt(rr.avg_accesses, 1));
      if (rr.avg_accesses < best_cost) {
        best_cost = rr.avg_accesses;
        best_k = k;
      }
    }
    row.push_back(std::to_string(best_k));
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
