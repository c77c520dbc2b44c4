// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E8 (Table 4): the redundant z-index versus its baselines across all
// distributions. Methods:
//   rtree-quad / rtree-lin  — Guttman R-tree (exact MBRs in leaves)
//   z k=1                   — non-redundant minimal enclosing z-region
//   z k=4 / z k=8           — size-bound redundancy
//   z e=0.1                 — error-bound redundancy
//   z k=8 +leafmbr          — redundancy plus MBRs replicated in leaves
//                             (same leaf economics as the R-tree)
// Expected shape: z k=1 loses badly on diagonal/large-object data;
// moderate redundancy is competitive with the R-tree; the +leafmbr
// variant closes most of the remaining gap.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kWindowQueries = 20;
constexpr size_t kPointQueries = 100;

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto small_windows =
      GenerateWindows(kWindowQueries, 0.001, QueryGenOptions{});
  const auto big_windows =
      GenerateWindows(kWindowQueries, 0.01, QueryGenOptions{});
  const auto points = GeneratePoints(kPointQueries, 333);

  Table table("E8 method comparison — " + DistributionName(dist) + " (" +
                  std::to_string(n) + " objects, accesses/query)",
              {"method", "0.1% win", "1% win", "point", "insert acc",
               "pages"});

  auto add_z = [&](const std::string& label, const SpatialIndexOptions& opt) {
    Env env = MakeEnv();
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto r_small = RunWindowQueries(&env, index.get(), small_windows).value();
    auto r_big = RunWindowQueries(&env, index.get(), big_windows).value();
    auto r_pt = RunPointQueries(&env, index.get(), points).value();
    table.AddRow({label, Fmt(r_small.avg_accesses, 1),
                  Fmt(r_big.avg_accesses, 1), Fmt(r_pt.avg_accesses, 1),
                  Fmt(br.avg_insert_accesses, 2), Fmt(br.pages)});
  };

  auto add_rtree = [&](const std::string& label, RTreeOptions::Split split) {
    Env env = MakeEnv();
    RTreeOptions opt;
    opt.split = split;
    BuildResult br;
    auto tree = BuildRTree(&env, data, opt, &br).value();
    auto r_small =
        RunRTreeWindowQueries(&env, tree.get(), small_windows).value();
    auto r_big = RunRTreeWindowQueries(&env, tree.get(), big_windows).value();
    auto r_pt = RunRTreePointQueries(&env, tree.get(), points).value();
    table.AddRow({label, Fmt(r_small.avg_accesses, 1),
                  Fmt(r_big.avg_accesses, 1), Fmt(r_pt.avg_accesses, 1),
                  Fmt(br.avg_insert_accesses, 2), Fmt(br.pages)});
  };

  add_rtree("rtree-quad", RTreeOptions::Split::kQuadratic);
  add_rtree("rtree-lin", RTreeOptions::Split::kLinear);
  add_rtree("rtree-rstar", RTreeOptions::Split::kRStar);

  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(1);
    add_z("z k=1", opt);
  }
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(4);
    add_z("z k=4", opt);
  }
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(8);
    add_z("z k=8", opt);
  }
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::ErrorBound(0.1);
    add_z("z e=0.1", opt);
  }
  {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(8);
    opt.store_mbr_in_leaf = true;
    add_z("z k=8 +leafmbr", opt);
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d : zdb::kAllDistributions) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
