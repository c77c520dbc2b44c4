// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E7 (Figure 4): spatial join via z-order merge versus redundancy. Two
// layers are joined by a single synchronized scan of both indexes; the
// data-side redundancy of BOTH layers is swept together. Expected shape:
// element-level candidate pairs drop sharply as approximations tighten
// (fewer giant elements pairing with everything), while scanned entries
// grow linearly — the page-access sum again has an interior optimum.

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

void RunPair(Distribution da, Distribution db, size_t n) {
  DataGenOptions ga;
  ga.distribution = da;
  ga.seed = 11;
  const auto data_a = GenerateData(n, ga);
  DataGenOptions gb;
  gb.distribution = db;
  gb.seed = 22;
  const auto data_b = GenerateData(n, gb);

  Table table("E7 spatial join vs redundancy — " + DistributionName(da) +
                  " x " + DistributionName(db) + " (" + std::to_string(n) +
                  " x " + std::to_string(n) + ")",
              {"k", "accesses", "entries", "cand pairs", "dup pairs",
               "false pairs", "results"});

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
    Env env = MakeEnv(kBenchPageSize, 64);
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    auto a = BuildZIndex(&env, data_a, opt).value();
    auto b = BuildZIndex(&env, data_b, opt).value();

    Status cleared = env.pool->Clear();
    if (!cleared.ok()) std::exit(1);
    const IoStats snap = env.pager->io_stats();
    JoinStats js;
    auto pairs = SpatialJoin(a.get(), b.get(), &js);
    if (!pairs.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   pairs.status().ToString().c_str());
      std::exit(1);
    }
    const uint64_t accesses = env.Delta(snap).accesses();

    table.AddRow({std::to_string(k), Fmt(accesses), Fmt(js.entries_scanned),
                  Fmt(js.candidate_pairs), Fmt(js.duplicate_pairs()),
                  Fmt(js.false_pairs), Fmt(js.results)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 10000, "[objects]");
  zdb::RunPair(zdb::Distribution::kUniformSmall,
               zdb::Distribution::kUniformLarge, n);
  zdb::RunPair(zdb::Distribution::kContours, zdb::Distribution::kClusters,
               n);
  return 0;
}
