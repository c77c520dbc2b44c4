// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E1 (Table 1): decomposition statistics. For every distribution and
// every decomposition policy setting, report the achieved redundancy
// (index entries per object), the approximation error (relative dead
// space), and the resulting index size. Expected shape: redundancy grows
// with k (sublinearly for small objects that need few elements), error
// falls steeply with the first few extra elements, and index pages grow
// roughly linearly with redundancy.


#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);

  Table table("E1 decomposition statistics — " + DistributionName(dist) +
                  " (" + std::to_string(n) + " objects)",
              {"policy", "redundancy", "avg error", "entries", "leaf pages",
               "index pages", "data pages", "height"});

  auto add_row = [&](const std::string& label,
                     const SpatialIndexOptions& opt) {
    Env env = MakeEnv();
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto stats = index->btree()->ComputeStats().value();
    table.AddRow({label, Fmt(br.redundancy), Fmt(br.avg_error, 3),
                  Fmt(index->build_stats().index_entries),
                  Fmt(static_cast<uint64_t>(stats.leaf_pages)),
                  Fmt(static_cast<uint64_t>(stats.total_pages())),
                  Fmt(static_cast<uint64_t>(index->objects()->page_count())),
                  Fmt(static_cast<uint64_t>(stats.height))});
  };

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    add_row("size-bound k=" + std::to_string(k), opt);
  }
  for (double eps : {1.0, 0.5, 0.2, 0.1, 0.05}) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::ErrorBound(eps);
    add_row("error-bound e=" + Fmt(eps, 2), opt);
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
