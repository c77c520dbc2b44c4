// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E6 (Table 3): update cost and index size versus redundancy. Reports
// per-insert page accesses while growing the file from empty (small
// buffer pool, so the measurement reflects real page traffic), final
// index/data pages, and per-erase accesses for a random 5% of the
// objects. Expected shape: both update costs and sizes grow roughly
// linearly with the achieved redundancy.

#include <cstdio>
#include <cstdlib>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);

  Table table("E6 update cost vs redundancy — " + DistributionName(dist),
              {"policy", "redundancy", "insert acc", "erase acc",
               "index pages", "data pages", "height"});

  auto add_row = [&](const std::string& label,
                     const SpatialIndexOptions& opt) {
    Env env = MakeEnv();
    BuildResult br;
    auto index = BuildZIndex(&env, data, opt, &br).value();
    auto stats = index->btree()->ComputeStats().value();

    // Erase a deterministic random 5%.
    Random rng(7);
    const size_t erases = n / 20;
    std::vector<ObjectId> victims;
    std::vector<bool> chosen(n, false);
    while (victims.size() < erases) {
      const ObjectId oid = static_cast<ObjectId>(rng.Uniform(n));
      if (!chosen[oid]) {
        chosen[oid] = true;
        victims.push_back(oid);
      }
    }
    const IoStats snap = env.pager->io_stats();
    for (ObjectId oid : victims) {
      Status s = index->Erase(oid);
      if (!s.ok()) {
        std::fprintf(stderr, "erase failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    const double erase_acc =
        static_cast<double>(env.Delta(snap).accesses()) / erases;

    table.AddRow({label, Fmt(br.redundancy), Fmt(br.avg_insert_accesses, 2),
                  Fmt(erase_acc, 2),
                  Fmt(static_cast<uint64_t>(stats.total_pages())),
                  Fmt(static_cast<uint64_t>(index->objects()->page_count())),
                  Fmt(static_cast<uint64_t>(stats.height))});
  };

  for (uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SpatialIndexOptions opt;
    opt.data = DecomposeOptions::SizeBound(k);
    add_row("size-bound k=" + std::to_string(k), opt);
  }
  for (double eps : {0.5, 0.1}) {
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
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kUniformLarge,
        zdb::Distribution::kContours}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
