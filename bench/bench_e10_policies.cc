// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E10 (Table 5): size-bound versus error-bound decomposition at matched
// average redundancy. For each size-bound k, an epsilon is searched whose
// achieved average redundancy is closest to k's; the two policies are
// then compared on approximation error and query cost at (approximately)
// equal index size. Expected shape: error-bound wins — it spends extra
// elements only on the objects that are badly approximated, so at the
// same average redundancy its worst objects are far better covered.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util/runner.h"
#include "bench_util/table.h"

namespace zdb {
namespace {

constexpr size_t kQueries = 20;

struct Measured {
  double redundancy = 0.0;
  double avg_error = 0.0;
  double max_error = 0.0;  ///< worst single-object approximation error
  double accesses = 0.0;
  double false_hits = 0.0;
};

Measured Measure(const std::vector<Rect>& data,
                 const std::vector<Rect>& queries,
                 const SpatialIndexOptions& opt) {
  Env env = MakeEnv();
  BuildResult br;
  auto index = BuildZIndex(&env, data, opt, &br).value();
  auto rr = RunWindowQueries(&env, index.get(), queries).value();
  Measured m;
  m.redundancy = br.redundancy;
  m.avg_error = br.avg_error;
  m.accesses = rr.avg_accesses;
  m.false_hits = rr.per_query(rr.totals.false_hits);
  // Worst-case per-object error: the quantity the error-bound policy
  // actually guarantees (size-bound leaves it unbounded).
  const SpaceMapper mapper(Rect{0, 0, 1, 1}, opt.grid_bits);
  for (const Rect& r : data) {
    const auto d = Decompose(mapper.ToGrid(r), opt.grid_bits, opt.data);
    m.max_error = std::max(m.max_error, d.error());
  }
  return m;
}

/// Average redundancy an epsilon achieves (decomposition only, no index).
double RedundancyOf(const std::vector<Rect>& data, uint32_t grid_bits,
                    double eps) {
  const SpaceMapper mapper(Rect{0, 0, 1, 1}, grid_bits);
  uint64_t entries = 0;
  for (const Rect& r : data) {
    entries += Decompose(mapper.ToGrid(r), grid_bits,
                         DecomposeOptions::ErrorBound(eps))
                   .elements.size();
  }
  return static_cast<double>(entries) / data.size();
}

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto queries = GenerateWindows(kQueries, 0.01, QueryGenOptions{});

  Table table("E10 size-bound vs error-bound at matched redundancy — " +
                  DistributionName(dist) + " (1% windows)",
              {"pair", "policy", "redundancy", "avg error", "max error",
               "accesses/q", "false hits/q"});

  const std::vector<double> eps_ladder = {
      100.0, 50.0, 25.0, 12.0, 6.0, 3.0, 2.0, 1.5, 1.0, 0.7, 0.5,
      0.35,  0.25, 0.18, 0.12, 0.08, 0.05, 0.03, 0.02, 0.01};
  for (uint32_t k : {2u, 4u, 8u, 16u}) {
    SpatialIndexOptions sopt;
    sopt.data = DecomposeOptions::SizeBound(k);
    const Measured size_bound = Measure(data, queries, sopt);

    // Find the epsilon whose redundancy best matches.
    double best_eps = eps_ladder[0];
    double best_diff = 1e300;
    for (double eps : eps_ladder) {
      const double r = RedundancyOf(data, sopt.grid_bits, eps);
      const double diff = std::abs(r - size_bound.redundancy);
      if (diff < best_diff) {
        best_diff = diff;
        best_eps = eps;
      }
    }
    SpatialIndexOptions eopt;
    eopt.data = DecomposeOptions::ErrorBound(best_eps);
    const Measured error_bound = Measure(data, queries, eopt);

    const std::string pair = "k=" + std::to_string(k);
    table.AddRow({pair, "size-bound", Fmt(size_bound.redundancy),
                  Fmt(size_bound.avg_error, 3), Fmt(size_bound.max_error, 1),
                  Fmt(size_bound.accesses, 1),
                  Fmt(size_bound.false_hits, 1)});
    table.AddRow({pair, "error-bound e=" + Fmt(best_eps, 2),
                  Fmt(error_bound.redundancy), Fmt(error_bound.avg_error, 3),
                  Fmt(error_bound.max_error, 1), Fmt(error_bound.accesses, 1),
                  Fmt(error_bound.false_hits, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 15000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformLarge, zdb::Distribution::kSkewedSizes}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
