// Copyright (c) zdb authors. Licensed under the MIT license.
//
// E12: parallel query throughput versus worker count. The E2 workload
// (size-bound k decomposition over the standard distributions) is run
// through exec/QueryExecutor (DB::NewExecutor on an in-memory zdb::DB)
// at 1, 2, 4 and 8 workers, in two regimes:
//
//   * warm — the pool holds the whole index, so the batch is pure CPU
//     (filter + refine, no page transfers). This column scales only
//     with physical cores and is reported for reference.
//   * I/O-bound — a small pool plus simulated per-read device latency
//     on the in-memory pager (the stall is taken outside the pager
//     mutex, like a real device queue). Here worker threads overlap
//     their page-read stalls, which is what the concurrent read path
//     is for; throughput scales with the thread count irrespective of
//     core count.
//
// The last column splits ONE 10%-selectivity window query across the
// workers by its z-interval work list (intra-query parallelism), in
// the I/O-bound regime.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "exec/executor.h"

namespace zdb {
namespace {

constexpr size_t kWarmQueries = 256;
constexpr size_t kIoQueries = 48;
constexpr double kBatchSelectivity = 0.01;
constexpr double kBigSelectivity = 0.1;
constexpr uint32_t kReadLatencyUs = 100;  ///< simulated device read
constexpr size_t kIoPoolPages = 256;
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double SecondsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-2 wall-clock seconds (discards scheduler noise).
double BestSeconds(const std::function<void()>& fn) {
  return std::min(SecondsOf(fn), SecondsOf(fn));
}

void RunDistribution(Distribution dist, size_t n) {
  DataGenOptions dg;
  dg.distribution = dist;
  const auto data = GenerateData(n, dg);
  const auto warm_windows =
      GenerateWindows(kWarmQueries, kBatchSelectivity, QueryGenOptions{});
  const std::vector<Rect> io_windows(warm_windows.begin(),
                                     warm_windows.begin() + kIoQueries);
  const auto big_window =
      GenerateWindows(1, kBigSelectivity, QueryGenOptions{.seed = 11})[0];

  SpatialIndexOptions opt;
  opt.data = DecomposeOptions::SizeBound(4);

  // Warm DB: cache big enough for the whole index.
  BuildResult br;
  auto warm_db = BuildZDB(data, opt, 8192, &br).value();
  for (const auto& w : warm_windows) (void)warm_db->Window(w).value();

  // I/O-bound DB: small cache, simulated device read latency.
  auto io_db = BuildZDB(data, opt, kIoPoolPages).value();
  io_db->set_simulated_read_latency_us(kReadLatencyUs);

  Table table(
      "E12 parallel window throughput — " + DistributionName(dist) + " (" +
          std::to_string(n) + " objects, " + Fmt(100.0 * kBatchSelectivity) +
          "% sel; I/O regime: " + std::to_string(kIoPoolPages) +
          "-page pool, " + std::to_string(kReadLatencyUs) +
          "us/read; host cores: " +
          std::to_string(std::thread::hardware_concurrency()) + ")",
      {"threads", "warm q/s", "speedup", "io q/s", "speedup", "hit rate",
       "big query ms", "speedup"});

  double warm_base = 0.0, io_base = 0.0, big_base = 0.0;
  for (size_t threads : kThreadCounts) {
    auto warm_exec = warm_db->NewExecutor(threads);
    const double warm_s = BestSeconds(
        [&] { (void)warm_exec->WindowBatch(warm_windows).value(); });
    const double warm_qps = kWarmQueries / warm_s;

    auto io_exec = io_db->NewExecutor(threads);
    const double io_s =
        BestSeconds([&] { (void)io_exec->WindowBatch(io_windows).value(); });
    const double io_qps = kIoQueries / io_s;
    const WorkerStats totals = io_exec->stats().Totals();

    const double big_s = BestSeconds(
        [&] { (void)io_exec->ParallelWindowQuery(big_window).value(); });
    const double big_ms = 1000.0 * big_s;

    if (threads == 1) {
      warm_base = warm_qps;
      io_base = io_qps;
      big_base = big_ms;
    }
    table.AddRow({std::to_string(threads), Fmt(warm_qps, 0),
                  Fmt(warm_qps / warm_base) + "x", Fmt(io_qps, 0),
                  Fmt(io_qps / io_base) + "x", Fmt(totals.io.hit_rate(), 3),
                  Fmt(big_ms, 1), Fmt(big_base / big_ms) + "x"});
  }
  table.Print();
  std::printf("  [redundancy %.2f]\n\n", br.redundancy);
}

}  // namespace
}  // namespace zdb

int main(int argc, char** argv) {
  const size_t n = zdb::CountArg(argc, argv, 1, 20000, "[objects]");
  for (zdb::Distribution d :
       {zdb::Distribution::kUniformSmall, zdb::Distribution::kUniformLarge,
        zdb::Distribution::kClusters}) {
    zdb::RunDistribution(d, n);
  }
  return 0;
}
