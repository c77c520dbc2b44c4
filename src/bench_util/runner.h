// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Shared plumbing for the experiment binaries: environment construction,
// index building with I/O accounting, and query-batch runners that report
// average page accesses per query under a cold cache (the pool is
// flushed between queries, so every query pays its full path — the
// "search path buffer only" regime of the 1989 setups, measured
// uniformly for all methods).

#ifndef ZDB_BENCH_UTIL_RUNNER_H_
#define ZDB_BENCH_UTIL_RUNNER_H_

#include <memory>
#include <vector>

#include "core/spatial_index.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "zdb/db.h"

namespace zdb {

/// Storage environment of one experiment run.
struct Env {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;

  /// Page accesses since the given snapshot.
  IoStats Delta(const IoStats& snap) const {
    return pager->io_stats().Since(snap);
  }
};

/// Default experiment page size: 512 bytes, as in the era's comparisons
/// (small pages emulate much larger files at a given object count).
inline constexpr uint32_t kBenchPageSize = 512;

/// Default pool: enough frames for a search path plus siblings, small
/// enough that data pages do not linger.
inline constexpr size_t kBenchPoolPages = 16;

Env MakeEnv(uint32_t page_size = kBenchPageSize,
            size_t pool_pages = kBenchPoolPages);

/// Replaces `env`'s pool with one of `pool_pages` frames over the same
/// pager — cache-size ablations re-attach their index afterwards.
void ResizePool(Env* env, size_t pool_pages);

/// Build metrics common to all methods.
struct BuildResult {
  double avg_insert_accesses = 0.0;  ///< page reads+writes per insert
  uint64_t pages = 0;                ///< pages allocated (index + data)
  uint32_t height = 0;
  double redundancy = 1.0;           ///< index entries per object
  double avg_error = 0.0;            ///< mean decomposition error
};

/// Creates an empty z-order index in `env`. Engine assembly lives here
/// so the bench binaries never construct SpatialIndex directly.
Result<std::unique_ptr<SpatialIndex>> MakeZIndex(
    Env* env, const SpatialIndexOptions& options);

/// Re-attaches a checkpointed index in `env` from its master page.
Result<std::unique_ptr<SpatialIndex>> OpenZIndex(Env* env, PageId master);

/// Builds a z-order index over `data`, measuring insertion I/O.
Result<std::unique_ptr<SpatialIndex>> BuildZIndex(
    Env* env, const std::vector<Rect>& data,
    const SpatialIndexOptions& options, BuildResult* build = nullptr);

/// Opens an in-memory zdb::DB (no journal,
/// kBenchPageSize pages, a `cache_pages`-frame cache) and inserts `data`
/// one object at a time (ids 0..n-1), measuring insertion I/O like
/// BuildZIndex. The executor and server experiments (E12–E14) build
/// through this, so they measure the stack users actually open.
Result<std::unique_ptr<DB>> BuildZDB(const std::vector<Rect>& data,
                                     const SpatialIndexOptions& options,
                                     size_t cache_pages,
                                     BuildResult* build = nullptr);

/// Builds an R-tree over `data` (ids 0..n-1), measuring insertion I/O.
Result<std::unique_ptr<RTree>> BuildRTree(Env* env,
                                          const std::vector<Rect>& data,
                                          const RTreeOptions& options,
                                          BuildResult* build = nullptr);

/// Aggregated result of a query batch.
struct RunResult {
  double avg_accesses = 0.0;  ///< page reads+writes per query, cold cache
  double avg_results = 0.0;
  QueryStats totals;          ///< summed per-query stats
  size_t queries = 0;

  double per_query(uint64_t total) const {
    return queries ? static_cast<double>(total) / queries : 0.0;
  }
};

/// Runs window queries against a z-index, cold cache per query.
Result<RunResult> RunWindowQueries(Env* env, SpatialIndex* index,
                                   const std::vector<Rect>& windows);

/// Runs point queries against a z-index, cold cache per query.
Result<RunResult> RunPointQueries(Env* env, SpatialIndex* index,
                                  const std::vector<Point>& points);

/// Runs window queries against an R-tree, cold cache per query.
Result<RunResult> RunRTreeWindowQueries(Env* env, RTree* tree,
                                        const std::vector<Rect>& windows);

/// Runs point queries against an R-tree, cold cache per query.
Result<RunResult> RunRTreePointQueries(Env* env, RTree* tree,
                                       const std::vector<Point>& points);

/// Parses a count argument: a positive decimal integer that fits in
/// size_t. Empty input, anything but digits (signs and spaces too),
/// trailing garbage, zero and overflow are InvalidArgument.
[[nodiscard]] Result<size_t> ParseCount(const char* arg);

/// argv[i] parsed by ParseCount, or `fallback` when the argument is
/// absent. A malformed argument prints "usage: <argv[0]> <usage>" and
/// the reason to stderr and exits with code 2, so a typo can never run
/// an experiment on a zero-sized input.
size_t CountArg(int argc, char** argv, int i, size_t fallback,
                const char* usage);

}  // namespace zdb

#endif  // ZDB_BENCH_UTIL_RUNNER_H_
