// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Shared pieces of zbench's workloads: sizes, seeds, the timed set-up
// of a loaded file-backed DB, and the counters every workload reads.

#ifndef ZBENCH_WORKLOAD_H_
#define ZBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "oracle.h"
#include "summary.h"
#include "trace.h"
#include "zdb/db.h"

namespace zbench {

/// Objects per workload: about 5.1k 4 KiB pages at redundancy 3.37.
inline constexpr size_t kObjects = 200000;
/// Window queries cover 0.1% of the unit square.
inline constexpr double kWindowArea = 0.001;
inline constexpr size_t kKnnK = 8;
/// Distinct queries of each kind per run; a run cycles through them.
inline constexpr size_t kQueryPool = 20000;
/// A write batch: this many inserts and as many erases.
inline constexpr size_t kBatchInserts = 32;
/// User bytes per object for space_amp/write_amp: 16 B MBR + 4 B payload.
inline constexpr double kUserBytesPerObject = 20.0;
/// Buffer-pool frames that hold the whole DB (~5.1k pages) in memory.
inline constexpr size_t kWarmCachePages = 16384;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct RunContext {
  Args args;
  std::string tmp_dir;     ///< this run's scratch dir (removed at exit)
  std::string trace_path;  ///< where a traced run writes its spans
};

/// A seed for one input stream of the run, derived from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Opens a fresh file DB at `path`, bulk loads `data` and checkpoints.
zdb::Result<std::unique_ptr<zdb::DB>> OpenLoaded(
    const std::string& path, const std::vector<zdb::Rect>& data,
    const zdb::DBOptions& options);

/// Deletes a DB file and its journal.
void RemoveDbFiles(const std::string& path);

/// Seconds since an arbitrary epoch (steady clock).
double NowSeconds();

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// DB bytes (pages x page size) per byte of live user data.
double SpaceAmp(zdb::DB* db);

/// Plain copy of the DB's cumulative counters, for deltas over a phase.
struct DbCounters {
  uint64_t page_reads = 0, page_writes = 0, hits = 0, misses = 0,
           evictions = 0;
  uint64_t journal_commits = 0, versions_saved = 0, versions_reclaimed = 0;
  static DbCounters Take(zdb::DB* db);
  DbCounters Minus(const DbCounters& base) const;
};

/// One write batch as the DB acknowledged it: the epoch it was
/// published at, the oids it erased, and the oids and MBRs it inserted.
struct AppliedBatch {
  uint64_t epoch = 0;
  std::vector<ObjectId> erased;
  std::vector<ObjectId> inserted;
  std::vector<zdb::Rect> rects;
};

/// Loads the bulk-loaded objects (oid = position, alive from epoch 0)
/// and every applied batch into `oracle` and seals it. Returns an error
/// text if a batch erased an object that was not alive.
std::string FeedOracle(const std::vector<zdb::Rect>& initial,
                       const std::vector<AppliedBatch>& batches,
                       Oracle* oracle);

/// The per-layer numbers of a traced run. Every workload prints all of
/// them; a layer a workload does not reach reads 0.
struct LayerNumbers {
  double pool_hit_ratio = 0, page_reads_per_op = 0, evictions_per_op = 0;
  double page_writes_per_batch = 0, write_amp = 0;
  double plan_us = 0, elements_per_query = 0;
  double scan_us = 0, entries_per_query = 0, bigmin_jumps_per_query = 0;
  double dup_ratio = 0, false_hit_ratio = 0, refine_us = 0,
         results_per_query = 0;
  double pin_us = 0, page_versions = 0, reclaim_ratio = 0;
  double knn_rounds_per_query = 0, knn_entries_per_query = 0;
  double route_us = 0;
  double batches_per_fsync = 0, durable_lag_epochs = 0, write_p99_us = 0;
  double exec_us_window = 0, exec_us_point = 0, exec_us_knn = 0,
         exec_us_apply = 0;
  double server_overhead_us = 0, busy_rejected = 0;
  double late_p99_us = 0;
  double trace_overhead_pct = 0;

  /// Fills the storage/commit/epoch write-side numbers from the counter
  /// delta of a phase that applied `batches` batches of `ops` ops.
  void SetWriteSide(const DbCounters& delta, uint64_t batches, uint64_t ops,
                    uint32_t page_size, double mean_lag,
                    double mean_versions);
  /// Fills the read-side pool numbers from a phase's delta over `ops`.
  void SetReadSide(const DbCounters& delta, uint64_t ops);
};

/// Appends every per-layer metric, in BENCHMARK.json order.
void AddLayerMetrics(const LayerNumbers& n, Outcome* out);

/// Appends one detail line per span name (count, p50, self p50).
void AddSpanDetails(const Tracer& tracer, Outcome* out);

/// Samples DB::Stats() every few milliseconds on its own thread while
/// alive: the durable lag (write epoch - durable epoch) and the number
/// of retained page versions.
class StatsSampler {
 public:
  explicit StatsSampler(zdb::DB* db);
  ~StatsSampler();
  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Stops sampling; returns {mean durable lag, mean page versions}.
  std::pair<double, double> Finish();

 private:
  zdb::DB* db_;
  std::atomic<bool> stop_{false};
  double lag_sum_ = 0.0, versions_sum_ = 0.0;
  uint64_t samples_ = 0;
  std::thread thread_;  // last: starts after the fields it uses
};

/// The workloads. Each fills `out` (metrics, counts, verdict).
void RunClosedLoop(const RunContext& ctx, Outcome* out);
void RunServed(const RunContext& ctx, Outcome* out);

}  // namespace zbench

#endif  // ZBENCH_WORKLOAD_H_
