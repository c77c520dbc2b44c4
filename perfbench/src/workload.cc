// Copyright (c) zdb authors. Licensed under the MIT license.

#include "workload.h"

#include <chrono>
#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

namespace zbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

zdb::Result<std::unique_ptr<zdb::DB>> OpenLoaded(
    const std::string& path, const std::vector<zdb::Rect>& data,
    const zdb::DBOptions& options) {
  std::unique_ptr<zdb::DB> db;
  ZDB_ASSIGN_OR_RETURN(db, zdb::DB::Open(path, options));
  ZDB_RETURN_IF_ERROR(db->BulkLoad(data));
  ZDB_RETURN_IF_ERROR(db->Checkpoint());
  return db;
}

void RemoveDbFiles(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink((path + "-journal").c_str());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SpaceAmp(zdb::DB* db) {
  const zdb::DBStats st = db->Stats();
  const double user = static_cast<double>(st.objects) * kUserBytesPerObject;
  return user > 0.0 ? static_cast<double>(st.pages) * st.page_size / user : 0.0;
}

DbCounters DbCounters::Take(zdb::DB* db) {
  const zdb::IoStats& io = db->io_stats();
  DbCounters s;
  s.page_reads = io.page_reads.load(std::memory_order_relaxed);
  s.page_writes = io.page_writes.load(std::memory_order_relaxed);
  s.hits = io.pool_hits.load(std::memory_order_relaxed);
  s.misses = io.pool_misses.load(std::memory_order_relaxed);
  s.evictions = io.pool_evictions.load(std::memory_order_relaxed);
  const zdb::DBStats st = db->Stats();
  s.journal_commits = st.journal_commits;
  s.versions_saved = st.versions_saved;
  s.versions_reclaimed = st.versions_reclaimed;
  return s;
}

DbCounters DbCounters::Minus(const DbCounters& base) const {
  DbCounters d;
  d.page_reads = page_reads - base.page_reads;
  d.page_writes = page_writes - base.page_writes;
  d.hits = hits - base.hits;
  d.misses = misses - base.misses;
  d.evictions = evictions - base.evictions;
  d.journal_commits = journal_commits - base.journal_commits;
  d.versions_saved = versions_saved - base.versions_saved;
  d.versions_reclaimed = versions_reclaimed - base.versions_reclaimed;
  return d;
}

std::string FeedOracle(const std::vector<zdb::Rect>& initial,
                       const std::vector<AppliedBatch>& batches,
                       Oracle* oracle) {
  for (size_t i = 0; i < initial.size(); ++i) {
    oracle->Add(static_cast<ObjectId>(i), initial[i], 0);
  }
  for (const AppliedBatch& b : batches) {
    for (size_t i = 0; i < b.inserted.size(); ++i) {
      oracle->Add(b.inserted[i], b.rects[i], b.epoch);
    }
    for (ObjectId oid : b.erased) {
      if (!oracle->Kill(oid, b.epoch)) {
        return "batch at epoch " + std::to_string(b.epoch) +
               " erased object " + std::to_string(oid) +
               " that was not alive";
      }
    }
  }
  oracle->Seal();
  return "";
}

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void LayerNumbers::SetWriteSide(const DbCounters& delta, uint64_t batches,
                                uint64_t ops, uint32_t page_size,
                                double mean_lag, double mean_versions) {
  page_writes_per_batch = Ratio(delta.page_writes, batches);
  write_amp = Ratio(static_cast<double>(delta.page_writes) * page_size,
                    static_cast<double>(ops) * kUserBytesPerObject);
  batches_per_fsync = Ratio(batches, delta.journal_commits);
  reclaim_ratio = Ratio(delta.versions_reclaimed, delta.versions_saved);
  durable_lag_epochs = mean_lag;
  page_versions = mean_versions;
}

void LayerNumbers::SetReadSide(const DbCounters& delta, uint64_t ops) {
  pool_hit_ratio = Ratio(delta.hits, delta.hits + delta.misses);
  page_reads_per_op = Ratio(delta.page_reads, ops);
  evictions_per_op = Ratio(delta.evictions, ops);
}

void AddLayerMetrics(const LayerNumbers& n, Outcome* out) {
  out->Add("storage.pool_hit_ratio", n.pool_hit_ratio, "ratio");
  out->Add("storage.page_reads_per_op", n.page_reads_per_op, "count");
  out->Add("storage.evictions_per_op", n.evictions_per_op, "count");
  out->Add("storage.page_writes_per_batch", n.page_writes_per_batch, "count");
  out->Add("storage.write_amp", n.write_amp, "ratio");
  out->Add("decompose.plan_us", n.plan_us, "us");
  out->Add("decompose.elements_per_query", n.elements_per_query, "count");
  out->Add("btree.scan_us", n.scan_us, "us");
  out->Add("btree.entries_per_query", n.entries_per_query, "count");
  out->Add("btree.bigmin_jumps_per_query", n.bigmin_jumps_per_query, "count");
  out->Add("core.dup_ratio", n.dup_ratio, "ratio");
  out->Add("core.false_hit_ratio", n.false_hit_ratio, "ratio");
  out->Add("core.refine_us", n.refine_us, "us");
  out->Add("core.results_per_query", n.results_per_query, "count");
  out->Add("epoch.pin_us", n.pin_us, "us");
  out->Add("epoch.page_versions", n.page_versions, "count");
  out->Add("epoch.reclaim_ratio", n.reclaim_ratio, "ratio");
  out->Add("knn.rounds_per_query", n.knn_rounds_per_query, "count");
  out->Add("knn.entries_per_query", n.knn_entries_per_query, "count");
  out->Add("shard.route_us", n.route_us, "us");
  out->Add("commit.batches_per_fsync", n.batches_per_fsync, "ratio");
  out->Add("commit.durable_lag_epochs", n.durable_lag_epochs, "count");
  out->Add("commit.write_p99_us", n.write_p99_us, "us");
  out->Add("server.exec_us.window", n.exec_us_window, "us");
  out->Add("server.exec_us.point", n.exec_us_point, "us");
  out->Add("server.exec_us.knn", n.exec_us_knn, "us");
  out->Add("server.exec_us.apply", n.exec_us_apply, "us");
  out->Add("server.overhead_us", n.server_overhead_us, "us");
  out->Add("server.busy_rejected", n.busy_rejected, "count");
  out->Add("gen.late_p99_us", n.late_p99_us, "us");
  out->Add("trace.overhead_pct", n.trace_overhead_pct, "%");
}

void AddSpanDetails(const Tracer& tracer, Outcome* out) {
  out->details.push_back("spans: " + std::to_string(tracer.span_count()) +
                         " recorded, " + std::to_string(tracer.dropped()) +
                         " dropped at the per-thread cap");
  for (const SpanSummary& s : tracer.Summarize()) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span %s: %zu spans, p50 %.2f us, self p50 %.2f us, "
                  "self total %.1f ms",
                  s.name.c_str(), s.count, s.p50_us, s.self_p50_us,
                  s.self_total_ms);
    out->details.push_back(line);
  }
}

StatsSampler::StatsSampler(zdb::DB* db)
    : db_(db), thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          const zdb::DBStats st = db_->Stats();
          lag_sum_ += static_cast<double>(st.write_epoch - st.durable_epoch);
          versions_sum_ += static_cast<double>(st.page_versions);
          ++samples_;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

StatsSampler::~StatsSampler() { Finish(); }

std::pair<double, double> StatsSampler::Finish() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (samples_ == 0) return {0.0, 0.0};
  return {lag_sum_ / samples_, versions_sum_ / samples_};
}

}  // namespace zbench
