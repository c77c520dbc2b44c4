// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The in-process closed-loop workloads: two client threads call
// zdb::DB directly, each issuing its next query as soon as the last one
// returns.
//
//   query-warm    uniform-small data, 16384-frame cache (the whole DB
//                 stays cached): CPU only — decompose, B+-tree scan,
//                 duplicate elimination, refine and the epoch pin.
//   query-cold    the same data and queries on the default 256-frame
//                 cache (1 MiB against ~20 MiB): isolates storage.
//   knn-clusters  clustered data, kNN only: the expanding-window search
//                 of core/knn needs several rounds here, one on uniform
//                 data. Runnable, but not in BENCHMARK.json: its numbers
//                 depend on where the seed places the clusters.
//
// A run is: set-up (median of kSetupRepeats), a short warm-up, the
// measured read phase, then — for op types the read mix lacks — a
// measured probe on the same DB: windows and points on knn-clusters,
// and on every workload a single-writer stream of durable batches
// (write_p50_us; its tail is the traced run's commit.write_p99_us).
// Every answer is checked against the brute-force oracle after the
// clock stops.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <tuple>
#include <type_traits>

#include "oracle.h"
#include "workload.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace zbench {
namespace {

static_assert(std::is_same_v<ObjectId, zdb::ObjectId>);

enum Op : uint8_t { kWindow = 0, kPoint = 1, kKnn = 2, kOpCount = 3 };
constexpr const char* kOpNames[kOpCount] = {"window", "point", "knn"};

constexpr size_t kThreads = 2;

/// Shares of windows and points; the rest of 1.0 is kNN.
struct Mix {
  double window = 0.0;
  double point = 0.0;
};
constexpr Mix kReadMix{0.7, 0.2};  // 70% windows, 20% points, 10% kNN
constexpr Mix kKnnOnly{0.0, 0.0};
constexpr Mix kWindowsAndPoints{0.7 / 0.9, 0.2 / 0.9};

struct Spec {
  zdb::Distribution distribution;
  size_t cache_pages;
  Mix mix;
  bool probe_windows;  ///< the mix lacks windows/points: probe them
  double slo_ms;       ///< latency limit behind slo_qps
};

Spec SpecFor(const std::string& workload) {
  if (workload == "query-warm") {
    return {zdb::Distribution::kUniformSmall, kWarmCachePages, kReadMix, false,
            10.0};
  }
  if (workload == "query-cold") {
    return {zdb::Distribution::kUniformSmall, 256, kReadMix, false, 10.0};
  }
  return {zdb::Distribution::kClusters, 256, kKnnOnly, true, 100.0};
}

struct Queries {
  std::vector<zdb::Rect> windows;
  std::vector<zdb::Point> points;
  std::vector<zdb::Point> knn;
};

/// One measured query, kept for the oracle check after the run.
struct Record {
  Op op = kWindow;
  bool ok = false;
  uint32_t pool = 0;      ///< index into the query pool of its kind
  Digest digest;          ///< window/point answer
  uint32_t knn_off = 0;   ///< kNN answer: slice of ThreadLog::knn_hits
  uint32_t knn_len = 0;
};

/// Everything one client thread measured in one phase.
struct ThreadLog {
  std::vector<Sample> lat[kOpCount];
  std::vector<Record> records;
  std::vector<std::pair<ObjectId, double>> knn_hits;
  uint64_t failed = 0;
  uint64_t slo_met = 0;
  std::string first_error;
  // Engine counters, collected on traced phases only.
  zdb::QueryStats window_stats;
  uint64_t windows = 0;
  zdb::QueryStats knn_stats;
  uint64_t knns = 0;
  uint64_t knn_rounds = 0;
};

struct Phase {
  std::string name;
  double seconds = 0.0;
  std::vector<ThreadLog> logs;

  uint64_t ops() const {
    uint64_t n = 0;
    for (const auto& l : logs) n += l.records.size();
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& l : logs) n += l.failed;
    return n;
  }
  uint64_t slo_met() const {
    uint64_t n = 0;
    for (const auto& l : logs) n += l.slo_met;
    return n;
  }
  std::vector<Sample> Latencies(Op op) const {
    std::vector<Sample> all;
    for (const auto& l : logs) {
      all.insert(all.end(), l.lat[op].begin(), l.lat[op].end());
    }
    return all;
  }
};

/// The window query broken into the single-shard engine's public
/// stages, one span each: pin, plan (decompose), scan (B+-tree + BIGMIN
/// + duplicate elimination), refine. Same answer as DB::Window.
zdb::Status StagedWindow(zdb::SpatialIndex* ix, const zdb::Rect& w,
                         SpanBuffer* spans, uint64_t request,
                         zdb::QueryStats* stats,
                         std::vector<ObjectId>* out) {
  zdb::EpochPin pin;
  std::unique_ptr<zdb::SpatialIndex::SnapshotReadScope> scope;
  {
    ScopedSpan s(spans, "epoch.pin", request);
    pin = ix->PinEpoch();
    auto r = ix->OpenSnapshot(pin);
    if (!r.ok()) return r.status();
    scope = std::move(r).value();
  }
  zdb::WindowPlan plan;
  {
    ScopedSpan s(spans, "decompose.plan", request);
    auto r = ix->PlanWindow(w);
    if (!r.ok()) return r.status();
    plan = std::move(r).value();
  }
  std::vector<ObjectId> candidates;
  {
    ScopedSpan s(spans, "btree.scan", request);
    auto r = ix->ExecuteWindowPlanSlice(plan, 0, plan.work_items(), stats);
    if (!r.ok()) return r.status();
    candidates = std::move(r).value();
  }
  {
    ScopedSpan s(spans, "core.refine", request);
    auto r = ix->RefineWindowCandidates(w, std::move(candidates), stats);
    if (!r.ok()) return r.status();
    *out = std::move(r).value();
  }
  return zdb::Status::OK();
}

struct WorkerArgs {
  zdb::DB* db = nullptr;
  const Queries* queries = nullptr;
  Mix mix;
  uint64_t seed = 0;
  double end_time = 0.0;
  double slo_us = 0.0;
  uint32_t thread = 0;
  SpanBuffer* spans = nullptr;  ///< non-null: traced, staged windows
};

void Worker(const WorkerArgs& a, ThreadLog* log) {
  zdb::Random rng(a.seed);
  const bool traced = a.spans != nullptr;
  while (NowSeconds() < a.end_time) {
    const double u = rng.NextDouble();
    const Op op = u < a.mix.window ? kWindow
                  : u < a.mix.window + a.mix.point ? kPoint
                                                   : kKnn;
    Record rec;
    rec.op = op;
    rec.pool = static_cast<uint32_t>(rng.Uniform(kQueryPool));
    const uint64_t request =
        (static_cast<uint64_t>(a.thread) << 40) | log->records.size();
    std::vector<ObjectId> ids;
    std::vector<std::pair<ObjectId, double>> hits;
    zdb::QueryStats qs;
    uint32_t rounds = 0;
    zdb::Status st;

    const int64_t t0 = NowNs();
    switch (op) {
      case kWindow: {
        const zdb::Rect& w = a.queries->windows[rec.pool];
        if (traced) {
          ScopedSpan root(a.spans, "query.window", request);
          st = StagedWindow(a.db->index(), w, a.spans, request, &qs, &ids);
        } else {
          auto r = a.db->Window(w);
          st = r.status();
          if (r.ok()) ids = std::move(r).value();
        }
        break;
      }
      case kPoint: {
        ScopedSpan root(a.spans, "query.point", request);
        auto r = a.db->Point(a.queries->points[rec.pool]);
        st = r.status();
        if (r.ok()) ids = std::move(r).value();
        break;
      }
      case kKnn: {
        ScopedSpan root(a.spans, "query.knn", request);
        // Traced kNN goes to the engine directly for its round count;
        // DB::Nearest forwards there for a single-shard DB.
        auto r = traced ? a.db->index()->NearestNeighbors(
                              a.queries->knn[rec.pool], kKnnK, &qs, &rounds)
                        : a.db->Nearest(a.queries->knn[rec.pool], kKnnK);
        st = r.status();
        if (r.ok()) hits = std::move(r).value();
        break;
      }
      default:
        break;
    }
    const int64_t t1 = NowNs();
    const double us = (t1 - t0) / 1000.0;

    rec.ok = st.ok();
    if (!st.ok()) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = st.ToString();
    } else {
      log->lat[op].push_back({t1 / 1e9, us});
      if (us <= a.slo_us) ++log->slo_met;
    }
    if (op == kKnn) {
      rec.knn_off = static_cast<uint32_t>(log->knn_hits.size());
      rec.knn_len = static_cast<uint32_t>(hits.size());
      log->knn_hits.insert(log->knn_hits.end(), hits.begin(), hits.end());
      if (traced) {
        log->knn_stats.Add(qs);
        ++log->knns;
        log->knn_rounds += rounds;
      }
    } else {
      rec.digest = DigestOf(&ids);
      if (traced && op == kWindow) {
        log->window_stats.Add(qs);
        ++log->windows;
      }
    }
    log->records.push_back(rec);
  }
}

/// Runs `kThreads` clients for `seconds` and returns what they measured.
Phase RunPhase(const std::string& name, zdb::DB* db, const Queries& q,
               Mix mix, double seconds, double slo_ms, uint64_t seed,
               Tracer* tracer) {
  Phase phase;
  phase.name = name;
  phase.logs.resize(kThreads);
  std::vector<std::thread> threads;
  const double start = NowSeconds();
  for (size_t t = 0; t < kThreads; ++t) {
    WorkerArgs a;
    a.db = db;
    a.queries = &q;
    a.mix = mix;
    a.seed = SubSeed(seed, t);
    a.end_time = start + seconds;
    a.slo_us = slo_ms * 1000.0;
    a.thread = static_cast<uint32_t>(t);
    a.spans = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    threads.emplace_back(Worker, a, &phase.logs[t]);
  }
  for (auto& th : threads) th.join();
  phase.seconds = NowSeconds() - start;
  return phase;
}

/// A single writer applying durable batches (kBatchInserts inserts of
/// the workload's distribution + as many erases of live objects).
struct WriteProbe {
  std::vector<Sample> lat;
  std::vector<AppliedBatch> batches;
  uint64_t failed = 0;
  std::string first_error;
  DbCounters delta;
  double mean_lag = 0.0, mean_versions = 0.0;
  double seconds = 0.0;
};

WriteProbe RunWriteProbe(zdb::DB* db, const Spec& spec, uint64_t seed,
                         double seconds, SpanBuffer* spans) {
  WriteProbe probe;
  zdb::DataGenOptions dg;
  dg.distribution = spec.distribution;
  dg.seed = SubSeed(seed, 50);
  const std::vector<zdb::Rect> fresh = zdb::GenerateData(kObjects / 10, dg);
  std::vector<ObjectId> live(kObjects);
  for (size_t i = 0; i < live.size(); ++i) live[i] = static_cast<ObjectId>(i);
  zdb::Random rng(SubSeed(seed, 51));
  size_t next_fresh = 0;

  const DbCounters before = DbCounters::Take(db);
  StatsSampler sampler(db);
  const double start = NowSeconds();
  while (NowSeconds() < start + seconds) {
    zdb::WriteBatch batch;
    AppliedBatch applied;
    for (size_t i = 0; i < kBatchInserts; ++i) {
      const size_t pick = rng.Uniform(live.size());
      applied.erased.push_back(live[pick]);
      batch.Erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    for (size_t i = 0; i < kBatchInserts; ++i) {
      applied.rects.push_back(fresh[next_fresh++ % fresh.size()]);
      batch.Insert(applied.rects.back());
    }
    ScopedSpan span(spans, "db.apply", probe.batches.size());
    const int64_t t0 = NowNs();
    auto r = db->Apply(batch, zdb::Durability::kDurable);
    const int64_t t1 = NowNs();
    if (!r.ok()) {
      ++probe.failed;
      if (probe.first_error.empty()) probe.first_error = r.status().ToString();
      live.insert(live.end(), applied.erased.begin(), applied.erased.end());
      continue;
    }
    probe.lat.push_back({t1 / 1e9, (t1 - t0) / 1000.0});
    applied.inserted = std::move(r).value();
    applied.epoch = db->write_epoch();  // the only writer: exact
    live.insert(live.end(), applied.inserted.begin(), applied.inserted.end());
    probe.batches.push_back(std::move(applied));
  }
  probe.seconds = NowSeconds() - start;
  std::tie(probe.mean_lag, probe.mean_versions) = sampler.Finish();
  probe.delta = DbCounters::Take(db).Minus(before);
  return probe;
}

/// Checks every record of `phase` against the oracle at `epoch`.
/// Expected window/point digests are cached per pool index.
void CheckPhase(const Phase& phase, const Queries& q, const Oracle& oracle,
                uint64_t epoch, const std::string& where,
                std::vector<std::optional<Digest>> cache[2], Outcome* out) {
  for (size_t t = 0; t < phase.logs.size(); ++t) {
    const ThreadLog& log = phase.logs[t];
    for (size_t i = 0; i < log.records.size(); ++i) {
      const Record& rec = log.records[i];
      if (!rec.ok) continue;  // counted as failed, not as wrong
      std::string err;
      if (rec.op == kKnn) {
        std::vector<std::pair<ObjectId, double>> got(
            log.knn_hits.begin() + rec.knn_off,
            log.knn_hits.begin() + rec.knn_off + rec.knn_len);
        err = CheckKnn(oracle, q.knn[rec.pool], kKnnK, epoch, got);
      } else {
        auto& slot = cache[rec.op][rec.pool];
        if (!slot) {
          std::vector<ObjectId> want =
              rec.op == kWindow ? oracle.Window(q.windows[rec.pool], epoch)
                                : oracle.PointHits(q.points[rec.pool], epoch);
          slot = DigestOf(&want);
        }
        err = CheckDigest(rec.digest, *slot);
      }
      if (!err.empty()) {
        out->Fail(where + ": " + phase.name + " phase, thread " +
                  std::to_string(t) + ", " + kOpNames[rec.op] + " query #" +
                  std::to_string(i) + " (pool index " +
                  std::to_string(rec.pool) + "): " + err);
        return;
      }
    }
  }
}

void CountPhase(const Phase& p, Outcome* out) {
  out->attempted += p.ops();
  out->failed += p.failed();
  for (const auto& log : p.logs) {
    if (!log.first_error.empty()) {
      out->details.push_back(p.name + " phase error: " + log.first_error);
    }
  }
}

/// shard.route_us: DB::Window against index()->WindowQuery on the same
/// windows, alternating which goes first. Also checks that the staged
/// path, DB::Window and the engine agree id for id.
double RouteProbe(zdb::DB* db, const Queries& q, size_t n,
                  const std::string& where, Outcome* out) {
  std::vector<double> via_db, direct;
  for (size_t i = 0; i < n; ++i) {
    const zdb::Rect& w = q.windows[i % q.windows.size()];
    std::vector<ObjectId> a, b, staged;
    for (int pass = 0; pass < 2; ++pass) {
      const bool db_first = (i + pass) % 2 == 0;
      const int64_t t0 = NowNs();
      auto r = db_first ? db->Window(w) : db->index()->WindowQuery(w);
      const double us = (NowNs() - t0) / 1000.0;
      if (!r.ok()) {
        out->Fail(where + ": route probe window failed: " +
                  r.status().ToString());
        return 0.0;
      }
      (db_first ? via_db : direct).push_back(us);
      (db_first ? a : b) = std::move(r).value();
    }
    zdb::QueryStats qs;
    const zdb::Status st =
        StagedWindow(db->index(), w, nullptr, 0, &qs, &staged);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(staged.begin(), staged.end());
    if (!st.ok() || a != b || a != staged) {
      out->Fail(where + ": staged window path disagrees with DB::Window on "
                "route-probe window " + std::to_string(i));
      return 0.0;
    }
  }
  return Median(via_db) - Median(direct);
}

}  // namespace

void RunClosedLoop(const RunContext& ctx, Outcome* out) {
  const Args& args = ctx.args;
  const Spec spec = SpecFor(args.workload);
  const std::string where =
      args.workload + " seed " + std::to_string(args.seed);
  const double S = args.seconds;

  zdb::DataGenOptions dg;
  dg.distribution = spec.distribution;
  dg.seed = SubSeed(args.seed, 1);
  const std::vector<zdb::Rect> data = zdb::GenerateData(kObjects, dg);
  Queries q;
  q.windows = zdb::GenerateWindows(kQueryPool, kWindowArea,
                                   zdb::QueryGenOptions{.seed = SubSeed(args.seed, 2)});
  q.points = zdb::GeneratePoints(kQueryPool, SubSeed(args.seed, 3));
  q.knn = zdb::GeneratePoints(kQueryPool, SubSeed(args.seed, 4));

  zdb::DBOptions options;
  options.cache_pages = spec.cache_pages;
  std::unique_ptr<zdb::DB> db;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string path = ctx.tmp_dir + "/db" + std::to_string(rep) + ".zdb";
    const double t0 = NowSeconds();
    auto r = OpenLoaded(path, data, options);
    setup_s.push_back(NowSeconds() - t0);
    if (!r.ok()) {
      out->Fail(where + ": set-up failed: " + r.status().ToString());
      return;
    }
    db = std::move(r).value();
    if (rep + 1 < kSetupRepeats) {
      db.reset();
      RemoveDbFiles(path);
    }
  }
  const uint64_t epoch0 = db->write_epoch();

  Phase warm = RunPhase("warm-up", db.get(), q, spec.mix, 0.05 * S,
                        spec.slo_ms, SubSeed(args.seed, 10), nullptr);
  std::vector<Phase> reads;  // every measured read phase, for the oracle
  LayerNumbers layers;
  Tracer tracer;
  double space_amp = 0.0;
  WriteProbe writes;

  if (!args.trace) {
    reads.push_back(RunPhase("main", db.get(), q, spec.mix,
                             (spec.probe_windows ? 0.6 : 0.75) * S,
                             spec.slo_ms, SubSeed(args.seed, 11), nullptr));
    if (spec.probe_windows) {
      reads.push_back(RunPhase("window-probe", db.get(), q,
                               kWindowsAndPoints, 0.15 * S, spec.slo_ms,
                               SubSeed(args.seed, 12), nullptr));
    }
    space_amp = SpaceAmp(db.get());
    writes = RunWriteProbe(db.get(), spec, args.seed, 0.15 * S, nullptr);
  } else {
    // Untraced and traced halves of the same read mix: their qps ratio
    // is the tracing overhead.
    const double half = (spec.probe_windows ? 0.3 : 0.375) * S;
    reads.push_back(RunPhase("untraced", db.get(), q, spec.mix, half,
                             spec.slo_ms, SubSeed(args.seed, 11), nullptr));
    const DbCounters before = DbCounters::Take(db.get());
    reads.push_back(RunPhase("traced", db.get(), q, spec.mix, half,
                             spec.slo_ms, SubSeed(args.seed, 13), &tracer));
    const DbCounters read_delta = DbCounters::Take(db.get()).Minus(before);
    layers.SetReadSide(read_delta, reads.back().ops());
    const double untraced_qps = reads[0].ops() / reads[0].seconds;
    const double traced_qps = reads[1].ops() / reads[1].seconds;
    layers.trace_overhead_pct = (untraced_qps / traced_qps - 1.0) * 100.0;
    if (spec.probe_windows) {
      reads.push_back(RunPhase("traced-window-probe", db.get(), q,
                               kWindowsAndPoints, 0.15 * S, spec.slo_ms,
                               SubSeed(args.seed, 14), &tracer));
    }
    zdb::QueryStats ws, ks;
    uint64_t windows = 0, knns = 0, rounds = 0;
    for (size_t p = 1; p < reads.size(); ++p) {
      for (const ThreadLog& log : reads[p].logs) {
        ws.Add(log.window_stats);
        windows += log.windows;
        ks.Add(log.knn_stats);
        knns += log.knns;
        rounds += log.knn_rounds;
      }
    }
    auto per = [](double v, uint64_t n) { return n ? v / n : 0.0; };
    layers.elements_per_query = per(ws.query_elements, windows);
    layers.entries_per_query = per(ws.index_entries, windows);
    layers.bigmin_jumps_per_query = per(ws.bigmin_jumps, windows);
    layers.dup_ratio = per(ws.duplicates(), ws.candidates);
    layers.false_hit_ratio = per(ws.false_hits, ws.unique_candidates);
    layers.results_per_query = per(ws.results, windows);
    layers.knn_rounds_per_query = per(rounds, knns);
    layers.knn_entries_per_query = per(ks.index_entries, knns);
    layers.pin_us = Median(tracer.DurationsUs("epoch.pin"));
    layers.plan_us = Median(tracer.DurationsUs("decompose.plan"));
    layers.scan_us = Median(tracer.DurationsUs("btree.scan"));
    layers.refine_us = Median(tracer.DurationsUs("core.refine"));
    layers.route_us = RouteProbe(db.get(), q, 400, where, out);
    writes = RunWriteProbe(db.get(), spec, args.seed, 0.1 * S,
                           tracer.NewBuffer());
  }
  const uint64_t write_ops = writes.batches.size() * 2 * kBatchInserts;
  layers.SetWriteSide(writes.delta, writes.batches.size(), write_ops,
                      db->Stats().page_size, writes.mean_lag,
                      writes.mean_versions);
  layers.write_p99_us = SlicedTail(writes.lat).value;

  // ------------------------------------------------------------ verdict
  Oracle oracle;
  const std::string feed = FeedOracle(data, writes.batches, &oracle);
  if (!feed.empty()) out->Fail(where + ": write probe: " + feed);
  std::vector<std::optional<Digest>> cache[2] = {
      std::vector<std::optional<Digest>>(kQueryPool),
      std::vector<std::optional<Digest>>(kQueryPool)};
  CheckPhase(warm, q, oracle, epoch0, where, cache, out);
  for (const Phase& p : reads) {
    CheckPhase(p, q, oracle, epoch0, where, cache, out);
    CountPhase(p, out);
  }
  // After the write probe: windows at the final epoch see its batches.
  const uint64_t final_epoch = db->write_epoch();
  for (size_t i = 0; i < 64 && out->correct; ++i) {
    auto r = db->Window(q.windows[i]);
    if (!r.ok()) {
      out->Fail(where + ": post-write window " + std::to_string(i) +
                " failed: " + r.status().ToString());
      break;
    }
    std::vector<ObjectId> got = std::move(r).value();
    std::vector<ObjectId> want = oracle.Window(q.windows[i], final_epoch);
    const std::string err = CheckDigest(DigestOf(&got), DigestOf(&want));
    if (!err.empty()) {
      out->Fail(where + ": post-write window query #" + std::to_string(i) +
                ": " + err);
    }
  }
  out->attempted += writes.batches.size() + writes.failed;
  out->failed += writes.failed;
  if (!writes.first_error.empty()) {
    out->details.push_back("write probe error: " + writes.first_error);
  }

  // ------------------------------------------------------------ metrics
  if (args.trace) {
    AddLayerMetrics(layers, out);
    AddSpanDetails(tracer, out);
    if (!tracer.WriteCsv(ctx.trace_path)) {
      out->details.push_back("could not write " + ctx.trace_path);
    }
    return;
  }
  const Phase& main = reads[0];
  const Phase& lookups = spec.probe_windows ? reads[1] : reads[0];
  out->Add("setup_s", Median(setup_s), "s");
  out->Add("qps", main.ops() / main.seconds, "ops/s");
  out->Add("slo_qps", main.slo_met() / main.seconds, "ops/s");
  out->AddLatency("window", lookups.Latencies(kWindow));
  out->AddLatency("point", lookups.Latencies(kPoint));
  out->AddLatency("knn", main.Latencies(kKnn));
  out->AddMedian("write_p50_us", writes.lat);
  out->Add("space_amp", space_amp, "ratio");
  out->Add("rss_mb", PeakRssMb(), "MiB");
  char line[160];
  std::snprintf(line, sizeof(line),
                "main phase %.2f s, %llu ops; slo_qps counts ops within %.0f ms",
                main.seconds, static_cast<unsigned long long>(main.ops()),
                spec.slo_ms);
  out->details.push_back(line);
}

}  // namespace zbench
