// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The served workloads: uniform-small data, fully cached, behind
// net::Server (default options) on loopback, driven open loop. Each
// connection sends on a fixed schedule, evenly spaced and staggered
// within its group, whether or not its earlier replies are back, and
// every latency is timed from when its request was due, so a stall also
// charges the requests queued behind it.
//
//   serve-read   three reader connections (65% windows, 20% points, 5%
//                kNN, in proportion), then one writer connection sending
//                durable batches (32 inserts + 32 erases) back to back.
//   serve-mixed  the same readers plus two writer connections whose
//                batches are 10% of the traffic, concurrently.
//
// The run climbs a fixed ladder of offered rates. slo_qps is the
// achieved rate of the highest rung whose read tail stays under
// kReadLimitMs and whose generator kept up (last request sent less than
// kBacklogLimitMs late); the latency metrics come from the reference
// rung.
//
// Reads are checked after the run against the oracle at an epoch inside
// each reply's [epoch_before, epoch_after] bracket.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "client/client.h"
#include "oracle.h"
#include "server/server.h"
#include "workload.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace zbench {
namespace {

enum Op : uint8_t { kWindow = 0, kPoint, kKnn, kWrite, kOpCount };
constexpr const char* kOpNames[kOpCount] = {"window", "point", "knn",
                                            "write"};
/// Reads (windows / points / kNN in proportion 65 : 20 : 5) go over the
/// reader connections, durable batches (10% of the traffic) over the
/// writer connections. A connection is synchronous, so a batch on a
/// connection that also read would hold every read queued behind it for
/// the whole group-commit fsync; keeping them apart lets the read tail
/// measure the read path under concurrent writers instead of that
/// head-of-line wait. Two writers give group commit batches to coalesce.
constexpr size_t kReaderConnections = 3;
constexpr size_t kWriterConnections = 2;
constexpr double kWriteShare = 0.10;
constexpr double kShareWindow = 0.65 / 0.9;
constexpr double kSharePoint = 0.20 / 0.9;

constexpr double kReferenceShare = 0.5;  ///< of --seconds
constexpr double kRungShare = 0.12;      ///< each other rung
constexpr double kWritePhaseShare = 0.15;

/// What distinguishes the two served workloads.
struct ServedSpec {
  /// Batches run concurrently with the reads (serve-mixed) or in a
  /// closed-loop phase of their own after the ladder (serve-read).
  bool concurrent_writes;
  /// Offered rates (req/s), climbed in order until one fails. The
  /// latency metrics come from the reference rung, which runs longest.
  std::vector<double> rungs;
  double reference;
};

ServedSpec ServedSpecFor(const std::string& workload) {
  if (workload == "serve-mixed") return {true, {500, 1000, 2000, 4000}, 500};
  return {false, {1000, 2000, 8000}, 1000};
}
constexpr double kReadLimitMs = 20.0;
constexpr double kBacklogLimitMs = 50.0;

/// One read reply, kept for the oracle check.
struct ReadRecord {
  Op op = kWindow;
  uint32_t pool = 0;
  uint64_t e0 = 0, e1 = 0;
  Digest digest;
  uint32_t knn_off = 0, knn_len = 0;
};

/// A connection and its writer state, which persists across rungs.
struct Conn {
  std::unique_ptr<zdb::net::Client> client;
  bool writer = false;
  std::vector<ObjectId> live;  ///< objects only this connection erases
  std::vector<zdb::Rect> fresh;
  size_t next_fresh = 0;
};

/// What one connection measured in one rung.
struct ConnLog {
  std::vector<Sample> lat[kOpCount];  ///< from due time
  std::vector<double> read_rtt_us;       ///< from send, reads only
  std::vector<double> late_us;           ///< send time - due time
  std::vector<ReadRecord> reads;
  std::vector<std::pair<ObjectId, double>> knn_hits;
  std::vector<AppliedBatch> batches;  ///< epoch = reply's epoch_after
  uint64_t attempted = 0, failed = 0;
  std::vector<double> failed_at;  ///< completion times of failed requests
  double last_late_ms = 0.0;
  std::string first_error;
};

struct Rung {
  std::string name;
  double seconds = 0.0;
  std::vector<ConnLog> logs;

  uint64_t completed() const {
    uint64_t n = 0;
    for (const auto& l : logs) n += l.attempted - l.failed;
    return n;
  }
  std::vector<Sample> Latencies(Op op) const {
    std::vector<Sample> all;
    for (const auto& l : logs) {
      all.insert(all.end(), l.lat[op].begin(), l.lat[op].end());
    }
    return all;
  }
  /// Read latencies, with each failed request as an infinite one (a
  /// refused request misses every limit).
  std::vector<Sample> ReadLatencies() const {
    std::vector<Sample> all;
    for (Op op : {kWindow, kPoint, kKnn}) {
      const std::vector<Sample> v = Latencies(op);
      all.insert(all.end(), v.begin(), v.end());
    }
    for (const auto& l : logs) {
      for (double at : l.failed_at) all.push_back({at, 1e300});
    }
    return all;
  }
  double ReadTailUs() const { return SlicedTail(ReadLatencies()).value; }
  double LastLateMs() const {
    double m = 0.0;
    for (const auto& l : logs) m = std::max(m, l.last_late_ms);
    return m;
  }
  bool MeetsSlo() const {
    return ReadTailUs() < kReadLimitMs * 1000.0 &&
           LastLateMs() < kBacklogLimitMs;
  }
};

struct Inputs {
  std::vector<zdb::Rect> windows;
  std::vector<zdb::Point> points;
  std::vector<zdb::Point> knn;
};

void SleepUntil(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

void ConnLoop(Conn* conn, size_t conn_index, const Inputs& in, double start,
              double end, double interval, uint64_t seed, SpanBuffer* spans,
              ConnLog* log) {
  zdb::Random rng(seed);
  const uint64_t request_base = static_cast<uint64_t>(conn_index) << 40;
  for (uint64_t i = 0;; ++i) {
    // interval 0: closed loop, each request due when the last returned.
    const double due = interval > 0.0 ? start + static_cast<double>(i) * interval
                                      : NowSeconds();
    // Requests still unsent at the end are dropped, not sent late: an
    // overloaded rung has already failed on its backlog.
    if (due >= end || NowSeconds() >= end) break;
    SleepUntil(due);
    const double u = rng.NextDouble();
    const Op op = conn->writer                 ? kWrite
                  : u < kShareWindow               ? kWindow
                  : u < kShareWindow + kSharePoint ? kPoint
                                                   : kKnn;
    const uint32_t pool = static_cast<uint32_t>(rng.Uniform(kQueryPool));
    const double send = NowSeconds();
    log->late_us.push_back((send - due) * 1e6);
    log->last_late_ms = (send - due) * 1e3;
    ++log->attempted;

    ReadRecord rec;
    rec.op = op;
    rec.pool = pool;
    AppliedBatch applied;
    std::vector<ObjectId> ids;
    zdb::Status st;
    {
      ScopedSpan span(spans, op == kWindow  ? "client.window"
                             : op == kPoint ? "client.point"
                             : op == kKnn   ? "client.knn"
                                            : "client.apply",
                      request_base + i);
      switch (op) {
        case kWindow:
        case kPoint: {
          auto r = op == kWindow ? conn->client->Window(in.windows[pool])
                                 : conn->client->Point(in.points[pool]);
          st = r.status();
          if (r.ok()) {
            rec.e0 = r->epoch_before;
            rec.e1 = r->epoch_after;
            ids = std::move(r->ids);
          }
          break;
        }
        case kKnn: {
          auto r = conn->client->Nearest(in.knn[pool], kKnnK);
          st = r.status();
          if (r.ok()) {
            rec.e0 = r->epoch_before;
            rec.e1 = r->epoch_after;
            rec.knn_off = static_cast<uint32_t>(log->knn_hits.size());
            rec.knn_len = static_cast<uint32_t>(r->hits.size());
            log->knn_hits.insert(log->knn_hits.end(), r->hits.begin(),
                                 r->hits.end());
          }
          break;
        }
        default: {
          zdb::WriteBatch batch;
          for (size_t k = 0; k < kBatchInserts; ++k) {
            const size_t pick = rng.Uniform(conn->live.size());
            applied.erased.push_back(conn->live[pick]);
            batch.Erase(conn->live[pick]);
            conn->live[pick] = conn->live.back();
            conn->live.pop_back();
          }
          for (size_t k = 0; k < kBatchInserts; ++k) {
            applied.rects.push_back(
                conn->fresh[conn->next_fresh++ % conn->fresh.size()]);
            batch.Insert(applied.rects.back());
          }
          auto r = conn->client->Apply(batch, zdb::Durability::kDurable);
          st = r.status();
          if (r.ok()) {
            applied.epoch = r->epoch_after;
            applied.inserted = r->inserted;
          }
          break;
        }
      }
    }
    const double done = NowSeconds();
    if (!st.ok()) {
      ++log->failed;
      if (op != kWrite) log->failed_at.push_back(done);
      if (log->first_error.empty()) log->first_error = st.ToString();
      if (op == kWrite) {
        conn->live.insert(conn->live.end(), applied.erased.begin(),
                          applied.erased.end());
      }
      continue;
    }
    log->lat[op].push_back({done, (done - due) * 1e6});
    if (op == kWrite) {
      conn->live.insert(conn->live.end(), applied.inserted.begin(),
                        applied.inserted.end());
      log->batches.push_back(std::move(applied));
    } else {
      log->read_rtt_us.push_back((done - send) * 1e6);
      if (op != kKnn) rec.digest = DigestOf(&ids);
      log->reads.push_back(rec);
    }
  }
}

Rung RunRung(const std::string& name, std::vector<Conn>* conns,
             const Inputs& in, double rate, bool with_writes, double seconds,
             uint64_t seed, Tracer* tracer) {
  Rung rung;
  rung.name = name;
  rung.logs.resize(conns->size());
  const double start = NowSeconds() + 0.002;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    // Each group of connections shares its traffic evenly, staggered.
    const bool writer = (*conns)[c].writer;
    if (writer && !with_writes) continue;
    const double share =
        !with_writes ? 1.0 : writer ? kWriteShare : 1.0 - kWriteShare;
    const size_t group = writer ? kWriterConnections : kReaderConnections;
    const size_t slot = writer ? c - kReaderConnections : c;
    const double interval = group / (rate * share);
    SpanBuffer* spans = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    threads.emplace_back(ConnLoop, &(*conns)[c], c, std::cref(in),
                         start + interval * (slot + 0.5) / group,
                         start + seconds, interval, SubSeed(seed, c), spans,
                         &rung.logs[c]);
  }
  for (auto& t : threads) t.join();
  rung.seconds = NowSeconds() - start;
  return rung;
}

double ReadMedianUs(const Rung& r) {
  std::vector<double> us;
  for (const Sample& s : r.ReadLatencies()) us.push_back(s.us);
  return Median(us);
}

/// serve-read's write phase: the first writer connection alone, closed
/// loop, durable batches back to back.
Rung RunWritePhase(std::vector<Conn>* conns, const Inputs& in,
                   double seconds, uint64_t seed, Tracer* tracer) {
  Rung rung;
  rung.name = "writes";
  rung.logs.resize(conns->size());
  const double start = NowSeconds();
  ConnLoop(&(*conns)[kReaderConnections], kReaderConnections, in, start,
           start + seconds, 0.0, seed,
           tracer != nullptr ? tracer->NewBuffer() : nullptr,
           &rung.logs[kReaderConnections]);
  rung.seconds = NowSeconds() - start;
  return rung;
}

/// Sum of a server opcode's counters.
struct OpcodeTotals {
  uint64_t count = 0, micros = 0;
};
OpcodeTotals Totals(const zdb::net::Server& server, zdb::net::Opcode op) {
  const auto& c = server.counters().ops[static_cast<size_t>(op)];
  return {c.count.load(std::memory_order_relaxed),
          c.total_micros.load(std::memory_order_relaxed)};
}

/// Orders the rung's batches by publish epoch. The reply's epoch_after
/// is read after the durable wait, so with concurrent writers it can
/// run ahead of the batch's own epoch; the object store hands out oids
/// in publish order, so a batch's first inserted oid ranks it exactly,
/// and every batch publishes one epoch. Returns an error text if the
/// epochs this yields contradict the replies or the DB's final epoch.
std::string AssignBatchEpochs(std::vector<AppliedBatch>* batches,
                              uint64_t epoch0, uint64_t final_epoch) {
  for (const AppliedBatch& b : *batches) {
    if (b.inserted.size() != kBatchInserts) {
      return "a batch reply listed " + std::to_string(b.inserted.size()) +
             " inserted oids";
    }
  }
  std::sort(batches->begin(), batches->end(),
            [](const AppliedBatch& a, const AppliedBatch& b) {
              return a.inserted.front() < b.inserted.front();
            });
  for (size_t i = 0; i < batches->size(); ++i) {
    AppliedBatch& b = (*batches)[i];
    const uint64_t epoch = epoch0 + 1 + i;
    if (epoch > b.epoch) {
      return "batch ranked at epoch " + std::to_string(epoch) +
             " was acknowledged at epoch " + std::to_string(b.epoch);
    }
    b.epoch = epoch;
  }
  if (epoch0 + batches->size() != final_epoch) {
    return std::to_string(batches->size()) +
           " acknowledged batches do not account for epochs " +
           std::to_string(epoch0) + ".." + std::to_string(final_epoch);
  }
  return "";
}

void CheckRung(const Rung& rung, const Inputs& in, const Oracle& oracle,
               const std::string& where, Outcome* out) {
  for (size_t c = 0; c < rung.logs.size(); ++c) {
    const ConnLog& log = rung.logs[c];
    for (size_t i = 0; i < log.reads.size(); ++i) {
      const ReadRecord& rec = log.reads[i];
      std::string err = "empty epoch bracket";
      for (uint64_t e = rec.e0; e <= rec.e1; ++e) {
        if (rec.op == kKnn) {
          std::vector<std::pair<ObjectId, double>> got(
              log.knn_hits.begin() + rec.knn_off,
              log.knn_hits.begin() + rec.knn_off + rec.knn_len);
          err = CheckKnn(oracle, in.knn[rec.pool], kKnnK, e, got);
        } else {
          std::vector<ObjectId> want =
              rec.op == kWindow ? oracle.Window(in.windows[rec.pool], e)
                                : oracle.PointHits(in.points[rec.pool], e);
          err = CheckDigest(rec.digest, DigestOf(&want));
        }
        if (err.empty()) break;
      }
      if (!err.empty()) {
        out->Fail(where + ": rung " + rung.name + ", connection " +
                  std::to_string(c) + ", " + kOpNames[rec.op] + " read #" +
                  std::to_string(i) + " (pool index " +
                  std::to_string(rec.pool) + ", epochs " +
                  std::to_string(rec.e0) + ".." + std::to_string(rec.e1) +
                  "): " + err);
        return;
      }
    }
  }
}

}  // namespace

void RunServed(const RunContext& ctx, Outcome* out) {
  const Args& args = ctx.args;
  const std::string where =
      args.workload + " seed " + std::to_string(args.seed);
  const double S = args.seconds;

  zdb::DataGenOptions dg;
  dg.distribution = zdb::Distribution::kUniformSmall;
  dg.seed = SubSeed(args.seed, 1);
  const std::vector<zdb::Rect> data = zdb::GenerateData(kObjects, dg);
  Inputs in;
  in.windows = zdb::GenerateWindows(kQueryPool, kWindowArea,
                                    zdb::QueryGenOptions{.seed = SubSeed(args.seed, 2)});
  in.points = zdb::GeneratePoints(kQueryPool, SubSeed(args.seed, 3));
  in.knn = zdb::GeneratePoints(kQueryPool, SubSeed(args.seed, 4));
  dg.seed = SubSeed(args.seed, 5);
  const std::vector<zdb::Rect> fresh = zdb::GenerateData(kObjects / 4, dg);

  // The whole DB stays cached (as in query-warm), so the server, wire
  // and commit pipeline are what this workload adds; cache misses are
  // query-cold's subject.
  zdb::DBOptions options;
  options.cache_pages = kWarmCachePages;

  // Set-up: open + bulk load + checkpoint + server start + connect.
  std::unique_ptr<zdb::DB> db;
  std::unique_ptr<zdb::net::Server> server;
  std::vector<Conn> conns;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string path = ctx.tmp_dir + "/db" + std::to_string(rep) + ".zdb";
    const double t0 = NowSeconds();
    auto r = OpenLoaded(path, data, options);
    if (!r.ok()) {
      out->Fail(where + ": set-up failed: " + r.status().ToString());
      return;
    }
    db = std::move(r).value();
    server = std::make_unique<zdb::net::Server>(db.get(),
                                                zdb::net::ServerOptions{});
    zdb::Status st = server->Start();
    conns.clear();
    const std::string endpoint =
        "tcp://127.0.0.1:" + std::to_string(server->port());
    for (size_t c = 0; c < kReaderConnections + kWriterConnections && st.ok();
         ++c) {
      auto client = zdb::net::Client::Connect(endpoint);
      st = client.status();
      if (client.ok()) {
        conns.emplace_back();
        conns.back().client =
            std::make_unique<zdb::net::Client>(std::move(client).value());
        conns.back().writer = c >= kReaderConnections;
      }
    }
    setup_s.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      out->Fail(where + ": server set-up failed: " + st.ToString());
      return;
    }
    if (rep + 1 < kSetupRepeats) {
      conns.clear();
      server->Stop();
      server.reset();
      db.reset();
      RemoveDbFiles(path);
    }
  }
  // Each writer erases only objects it owns, so batches never collide.
  for (size_t w = 0; w < kWriterConnections; ++w) {
    Conn& conn = conns[kReaderConnections + w];
    for (size_t oid = w; oid < kObjects; oid += kWriterConnections) {
      conn.live.push_back(static_cast<ObjectId>(oid));
    }
    const size_t share = fresh.size() / kWriterConnections;
    conn.fresh.assign(fresh.begin() + w * share,
                      fresh.begin() + (w + 1) * share);
  }
  const uint64_t epoch0 = db->write_epoch();

  const ServedSpec spec = ServedSpecFor(args.workload);
  const bool mixed = spec.concurrent_writes;
  std::vector<Rung> rungs;
  rungs.reserve(3 + spec.rungs.size());  // `reference` points into it
  rungs.push_back(RunRung("warm-up", &conns, in, spec.rungs[0], mixed,
                          0.05 * S, SubSeed(args.seed, 20), nullptr));
  LayerNumbers layers;
  Tracer tracer;
  const Rung* reference = nullptr;
  const Rung* write_phase = nullptr;
  double slo_qps = 0.0;
  if (!args.trace) {
    for (size_t i = 0; i < spec.rungs.size(); ++i) {
      const double rate = spec.rungs[i];
      rungs.push_back(RunRung(
          std::to_string(static_cast<int>(rate)), &conns, in, rate, mixed,
          (rate == spec.reference ? kReferenceShare : kRungShare) * S,
          SubSeed(args.seed, 21 + i), nullptr));
      const Rung& r = rungs.back();
      char line[200];
      std::snprintf(line, sizeof(line),
                    "rung %.0f req/s: achieved %.1f, read tail %.0f us, "
                    "last send %.2f ms late",
                    rate, r.completed() / r.seconds, r.ReadTailUs(),
                    r.LastLateMs());
      out->details.push_back(line);
      if (rate == spec.reference) reference = &r;
      if (!r.MeetsSlo()) break;
      slo_qps = r.completed() / r.seconds;
    }
    if (reference == nullptr) {  // a lower rung failed first
      rungs.push_back(RunRung("reference", &conns, in, spec.reference, mixed,
                              kReferenceShare * S, SubSeed(args.seed, 30),
                              nullptr));
      reference = &rungs.back();
    }
    if (!mixed) {
      rungs.push_back(RunWritePhase(&conns, in, kWritePhaseShare * S,
                                    SubSeed(args.seed, 40), nullptr));
      write_phase = &rungs.back();
    }
  } else {
    // Untraced, then traced, at the reference rate: the read p50 ratio
    // is the tracing overhead. Server and DB counters cover the traced
    // rung (and serve-read's traced write phase).
    const double share = mixed ? 0.45 : 0.375;
    rungs.push_back(RunRung("untraced", &conns, in, spec.reference, mixed,
                            share * S, SubSeed(args.seed, 31), nullptr));
    const double p50_untraced = ReadMedianUs(rungs.back());
    const DbCounters before = DbCounters::Take(db.get());
    OpcodeTotals ops_before[kOpCount];
    const zdb::net::Opcode opcodes[kOpCount] = {
        zdb::net::Opcode::kWindow, zdb::net::Opcode::kPoint,
        zdb::net::Opcode::kKnn, zdb::net::Opcode::kApply};
    for (size_t o = 0; o < kOpCount; ++o) {
      ops_before[o] = Totals(*server, opcodes[o]);
    }
    const uint64_t busy_before =
        server->counters().busy_rejected.load(std::memory_order_relaxed);
    const DbCounters write_before = DbCounters::Take(db.get());
    StatsSampler sampler(db.get());
    rungs.push_back(RunRung("traced", &conns, in, spec.reference, mixed,
                            share * S, SubSeed(args.seed, 32), &tracer));
    const Rung& traced = rungs.back();
    const DbCounters read_delta = DbCounters::Take(db.get()).Minus(before);
    if (!mixed) {
      rungs.push_back(RunWritePhase(&conns, in, 0.1 * S,
                                    SubSeed(args.seed, 41), &tracer));
      write_phase = &rungs.back();
    }
    const auto [lag, versions] = sampler.Finish();
    const DbCounters write_delta =
        DbCounters::Take(db.get()).Minus(write_before);
    double exec_us[kOpCount] = {};
    uint64_t read_count = 0, read_micros = 0;
    for (size_t o = 0; o < kOpCount; ++o) {
      const OpcodeTotals now = Totals(*server, opcodes[o]);
      const uint64_t n = now.count - ops_before[o].count;
      const uint64_t us = now.micros - ops_before[o].micros;
      exec_us[o] = n ? static_cast<double>(us) / n : 0.0;
      if (o != kWrite) {
        read_count += n;
        read_micros += us;
      }
    }
    layers.exec_us_window = exec_us[kWindow];
    layers.exec_us_point = exec_us[kPoint];
    layers.exec_us_knn = exec_us[kKnn];
    layers.exec_us_apply = exec_us[kWrite];
    std::vector<double> rtt;
    std::vector<double> late;
    for (const ConnLog& l : traced.logs) {
      rtt.insert(rtt.end(), l.read_rtt_us.begin(), l.read_rtt_us.end());
      late.insert(late.end(), l.late_us.begin(), l.late_us.end());
    }
    double rtt_mean = 0.0;
    for (double v : rtt) rtt_mean += v / rtt.size();
    layers.server_overhead_us =
        rtt_mean - (read_count ? static_cast<double>(read_micros) / read_count
                               : 0.0);
    layers.busy_rejected = static_cast<double>(
        server->counters().busy_rejected.load(std::memory_order_relaxed) -
        busy_before);
    layers.late_p99_us = HighTail(late).value;
    layers.SetReadSide(read_delta, traced.completed());
    const Rung& writes = mixed ? traced : *write_phase;
    uint64_t batches = 0;
    for (const ConnLog& l : writes.logs) batches += l.batches.size();
    layers.SetWriteSide(write_delta, batches, batches * 2 * kBatchInserts,
                        db->Stats().page_size, lag, versions);
    layers.write_p99_us = SlicedTail(writes.Latencies(kWrite)).value;
    layers.trace_overhead_pct =
        (ReadMedianUs(traced) / p50_untraced - 1.0) * 100.0;
  }
  const double space_amp = SpaceAmp(db.get());
  const uint64_t final_epoch = db->write_epoch();
  for (auto& conn : conns) conn.client->Close();
  server->Stop();

  // ------------------------------------------------------------ verdict
  std::vector<AppliedBatch> batches;
  for (const Rung& r : rungs) {
    for (const ConnLog& l : r.logs) {
      out->attempted += l.attempted;
      out->failed += l.failed;
      if (!l.first_error.empty()) {
        out->details.push_back("rung " + r.name + " error: " + l.first_error);
      }
      batches.insert(batches.end(), l.batches.begin(), l.batches.end());
    }
  }
  std::string err = AssignBatchEpochs(&batches, epoch0, final_epoch);
  Oracle oracle;
  if (err.empty()) err = FeedOracle(data, batches, &oracle);
  if (!err.empty()) {
    out->Fail(where + ": write log: " + err);
  } else {
    for (const Rung& r : rungs) {
      if (out->correct) CheckRung(r, in, oracle, where, out);
    }
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
  out->Add("setup_s", Median(setup_s), "s");
  out->Add("qps", reference->completed() / reference->seconds, "ops/s");
  out->Add("slo_qps", slo_qps, "ops/s");
  out->AddLatency("window", reference->Latencies(kWindow));
  out->AddLatency("point", reference->Latencies(kPoint));
  out->AddLatency("knn", reference->Latencies(kKnn));
  const Rung& writes = mixed ? *reference : *write_phase;
  out->AddMedian("write_p50_us", writes.Latencies(kWrite));
  out->Add("space_amp", space_amp, "ratio");
  out->Add("rss_mb", PeakRssMb(), "MiB");
}

}  // namespace zbench
