// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Interactive shell over a zdb spatial index — insert, query and inspect
// from stdin. Useful for exploring the redundancy behaviour by hand.
//
//   $ ./build/examples/zdb_shell [k]
//   zdb> insert 0.1 0.1 0.3 0.2
//   id 0 (3 elements)
//   zdb> window 0.0 0.0 0.5 0.5
//   hits: 0    (candidates 3, false hits 0, 7 page accesses)
//   zdb> help
//
// Remote mode talks to a running zdb_server instead of an in-process
// index (see examples/zdb_server.cpp):
//
//   $ ./build/examples/zdb_shell --connect 127.0.0.1:4490
//   $ ./build/examples/zdb_shell --connect unix:/tmp/zdb.sock

#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <sstream>
#include <string>

#include "client/client.h"
#include "zdb/db.h"

using namespace zdb;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  insert X1 Y1 X2 Y2     add a rectangle (unit-square coords)\n"
      "  poly X1 Y1 X2 Y2 ...   add a polygon (3+ vertices)\n"
      "  window X1 Y1 X2 Y2     objects intersecting the window\n"
      "  contain X1 Y1 X2 Y2    objects fully inside the window\n"
      "  point X Y              objects containing the point\n"
      "  knn X Y K              K nearest objects\n"
      "  erase ID               remove an object\n"
      "  stats                  index statistics\n"
      "  levels                 element-level histogram\n"
      "  help | quit\n");
}

void PrintRemoteHelp() {
  std::printf(
      "remote commands:\n"
      "  insert X1 Y1 X2 Y2     add a rectangle (unit-square coords)\n"
      "  window X1 Y1 X2 Y2     objects intersecting the window\n"
      "  point X Y              objects containing the point\n"
      "  knn X Y K              K nearest objects\n"
      "  erase ID               remove an object\n"
      "  stats                  server + engine counters (JSON)\n"
      "  ping                   round-trip check\n"
      "  shutdown               ask the server to drain and exit\n"
      "  help | quit\n");
}

/// Maps the legacy --connect spellings ("HOST:PORT", "unix:PATH") onto
/// endpoint URIs; URIs pass through untouched.
std::string TargetToUri(const std::string& target) {
  if (target.rfind("tcp://", 0) == 0 || target.rfind("unix://", 0) == 0) {
    return target;
  }
  if (target.rfind("unix:", 0) == 0) return "unix://" + target.substr(5);
  return "tcp://" + target;
}

int RunRemote(const std::string& target) {
  Result<net::Client> conn = net::Client::Connect(TargetToUri(target));
  if (!conn.ok()) {
    std::fprintf(stderr, "connect: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(conn).value();
  std::printf("zdb shell — remote (%s). Type 'help'.\n", target.c_str());

  std::string line;
  while (std::printf("zdb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintRemoteHelp();
      continue;
    }
    if (cmd == "insert") {
      Rect r;
      if (!(in >> r.xlo >> r.ylo >> r.xhi >> r.yhi)) {
        std::printf("usage: insert X1 Y1 X2 Y2\n");
        continue;
      }
      WriteBatch batch;
      batch.Insert(r);
      auto reply = client.Apply(batch);
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
        continue;
      }
      std::printf("id %u (epoch %llu)\n", reply->inserted[0],
                  static_cast<unsigned long long>(reply->epoch_after));
    } else if (cmd == "window") {
      Rect w;
      if (!(in >> w.xlo >> w.ylo >> w.xhi >> w.yhi)) {
        std::printf("usage: window X1 Y1 X2 Y2\n");
        continue;
      }
      auto reply = client.Window(w);
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
        continue;
      }
      std::printf("hits:");
      for (ObjectId oid : reply->ids) std::printf(" %u", oid);
      std::printf("   (epochs %llu..%llu)\n",
                  static_cast<unsigned long long>(reply->epoch_before),
                  static_cast<unsigned long long>(reply->epoch_after));
    } else if (cmd == "point") {
      Point p;
      if (!(in >> p.x >> p.y)) {
        std::printf("usage: point X Y\n");
        continue;
      }
      auto reply = client.Point(p);
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
        continue;
      }
      std::printf("hits:");
      for (ObjectId oid : reply->ids) std::printf(" %u", oid);
      std::printf("\n");
    } else if (cmd == "knn") {
      Point p;
      uint32_t kk;
      if (!(in >> p.x >> p.y >> kk)) {
        std::printf("usage: knn X Y K\n");
        continue;
      }
      auto reply = client.Nearest(p, kk);
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
        continue;
      }
      for (const auto& [oid, dist] : reply->hits) {
        std::printf("  id %u at %.5f\n", oid, dist);
      }
    } else if (cmd == "erase") {
      ObjectId oid;
      if (!(in >> oid)) {
        std::printf("usage: erase ID\n");
        continue;
      }
      WriteBatch batch;
      batch.Erase(oid);
      auto reply = client.Apply(batch);
      std::printf("%s\n",
                  reply.ok() ? "ok" : reply.status().ToString().c_str());
    } else if (cmd == "stats") {
      auto reply = client.Stats();
      if (!reply.ok()) {
        std::printf("error: %s\n", reply.status().ToString().c_str());
        continue;
      }
      std::printf("%s\n", reply.value().c_str());
    } else if (cmd == "ping") {
      Status s = client.Ping();
      std::printf("%s\n", s.ok() ? "pong" : s.ToString().c_str());
    } else if (cmd == "shutdown") {
      Status s = client.Shutdown();
      std::printf("%s\n",
                  s.ok() ? "server draining" : s.ToString().c_str());
      break;
    } else {
      std::printf("unknown remote command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--connect") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: zdb_shell --connect HOST:PORT|unix:PATH\n");
      return 2;
    }
    return RunRemote(argv[2]);
  }
  uint32_t k = 4;
  uint32_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      k = static_cast<uint32_t>(std::strtoul(arg.c_str(), nullptr, 10));
    }
  }
  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(k);
  options.shards = shards;
  auto db_r = DB::Open(":memory:", options);
  if (!db_r.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_r.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_r).value();
  std::printf("zdb shell — size-bound k=%u, %u shard%s. Type 'help'.\n", k,
              db->shards(), db->shards() == 1 ? "" : "s");

  std::string line;
  while (std::printf("zdb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }

    const IoStats snap = db->io_stats();
    if (cmd == "insert") {
      Rect r;
      if (!(in >> r.xlo >> r.ylo >> r.xhi >> r.yhi)) {
        std::printf("usage: insert X1 Y1 X2 Y2\n");
        continue;
      }
      // Stats() sums index entries over every shard (build_stats() is
      // shard 0 only); on a sharded DB a straddler's count includes its
      // replicas.
      const uint64_t before = db->Stats().index_entries;
      auto oid = db->Insert(r);
      if (!oid.ok()) {
        std::printf("error: %s\n", oid.status().ToString().c_str());
        continue;
      }
      std::printf("id %u (%llu elements)\n", oid.value(),
                  static_cast<unsigned long long>(
                      db->Stats().index_entries - before));
    } else if (cmd == "poly") {
      std::vector<Point> ring;
      double x, y;
      while (in >> x >> y) ring.push_back(Point{x, y});
      auto oid = db->InsertPolygon(Polygon(std::move(ring)));
      if (!oid.ok()) {
        std::printf("error: %s\n", oid.status().ToString().c_str());
        continue;
      }
      std::printf("id %u (polygon)\n", oid.value());
    } else if (cmd == "window" || cmd == "contain") {
      Rect w;
      if (!(in >> w.xlo >> w.ylo >> w.xhi >> w.yhi)) {
        std::printf("usage: %s X1 Y1 X2 Y2\n", cmd.c_str());
        continue;
      }
      QueryStats qs;
      auto hits = cmd == "window" ? db->Window(w, &qs)
                                  : db->Containment(w, &qs);
      if (!hits.ok()) {
        std::printf("error: %s\n", hits.status().ToString().c_str());
        continue;
      }
      std::printf("hits:");
      for (ObjectId oid : hits.value()) std::printf(" %u", oid);
      std::printf(
          "\n  (candidates %llu, duplicates %llu, false hits %llu, "
          "certain hits %llu, %llu page accesses)\n",
          static_cast<unsigned long long>(qs.candidates),
          static_cast<unsigned long long>(qs.duplicates()),
          static_cast<unsigned long long>(qs.false_hits),
          static_cast<unsigned long long>(qs.certain_hits),
          static_cast<unsigned long long>(
              db->io_stats().Since(snap).accesses()));
    } else if (cmd == "point") {
      Point p;
      if (!(in >> p.x >> p.y)) {
        std::printf("usage: point X Y\n");
        continue;
      }
      auto hits = db->Point(p);
      if (!hits.ok()) {
        std::printf("error: %s\n", hits.status().ToString().c_str());
        continue;
      }
      std::printf("hits:");
      for (ObjectId oid : hits.value()) std::printf(" %u", oid);
      std::printf("\n");
    } else if (cmd == "knn") {
      Point p;
      size_t kk;
      if (!(in >> p.x >> p.y >> kk)) {
        std::printf("usage: knn X Y K\n");
        continue;
      }
      auto nn = db->Nearest(p, kk);
      if (!nn.ok()) {
        std::printf("error: %s\n", nn.status().ToString().c_str());
        continue;
      }
      for (const auto& [oid, dist] : nn.value()) {
        std::printf("  id %u at %.5f\n", oid, dist);
      }
    } else if (cmd == "erase") {
      ObjectId oid;
      if (!(in >> oid)) {
        std::printf("usage: erase ID\n");
        continue;
      }
      Status s = db->Erase(oid);
      std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
    } else if (cmd == "stats") {
      if (db->sharded()) {
        const DBStats agg = db->Stats();
        std::printf(
            "objects %llu, index entries %llu (summed over %u shards), "
            "redundancy %.2f\n",
            static_cast<unsigned long long>(agg.objects),
            static_cast<unsigned long long>(agg.index_entries), agg.shards,
            agg.redundancy);
        const auto per_shard = db->ShardStats();
        for (size_t s = 0; s < per_shard.size(); ++s) {
          std::printf(
              "  shard %zu: %llu objects, %llu entries, epoch %llu, "
              "%llu batches\n",
              s, static_cast<unsigned long long>(per_shard[s].objects),
              static_cast<unsigned long long>(per_shard[s].index_entries),
              static_cast<unsigned long long>(per_shard[s].write_epoch),
              static_cast<unsigned long long>(per_shard[s].batches));
        }
        continue;
      }
      auto tree_stats = db->index()->btree()->ComputeStats();
      if (!tree_stats.ok()) continue;
      std::printf(
          "objects %llu, index entries %llu, redundancy %.2f, avg error "
          "%.3f\nB+-tree: height %u, %u leaf + %u internal pages, "
          "%.2f leaf fill\n",
          static_cast<unsigned long long>(db->build_stats().objects),
          static_cast<unsigned long long>(
              db->build_stats().index_entries),
          db->build_stats().redundancy(),
          db->build_stats().avg_error(), tree_stats->height,
          tree_stats->leaf_pages, tree_stats->internal_pages,
          tree_stats->avg_leaf_fill);
    } else if (cmd == "levels") {
      auto hist = db->index()->LevelHistogram();
      if (!hist.ok()) continue;
      for (size_t lvl = 0; lvl < hist->size(); ++lvl) {
        if ((*hist)[lvl] > 0) {
          std::printf("  level %2zu: %llu entries\n", lvl,
                      static_cast<unsigned long long>((*hist)[lvl]));
        }
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}
