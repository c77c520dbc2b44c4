// Copyright (c) zdb authors. Licensed under the MIT license.

#include "bench_util/runner.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace zdb {

Env MakeEnv(uint32_t page_size, size_t pool_pages) {
  Env env;
  env.pager = Pager::OpenInMemory(page_size);
  env.pool = std::make_unique<BufferPool>(env.pager.get(), pool_pages);
  return env;
}

void ResizePool(Env* env, size_t pool_pages) {
  env->pool = std::make_unique<BufferPool>(env->pager.get(), pool_pages);
}

Result<std::unique_ptr<SpatialIndex>> MakeZIndex(
    Env* env, const SpatialIndexOptions& options) {
  return SpatialIndex::Create(env->pool.get(), options);
}

Result<std::unique_ptr<SpatialIndex>> OpenZIndex(Env* env, PageId master) {
  return SpatialIndex::Open(env->pool.get(), master);
}

Result<std::unique_ptr<SpatialIndex>> BuildZIndex(
    Env* env, const std::vector<Rect>& data,
    const SpatialIndexOptions& options, BuildResult* build) {
  const IoStats snap = env->pager->io_stats();
  std::unique_ptr<SpatialIndex> index;
  ZDB_ASSIGN_OR_RETURN(index, SpatialIndex::Create(env->pool.get(), options));
  for (const Rect& r : data) {
    ZDB_RETURN_IF_ERROR(index->Insert(r).status());
  }
  ZDB_RETURN_IF_ERROR(env->pool->FlushAll());
  if (build != nullptr) {
    const IoStats d = env->Delta(snap);
    build->avg_insert_accesses =
        data.empty() ? 0.0
                     : static_cast<double>(d.accesses()) / data.size();
    build->pages = env->pager->live_page_count();
    build->height = index->btree()->height();
    build->redundancy = index->build_stats().redundancy();
    build->avg_error = index->build_stats().avg_error();
  }
  return index;
}

Result<std::unique_ptr<DB>> BuildZDB(const std::vector<Rect>& data,
                                     const SpatialIndexOptions& options,
                                     size_t cache_pages, BuildResult* build) {
  DBOptions opt;
  opt.index = options;
  opt.page_size = kBenchPageSize;
  opt.cache_pages = cache_pages;
  std::unique_ptr<DB> db;
  ZDB_ASSIGN_OR_RETURN(db, DB::Open("", opt));
  const IoStats snap = db->io_stats();
  for (const Rect& r : data) {
    ZDB_RETURN_IF_ERROR(db->Insert(r).status());
  }
  ZDB_RETURN_IF_ERROR(db->Checkpoint());
  if (build != nullptr) {
    const IoStats d = db->io_stats().Since(snap);
    build->avg_insert_accesses =
        data.empty() ? 0.0
                     : static_cast<double>(d.accesses()) / data.size();
    build->pages = db->Stats().pages;
    build->height = db->index()->btree()->height();
    build->redundancy = db->build_stats().redundancy();
    build->avg_error = db->build_stats().avg_error();
  }
  return db;
}

Result<std::unique_ptr<RTree>> BuildRTree(Env* env,
                                          const std::vector<Rect>& data,
                                          const RTreeOptions& options,
                                          BuildResult* build) {
  const IoStats snap = env->pager->io_stats();
  std::unique_ptr<RTree> tree;
  ZDB_ASSIGN_OR_RETURN(tree, RTree::Create(env->pool.get(), options));
  for (size_t i = 0; i < data.size(); ++i) {
    ZDB_RETURN_IF_ERROR(
        tree->Insert(data[i], static_cast<ObjectId>(i)));
  }
  ZDB_RETURN_IF_ERROR(env->pool->FlushAll());
  if (build != nullptr) {
    const IoStats d = env->Delta(snap);
    build->avg_insert_accesses =
        data.empty() ? 0.0
                     : static_cast<double>(d.accesses()) / data.size();
    build->pages = env->pager->live_page_count();
    build->height = tree->height();
    build->redundancy = 1.0;
  }
  return tree;
}

namespace {

template <typename QueryFn>
Result<RunResult> RunBatch(Env* env, size_t n, const QueryFn& fn) {
  RunResult run;
  run.queries = n;
  uint64_t total_accesses = 0;
  uint64_t total_results = 0;
  for (size_t i = 0; i < n; ++i) {
    ZDB_RETURN_IF_ERROR(env->pool->Clear());  // cold cache per query
    const IoStats snap = env->pager->io_stats();
    uint64_t results = 0;
    ZDB_RETURN_IF_ERROR(fn(i, &results, &run.totals));
    total_accesses += env->Delta(snap).accesses();
    total_results += results;
  }
  if (n > 0) {
    run.avg_accesses = static_cast<double>(total_accesses) / n;
    run.avg_results = static_cast<double>(total_results) / n;
  }
  return run;
}

}  // namespace

Result<RunResult> RunWindowQueries(Env* env, SpatialIndex* index,
                                   const std::vector<Rect>& windows) {
  return RunBatch(env, windows.size(),
                  [&](size_t i, uint64_t* results, QueryStats* totals) {
                    QueryStats qs;
                    auto r = index->WindowQuery(windows[i], &qs);
                    if (!r.ok()) return r.status();
                    *results = r.value().size();
                    totals->Add(qs);
                    return Status::OK();
                  });
}

Result<RunResult> RunPointQueries(Env* env, SpatialIndex* index,
                                  const std::vector<Point>& points) {
  return RunBatch(env, points.size(),
                  [&](size_t i, uint64_t* results, QueryStats* totals) {
                    QueryStats qs;
                    auto r = index->PointQuery(points[i], &qs);
                    if (!r.ok()) return r.status();
                    *results = r.value().size();
                    totals->Add(qs);
                    return Status::OK();
                  });
}

Result<RunResult> RunRTreeWindowQueries(Env* env, RTree* tree,
                                        const std::vector<Rect>& windows) {
  return RunBatch(env, windows.size(),
                  [&](size_t i, uint64_t* results, QueryStats*) {
                    RQueryStats qs;
                    auto r = tree->WindowQuery(windows[i], &qs);
                    if (!r.ok()) return r.status();
                    *results = r.value().size();
                    return Status::OK();
                  });
}

Result<RunResult> RunRTreePointQueries(Env* env, RTree* tree,
                                       const std::vector<Point>& points) {
  return RunBatch(env, points.size(),
                  [&](size_t i, uint64_t* results, QueryStats*) {
                    RQueryStats qs;
                    auto r = tree->PointQuery(points[i], &qs);
                    if (!r.ok()) return r.status();
                    *results = r.value().size();
                    return Status::OK();
                  });
}

Result<size_t> ParseCount(const char* arg) {
  if (arg == nullptr || *arg == '\0') {
    return Status::InvalidArgument("empty count");
  }
  size_t v = 0;
  for (const char* c = arg; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') {
      return Status::InvalidArgument("'" + std::string(arg) +
                                     "' is not a decimal count");
    }
    const size_t digit = static_cast<size_t>(*c - '0');
    if (v > (std::numeric_limits<size_t>::max() - digit) / 10) {
      return Status::InvalidArgument("count '" + std::string(arg) +
                                     "' overflows");
    }
    v = v * 10 + digit;
  }
  if (v == 0) return Status::InvalidArgument("count must be positive");
  return v;
}

size_t CountArg(int argc, char** argv, int i, size_t fallback,
                const char* usage) {
  if (argc <= i) return fallback;
  auto r = ParseCount(argv[i]);
  if (!r.ok()) {
    std::fprintf(stderr, "usage: %s %s\n  argument %d: %s\n", argv[0],
                 usage, i, r.status().ToString().c_str());
    std::exit(2);
  }
  return r.value();
}

}  // namespace zdb
