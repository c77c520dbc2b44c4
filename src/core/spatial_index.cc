// Copyright (c) zdb authors. Licensed under the MIT license.

#include "core/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>
#include <vector>

#include "decompose/region.h"
#include "geom/clip.h"
#include "zorder/zkey.h"

namespace zdb {

Status CheckQueryWindow(const Rect& window) {
  if (!window.valid()) {
    return Status::InvalidArgument("invalid query window");
  }
  return Status::OK();
}

Status CheckQueryPoint(const Point& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    return Status::InvalidArgument("non-finite query point");
  }
  return Status::OK();
}

void SpatialIndex::LatchExclusive() { latch_.Lock(); }

void SpatialIndex::UnlatchExclusive() { latch_.Unlock(); }

Result<std::unique_ptr<SpatialIndex>> SpatialIndex::Create(
    BufferPool* pool, const SpatialIndexOptions& options) {
  if (options.grid_bits < 1 || options.grid_bits > kMaxGridBits) {
    return Status::InvalidArgument("grid_bits out of range");
  }
  std::unique_ptr<SpatialIndex> index(new SpatialIndex(pool, options));
  ZDB_ASSIGN_OR_RETURN(index->btree_, BTree::Create(pool));
  index->store_ = std::make_unique<ObjectStore>(pool);
  index->polys_ = std::make_unique<PolygonStore>(pool);
  MutexLock commit(index->commit_mu_);
  WriterSection lock(index.get());
  index->StartSnapshotsLocked();
  return index;
}

// ------------------------------------------------------------- mutations
//
// Public mutations are batch-granular writer sections: the exclusive
// latch is held for the whole multi-key operation, so an object's
// z-element set is published to readers all-or-nothing. Every mutator
// takes commit_mu_ first (lock order commit_mu_ → latch_), which is
// what serializes the write path against the group-commit thread's
// off-latch durability work.
//
// Single-op mutators in group-commit mode: a mid-operation I/O failure
// may have partially mutated the in-memory state, so — exactly like a
// failed ApplyBatch — the whole armed group is rolled back to the last
// durable boundary. Predictable rejections (invalid MBR, unknown oid)
// happen before any mutation and roll nothing back.

namespace {
/// True for failures detected before any page was mutated.
bool PrevalidatedFailure(const Status& s) {
  return s.IsInvalidArgument() || s.IsNotFound();
}
}  // namespace

Result<ObjectId> SpatialIndex::Insert(const Rect& mbr, uint32_t payload) {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  auto r = InsertLocked(mbr, payload);
  if (r.ok()) {
    PublishWrite();
    NotifyPublished();
  } else if (gc_active_ && !PrevalidatedFailure(r.status())) {
    ZDB_RETURN_IF_ERROR(RollbackGroupLocked(r.status()));
  }
  return r;
}

Result<ObjectId> SpatialIndex::InsertPolygon(const Polygon& poly,
                                             ObjectId preassigned,
                                             PublishPoint* published) {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  auto r = InsertPolygonLocked(poly, preassigned);
  if (r.ok()) {
    PublishWrite(published);
    NotifyPublished();
  } else if (gc_active_ && !PrevalidatedFailure(r.status())) {
    ZDB_RETURN_IF_ERROR(RollbackGroupLocked(r.status()));
  }
  return r;
}

Status SpatialIndex::Erase(ObjectId oid) {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  Status s = EraseLocked(oid);
  if (s.ok()) {
    PublishWrite();
    NotifyPublished();
  } else if (gc_active_ && !PrevalidatedFailure(s)) {
    return RollbackGroupLocked(s);
  }
  return s;
}

Result<std::vector<ObjectId>> SpatialIndex::ApplyBatch(
    const WriteBatch& batch, Durability durability, PublishPoint* published) {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  // Predictable failures (invalid MBRs, unknown/dead/duplicate erases)
  // reject the whole batch before any op is applied, so they can never
  // leave a partial application — with or without a journal.
  ZDB_RETURN_IF_ERROR(ValidateBatchLocked(batch));

  std::vector<ObjectId> inserted;
  // A batch that validates empty is a no-op: nothing to apply, publish
  // or make durable — in particular no entry checkpoint that would
  // commit as its own batch, and no write-epoch bump.
  if (batch.empty()) return inserted;

  Pager* pager = pool_->pager();

  if (gc_active_) {
    // Group-commit path: apply + publish under the latch with no I/O
    // (page mutations land in the buffer pool; the permanently armed
    // pager batch journals before-images of any evicted page), then
    // hand durability to the pipeline thread.
    Status st = ApplyOpsLocked(batch, &inserted);
    if (!st.ok()) {
      // Partial in-memory application: the only exact recovery point is
      // the last durable group boundary, so the whole group rolls back
      // (failing the waiters of any earlier published-but-not-durable
      // batches with this cause).
      return RollbackGroupLocked(st);
    }
    PublishWrite(published);
    const uint64_t epoch = write_epoch();
    NotifyPublished();
    lock.Unlock();
    commit.Unlock();
    if (durability == Durability::kDurable) {
      ZDB_RETURN_IF_ERROR(WaitDurable(epoch));
    }
    return inserted;
  }

  // Journal-back the batch when possible. If the caller already manages
  // an outer pager batch, compose with it instead of nesting: validation
  // caught the predictable failures, and a residual I/O failure is left
  // to the caller's outer rollback (see header).
  const bool journal = pager->journaled() && !pager->in_batch();
  if (!journal) {
    ZDB_RETURN_IF_ERROR(ApplyOpsLocked(batch, &inserted));
    PublishWrite(published);
    return inserted;
  }

  // Phase 1: make the pre-batch state durable, as its own journaled
  // batch so a crash inside this checkpoint stays atomic. Phase 2's
  // journal then snapshots exactly the logical pre-batch pages — the
  // property that lets the failure path below restore the in-memory
  // index precisely via AbortBatch + ReloadLocked.
  const PageId master_before = master_page_;
  ZDB_RETURN_IF_ERROR(pager->BeginBatch());
  Status st = CheckpointLocked().status();
  if (st.ok()) st = pool_->FlushAll();
  if (st.ok()) st = pager->CommitBatch();
  const bool checkpointed = st.ok();

  // Phase 2: apply the ops and make the batch durable before it
  // commits — meta + dirty pages to disk, then the journal reset. A
  // crash anywhere before CommitBatch rolls the whole batch back on
  // reopen.
  if (st.ok()) st = pager->BeginBatch();
  if (st.ok()) {
    st = ApplyOpsLocked(batch, &inserted);
    if (st.ok()) st = CheckpointLocked().status();
    if (st.ok()) st = pool_->FlushAll();
    if (st.ok()) st = pager->CommitBatch();
  }

  if (!st.ok()) {
    // Roll disk AND memory back: restore the journaled before-images,
    // drop the (partially mutated) cache and re-read the index state
    // from the last durable checkpoint, so the failed batch leaves no
    // trace and the next batch journals normally. If phase 1 itself
    // failed, that checkpoint is the previous one — mutations that were
    // never made durable are rolled back with the batch. If even the
    // rollback fails, the batch stays open and the intact journal
    // recovers the file on the next reopen.
    const bool suspect = pager->in_batch() || !checkpointed;
    if (suspect) {
      Status undo =
          pager->in_batch() ? pager->AbortBatch() : Status::OK();
      if (undo.ok()) {
        master_page_ = master_before;
        undo = ReloadLocked();
      }
      if (!undo.ok()) {
        return Status::Corruption("batch failed (" + st.ToString() +
                                  ") and rollback failed too: " +
                                  undo.ToString());
      }
    }
    return st;
  }
  PublishWrite(published);
  return inserted;
}

Status SpatialIndex::ApplyOpsLocked(const WriteBatch& batch,
                                    std::vector<ObjectId>* inserted) {
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      auto r = InsertLocked(op.mbr, op.payload, op.preassigned);
      if (!r.ok()) return r.status();
      inserted->push_back(r.value());
    } else {
      ZDB_RETURN_IF_ERROR(EraseLocked(op.oid));
    }
  }
  return Status::OK();
}

Status SpatialIndex::ValidateBatchLocked(const WriteBatch& batch) {
  std::unordered_set<ObjectId> erased;
  for (const WriteOp& op : batch.ops) {
    if (op.kind == WriteOp::Kind::kInsert) {
      if (!op.mbr.valid()) return Status::InvalidArgument("invalid MBR");
      if (op.preassigned != kNoPreassignedOid &&
          op.preassigned < store_->size()) {
        // A preassigned id may name a hole or a tombstone, never a live
        // record. Holes fetch as NotFound and skipped-but-allocated
        // slots decode as dead — both are fine to overwrite.
        auto r = store_->Fetch(op.preassigned);
        if (r.ok() && r.value().live) {
          return Status::InvalidArgument("preassigned oid already live");
        }
        if (!r.ok() && !r.status().IsNotFound()) return r.status();
      }
    } else {
      ObjectRecord rec;
      ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(op.oid));
      if (!rec.live) return Status::NotFound("object already erased");
      if (!erased.insert(op.oid).second) {
        return Status::NotFound("object erased twice in batch");
      }
    }
  }
  return Status::OK();
}

Result<ObjectId> SpatialIndex::InsertLocked(const Rect& mbr,
                                            uint32_t payload,
                                            ObjectId preassigned) {
  if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  ObjectId oid;
  if (preassigned == kNoPreassignedOid) {
    ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(mbr, payload));
  } else {
    oid = preassigned;
    ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, mbr, payload));
  }

  const GridRect grect = mapper_.ToGrid(mbr);
  const Decomposition decomp =
      Decompose(grect, options_.grid_bits, options_.data);

  std::string value;
  if (options_.store_mbr_in_leaf) {
    value.resize(kEncodedRectSize);
    EncodeRect(mbr, value.data());
  }

  for (const ZElement& elem : decomp.elements) {
    ZDB_RETURN_IF_ERROR(
        btree_->Insert(Slice(EncodeZKey(elem, oid)), Slice(value)));
    level_mask_ |= 1ULL << elem.level;
  }

  ++build_stats_.objects;
  build_stats_.index_entries += decomp.elements.size();
  build_stats_.total_error += decomp.error();
  ++live_objects_;
  return oid;
}

Result<ObjectId> SpatialIndex::InsertPolygonLocked(const Polygon& poly,
                                                   ObjectId preassigned) {
  if (poly.size() < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  if (options_.store_mbr_in_leaf) {
    return Status::InvalidArgument(
        "polygon objects are incompatible with store_mbr_in_leaf");
  }
  PolyRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, polys_->Insert(poly));
  ObjectId oid;
  if (preassigned == kNoPreassignedOid) {
    ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(poly.Bounds(), ref));
  } else {
    oid = preassigned;
    ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, poly.Bounds(), ref));
  }
  {
    // Flip the record to polygon kind.
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    rec.kind = ObjectKind::kPolygon;
    ZDB_RETURN_IF_ERROR(store_->Rewrite(oid, rec));
  }

  const PolygonRegion region(&poly);
  const RegionDecomposition decomp =
      DecomposeRegion(region, mapper_, options_.data);
  for (const ZElement& elem : decomp.elements) {
    ZDB_RETURN_IF_ERROR(
        btree_->Insert(Slice(EncodeZKey(elem, oid)), Slice()));
    level_mask_ |= 1ULL << elem.level;
  }

  ++build_stats_.objects;
  build_stats_.index_entries += decomp.elements.size();
  build_stats_.total_error += decomp.error();
  ++live_objects_;
  return oid;
}

Status SpatialIndex::EraseLocked(ObjectId oid) {
  ObjectRecord rec;
  ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
  if (!rec.live) return Status::NotFound("object already erased");

  // Recompute the (deterministic) decomposition to find the entries.
  std::vector<ZElement> elements;
  if (rec.kind == ObjectKind::kPolygon) {
    Polygon poly;
    ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
    const PolygonRegion region(&poly);
    elements = DecomposeRegion(region, mapper_, options_.data).elements;
  } else {
    elements =
        Decompose(mapper_.ToGrid(rec.mbr), options_.grid_bits, options_.data)
            .elements;
  }
  for (const ZElement& elem : elements) {
    ZDB_RETURN_IF_ERROR(btree_->Delete(Slice(EncodeZKey(elem, oid))));
  }
  ZDB_RETURN_IF_ERROR(store_->Erase(oid));
  --live_objects_;
  return Status::OK();
}

// ------------------------------------------------------------- refinement

Result<bool> SpatialIndex::RecordIntersects(const ObjectRecord& rec,
                                            const Rect& window) {
  if (!rec.mbr.Intersects(window)) return false;
  if (rec.kind == ObjectKind::kRect) return true;
  Polygon poly;
  ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
  return poly.Intersects(window);
}

Result<double> SpatialIndex::DistanceTo(ObjectId oid, const Point& p) {
  return AtFreshPin([&](const EpochPin& pin) -> Result<double> {
    std::unique_ptr<SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, OpenSnapshot(pin));
    SnapshotSection section(this);
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    if (rec.kind == ObjectKind::kRect) return rec.mbr.DistanceTo(p);
    Polygon poly;
    ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
    return poly.DistanceTo(p);
  });
}

template <typename Predicate>
Result<std::vector<ObjectId>> SpatialIndex::Refine(
    std::vector<ObjectId> candidates, Predicate pred, QueryStats* stats) {
  // Ascending as 32-bit values, the bare ids come first and the marked
  // ones after them; one merge pass over the two runs meets each id once.
  if (std::adjacent_find(candidates.begin(), candidates.end(),
                         std::greater_equal<ObjectId>()) !=
      candidates.end()) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  const auto end = candidates.end();
  const auto bare_end =
      std::lower_bound(candidates.begin(), end, kCertainHitMark);
  auto marked = bare_end;  // next marked id not yet reported
  std::vector<ObjectId> results;
  results.reserve(bare_end - candidates.begin());
  uint64_t certain = 0;
  uint64_t false_hits = 0;
  for (auto it = candidates.begin(); it != bare_end; ++it) {
    const ObjectId oid = *it;
    // Marked ids without a bare twin below `oid`.
    while (marked != end && (*marked & ~kCertainHitMark) < oid) {
      results.push_back(*marked++ & ~kCertainHitMark);
      ++certain;
    }
    if (marked != end && *marked == (oid | kCertainHitMark)) {
      ++marked;
      results.push_back(oid);  // a certain hit: no fetch
      ++certain;
      continue;
    }
    ObjectRecord rec;
    ZDB_ASSIGN_OR_RETURN(rec, store_->Fetch(oid));
    bool keep = false;
    if (rec.live) {
      ZDB_ASSIGN_OR_RETURN(keep, pred(rec));
    }
    if (keep) {
      results.push_back(oid);
    } else {
      ++false_hits;
    }
  }
  for (; marked != end; ++marked) {
    results.push_back(*marked & ~kCertainHitMark);
    ++certain;
  }
  if (stats != nullptr) {
    stats->false_hits += false_hits;
    stats->certain_hits += certain;
    stats->results = results.size();
  }
  return results;
}

Result<std::vector<ObjectId>> SpatialIndex::RefineWindowCandidates(
    const Rect& window, std::vector<ObjectId> candidates, QueryStats* stats) {
  if (options_.store_mbr_in_leaf) {
    // The filter already tested the replicated MBR against the window.
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) { return RecordIntersects(rec, window); },
      stats);
}

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::WindowDistancesLocked(const Rect& window, const Point& p,
                                    QueryStats* stats) {
  WindowPlan plan;
  ZDB_ASSIGN_OR_RETURN(plan, PlanWindowLocked(window));
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(
      candidates, WindowSliceLocked(plan, 0, plan.work_items(),
                                    /*certain_hits=*/false, stats));
  // Each hit's distance comes from the record (and ring) refinement
  // fetched for the intersection test.
  std::vector<double> dists;
  auto meets_window = [&](const ObjectRecord& rec) -> Result<bool> {
    if (!rec.mbr.Intersects(window)) return false;
    if (rec.kind == ObjectKind::kRect) {
      dists.push_back(rec.mbr.DistanceTo(p));
      return true;
    }
    Polygon poly;
    ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
    if (!poly.Intersects(window)) return false;
    dists.push_back(poly.DistanceTo(p));
    return true;
  };
  std::vector<ObjectId> hits;
  ZDB_ASSIGN_OR_RETURN(hits,
                       Refine(std::move(candidates), meets_window, stats));
  std::vector<std::pair<ObjectId, double>> out;
  out.reserve(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) out.emplace_back(hits[i], dists[i]);
  return out;
}

// ---------------------------------------------------------------- queries
//
// The public queries pin the current epoch and run latch-free against
// the pinned version chains through their *At variants.

Result<std::vector<ObjectId>> SpatialIndex::WindowQuery(const Rect& window,
                                                        QueryStats* stats) {
  return AtFreshPin([&](const EpochPin& pin) {
    return WindowQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::WindowQueryLocked(
    const Rect& window, QueryStats* stats) {
  // The staged hooks' bodies, in one call: plan, filter, refine.
  WindowPlan plan;
  ZDB_ASSIGN_OR_RETURN(plan, PlanWindowLocked(window));
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(
      candidates,
      WindowSliceLocked(plan, 0, plan.work_items(), /*certain_hits=*/true,
                        stats));
  return RefineWindowCandidates(window, std::move(candidates), stats);
}

Result<std::vector<ObjectId>> SpatialIndex::PointQuery(const Point& p,
                                                       QueryStats* stats) {
  return AtFreshPin(
      [&](const EpochPin& pin) { return PointQueryAt(pin, p, stats); });
}

Result<std::vector<ObjectId>> SpatialIndex::PointQueryLocked(
    const Point& p, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckQueryPoint(p));
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Contains(p);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(
      candidates,
      CollectPointCandidatesFiltered(mapper_.ToGridX(p.x),
                                     mapper_.ToGridY(p.y), &leaf_pred,
                                     stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        if (!rec.mbr.Contains(p)) return false;
        if (rec.kind == ObjectKind::kRect) return true;
        Polygon poly;
        ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
        return poly.Contains(p);
      },
      stats);
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQuery(
    const Rect& window, QueryStats* stats) {
  return AtFreshPin([&](const EpochPin& pin) {
    return ContainmentQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQueryLocked(
    const Rect& window, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckQueryWindow(window));
  const GridRect qgrid = mapper_.ToGrid(window);
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return window.Contains(mbr);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(candidates,
                       CollectCandidatesFiltered(qgrid, &leaf_pred, stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  // A tight MBR inside the window implies the object is inside, for both
  // kinds.
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        return window.Contains(rec.mbr);
      },
      stats);
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQuery(
    const Rect& window, QueryStats* stats) {
  return AtFreshPin([&](const EpochPin& pin) {
    return EnclosureQueryAt(pin, window, stats);
  });
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQueryLocked(
    const Rect& window, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckQueryWindow(window));
  const GridRect qgrid = mapper_.ToGrid(window);
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Contains(window);
  };
  std::vector<ObjectId> candidates;
  ZDB_ASSIGN_OR_RETURN(candidates,
                       CollectCandidatesFiltered(qgrid, &leaf_pred, stats));
  if (options_.store_mbr_in_leaf) {
    if (stats != nullptr) stats->results = candidates.size();
    return candidates;
  }
  return Refine(
      std::move(candidates),
      [&](const ObjectRecord& rec) -> Result<bool> {
        if (!rec.mbr.Contains(window)) return false;
        if (rec.kind == ObjectKind::kRect) return true;
        Polygon poly;
        ZDB_ASSIGN_OR_RETURN(poly, polys_->Fetch(rec.payload));
        return PolygonContainsRect(poly, window);
      },
      stats);
}

}  // namespace zdb
