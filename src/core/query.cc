// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Filter stage of filter-and-refine. A query region is decomposed into
// query elements; the index entries examined are (a) those stored under
// elements whose zmin falls inside a query element's z-interval — one
// contiguous B+-tree scan per query element — and (b) those stored under
// strict enclosing elements of the query elements, found by ancestor
// probes. Each entry is then decided from its stored element alone:
//
//   * skip: an element that misses the query grid rect is not a
//     candidate (in BIGMIN mode the scan jumps past it instead). Exact:
//     an object that meets the window shares a cell with the query grid
//     rect, and the element holding that cell is a scanned or probed
//     entry;
//   * certain hit: for window queries over rectangles, an element inside
//     the window's interior cells proves the intersection (ToGridX/Y are
//     monotone and every stored element touches its object's grid rect),
//     so the id is marked with kCertainHitMark and refinement reports it
//     without fetching the record.
//
// Candidates are de-duplicated by object id (a certain mark from any of
// an object's entries wins); the refinement step (spatial_index.cc)
// fetches the exact geometry of the unmarked ones.

#include <algorithm>
#include <functional>
#include <optional>

#include "btree/cursor.h"
#include "core/spatial_index.h"
#include "zorder/bigmin.h"
#include "zorder/zkey.h"

namespace zdb {

namespace {

/// True if z lies inside some element's z-interval (elements sorted,
/// disjoint).
bool CoveredByScan(const std::vector<ZElement>& elements, uint64_t z) {
  // Last element with zmin <= z.
  auto it = std::upper_bound(
      elements.begin(), elements.end(), z,
      [](uint64_t v, const ZElement& e) { return v < e.zmin; });
  if (it == elements.begin()) return false;
  --it;
  return z <= it->zmax();
}

/// The window's interior cells — [f(xlo)+1, f(xhi)-1] x [f(ylo)+1,
/// f(yhi)-1] for f = ToGridX/ToGridY — or nullopt when the window spans
/// fewer than three cells on an axis.
std::optional<GridRect> InteriorCells(const GridRect& q) {
  if (q.xhi < q.xlo + 2 || q.yhi < q.ylo + 2) return std::nullopt;
  return GridRect{q.xlo + 1, q.ylo + 1, q.xhi - 1, q.yhi - 1};
}

/// Collects the candidates of the entries shared by probes and scans and
/// de-duplicates them by object id with one sort at the end. Each entry
/// carries one flag: in store_mbr_in_leaf mode whether its leaf MBR
/// passes `leaf_pred` (the same for every entry of an object), otherwise
/// whether its element lies inside `interior` (a certain hit).
class CandidateSink {
 public:
  CandidateSink(const std::function<bool(const Rect&)>* leaf_pred,
                std::optional<GridRect> interior, QueryStats* stats)
      : leaf_pred_(leaf_pred), interior_(interior), stats_(stats) {}

  void Accept(ObjectId oid, const ZElement& elem, const Slice& value) {
    if (stats_ != nullptr) ++stats_->candidates;
    const bool flag =
        leaf_pred_ != nullptr
            ? (*leaf_pred_)(DecodeRect(value.data()))
            : interior_.has_value() &&
                  interior_->Contains(elem.ToGridRect());
    entries_.push_back(uint64_t{oid} << 1 | (flag ? 1 : 0));
  }

  /// Unique candidates sorted by oid (deterministic output and clustered
  /// object fetches), then the certain ones again with kCertainHitMark:
  /// ascending and duplicate-free as 32-bit values, so the union of two
  /// slices' outputs is the output of both slices' work items together.
  std::vector<ObjectId> Finish() {
    std::sort(entries_.begin(), entries_.end());
    std::vector<ObjectId> out;
    std::vector<ObjectId> certain;
    uint64_t unique = 0;
    uint64_t rejected = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      // A set flag sorts last in its object's run.
      if (i + 1 < entries_.size() &&
          entries_[i + 1] >> 1 == entries_[i] >> 1) {
        continue;
      }
      ++unique;
      const ObjectId oid = static_cast<ObjectId>(entries_[i] >> 1);
      const bool flag = (entries_[i] & 1) != 0;
      if (leaf_pred_ == nullptr) {
        out.push_back(oid);
        if (flag) certain.push_back(oid | kCertainHitMark);
      } else if (flag) {
        out.push_back(oid);
      } else {
        ++rejected;
      }
    }
    if (stats_ != nullptr) {
      stats_->unique_candidates = unique;
      stats_->false_hits += rejected;
    }
    out.insert(out.end(), certain.begin(), certain.end());
    return out;
  }

 private:
  const std::function<bool(const Rect&)>* leaf_pred_;
  std::optional<GridRect> interior_;
  QueryStats* stats_;
  std::vector<uint64_t> entries_;  ///< oid << 1 | flag, one per entry
};

}  // namespace

WindowPlan SpatialIndex::BuildWindowPlan(const GridRect& qgrid) const {
  WindowPlan plan;
  plan.qgrid = qgrid;
  const uint32_t gbits = options_.grid_bits;

  // 1. Query-side decomposition.
  if (options_.use_bigmin) {
    plan.scans.push_back(ZElement::Enclosing(qgrid, gbits));
  } else {
    plan.scans = Decompose(qgrid, gbits, options_.query).elements;
  }

  // 2. Ancestor probes: strict enclosing elements of the query elements
  // that the scans will not pass over. Only levels that actually occur in
  // the index are probed (the pinned snapshot's mask under a snapshot
  // read — the live mask may already include a concurrent writer's new
  // levels).
  const uint64_t level_mask = EffectiveLevelMask();
  for (const ZElement& e : plan.scans) {
    ZElement anc = e;
    while (anc.level > 0) {
      anc = anc.Parent();
      if ((level_mask & (1ULL << anc.level)) == 0) continue;
      if (CoveredByScan(plan.scans, anc.zmin)) continue;
      plan.probes.push_back(anc);
    }
  }
  std::sort(plan.probes.begin(), plan.probes.end());
  plan.probes.erase(std::unique(plan.probes.begin(), plan.probes.end()),
                    plan.probes.end());
  return plan;
}

Result<std::vector<ObjectId>> SpatialIndex::ExecutePlanSlice(
    const WindowPlan& plan, size_t begin, size_t end,
    const std::function<bool(const Rect&)>* leaf_pred, bool certain_hits,
    QueryStats* stats) {
  const uint32_t gbits = options_.grid_bits;
  const bool leaf_refine =
      options_.store_mbr_in_leaf && leaf_pred != nullptr;
  CandidateSink sink(
      leaf_refine ? leaf_pred : nullptr,
      certain_hits ? InteriorCells(plan.qgrid) : std::nullopt, stats);

  end = std::min(end, plan.work_items());
  for (size_t item = begin; item < end; ++item) {
    // Ancestor probes come first, then the interval scans over the query
    // elements.
    const bool probe = item < plan.probes.size();
    const ZElement& qe =
        probe ? plan.probes[item] : plan.scans[item - plan.probes.size()];
    if (stats != nullptr) {
      ++(probe ? stats->ancestor_probes : stats->query_elements);
    }
    const std::string stop = probe ? ZProbeEndKey(qe) : ZScanEndKey(qe);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(
        cur, btree_->Seek(Slice(probe ? ZProbeStartKey(qe)
                                      : ZScanStartKey(qe))));
    while (cur.Valid() && cur.key().compare(Slice(stop)) <= 0) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      if (stats != nullptr) ++stats->index_entries;

      if (!elem.ToGridRect().Intersects(plan.qgrid)) {
        // Not a candidate (a probed element always meets the query).
        if (probe || !options_.use_bigmin) {
          ZDB_RETURN_IF_ERROR(cur.Next());
          continue;
        }
        // Dead space: jump to the first z-code inside the query after
        // this element, then rewind to the lowest enclosing element that
        // the scan has not passed yet (elements containing the jump-in
        // point can start before it).
        auto bm = BigMin(elem.zmax(), plan.qgrid, gbits);
        if (!bm.has_value()) break;
        uint64_t seek_zmin = *bm;
        const uint32_t zbits = 2 * gbits;
        for (uint32_t lvl = 0; lvl <= zbits; ++lvl) {
          const uint64_t width =
              (lvl == 0) ? 0 : ~0ULL << (zbits - lvl);
          const uint64_t anc_zmin = (lvl == 0) ? 0 : (*bm & width);
          if (anc_zmin > elem.zmin) {
            seek_zmin = anc_zmin;
            break;
          }
        }
        if (stats != nullptr) ++stats->bigmin_jumps;
        ZElement target(seek_zmin, 0, static_cast<uint8_t>(gbits));
        ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(ZScanStartKey(target))));
        continue;
      }
      sink.Accept(oid, elem, cur.value());
      ZDB_RETURN_IF_ERROR(cur.Next());
    }
  }

  return sink.Finish();
}

Result<std::vector<ObjectId>> SpatialIndex::CollectCandidatesFiltered(
    const GridRect& qgrid, const std::function<bool(const Rect&)>* leaf_pred,
    QueryStats* stats) {
  const WindowPlan plan = BuildWindowPlan(qgrid);
  return ExecutePlanSlice(plan, 0, plan.work_items(), leaf_pred,
                          /*certain_hits=*/false, stats);
}

Result<WindowPlan> SpatialIndex::PlanWindowLocked(const Rect& window) const {
  ZDB_RETURN_IF_ERROR(CheckQueryWindow(window));
  WindowPlan plan = BuildWindowPlan(mapper_.ToGrid(window));
  plan.window = window;
  return plan;
}

Result<std::vector<ObjectId>> SpatialIndex::WindowSliceLocked(
    const WindowPlan& plan, size_t begin, size_t end, bool certain_hits,
    QueryStats* stats) {
  const std::function<bool(const Rect&)> leaf_pred = [&](const Rect& mbr) {
    return mbr.Intersects(plan.window);
  };
  // A polygon's element proves nothing about its exact ring, so an index
  // whose pinned state holds any polygon page fetches every candidate.
  return ExecutePlanSlice(plan, begin, end, &leaf_pred,
                          certain_hits && !EffectiveHasPolygons(), stats);
}

Result<WindowPlan> SpatialIndex::PlanWindow(const Rect& window) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope("PlanWindow"));
  SnapshotSection section(this);
  return PlanWindowLocked(window);
}

Result<std::vector<ObjectId>> SpatialIndex::ExecuteWindowPlanSlice(
    const WindowPlan& plan, size_t begin, size_t end, QueryStats* stats) {
  ZDB_RETURN_IF_ERROR(CheckSnapshotScope("ExecuteWindowPlanSlice"));
  SnapshotSection section(this);
  return WindowSliceLocked(plan, begin, end, /*certain_hits=*/true, stats);
}

Result<std::vector<uint64_t>> SpatialIndex::LevelHistogram() {
  using Histogram = std::vector<uint64_t>;
  return AtFreshPin([&](const EpochPin& pin) -> Result<Histogram> {
    std::unique_ptr<SnapshotReadScope> scope;
    ZDB_ASSIGN_OR_RETURN(scope, OpenSnapshot(pin));
    Histogram histogram(2 * options_.grid_bits + 1, 0);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(cur, btree_->SeekFirst());
    while (cur.Valid()) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), options_.grid_bits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      ++histogram[elem.level];
      ZDB_RETURN_IF_ERROR(cur.Next());
    }
    return histogram;
  });
}

Result<std::vector<ObjectId>> SpatialIndex::CollectPointCandidatesFiltered(
    GridCoord gx, GridCoord gy,
    const std::function<bool(const Rect&)>* leaf_pred, QueryStats* stats) {
  const uint32_t gbits = options_.grid_bits;
  const bool leaf_refine =
      options_.store_mbr_in_leaf && leaf_pred != nullptr;
  CandidateSink sink(leaf_refine ? leaf_pred : nullptr, std::nullopt, stats);

  // Candidates are exactly the entries stored under enclosing elements of
  // the point's cell: probe every level present in the index.
  const ZElement cell = ZElement::Cell(gx, gy, gbits);
  const uint32_t zbits = 2 * gbits;
  const uint64_t level_mask = EffectiveLevelMask();
  if (stats != nullptr) stats->query_elements += 1;
  for (uint32_t lvl = 0; lvl <= zbits; ++lvl) {
    if ((level_mask & (1ULL << lvl)) == 0) continue;
    const uint64_t zmin =
        (lvl == 0) ? 0 : (cell.zmin & (~0ULL << (zbits - lvl)));
    const ZElement anc(zmin, static_cast<uint8_t>(lvl),
                       static_cast<uint8_t>(gbits));
    if (stats != nullptr) ++stats->ancestor_probes;
    const std::string start = ZProbeStartKey(anc);
    const std::string end = ZProbeEndKey(anc);
    Cursor cur(pool_, pool_->pager()->page_size());
    ZDB_ASSIGN_OR_RETURN(cur, btree_->Seek(Slice(start)));
    while (cur.Valid() && cur.key().compare(Slice(end)) <= 0) {
      ZElement elem;
      ObjectId oid;
      if (!DecodeZKey(cur.key(), gbits, &elem, &oid)) {
        return Status::Corruption("malformed index key");
      }
      if (stats != nullptr) ++stats->index_entries;
      sink.Accept(oid, elem, cur.value());
      ZDB_RETURN_IF_ERROR(cur.Next());
    }
  }
  return sink.Finish();
}

}  // namespace zdb
