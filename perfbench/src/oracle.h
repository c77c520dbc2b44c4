// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Brute-force answer oracle for zbench. It keeps every object the run
// ever created with the epochs it was alive in, so one oracle answers
// for any epoch of a run that mixes reads and writes: an object
// inserted by the batch published at epoch b and erased by the batch
// published at epoch d is visible to reads at epochs [b, d).
//
// Queries scan the objects in order of their left edge and stop where
// no later object can qualify; every candidate in range is tested with
// the same geometric predicate the engine's answer promises (Rect
// intersection for windows, containment for points, exact point-to-MBR
// distance for kNN). That is a full scan with a sound early exit, not a
// second index.

#ifndef ZBENCH_ORACLE_H_
#define ZBENCH_ORACLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace zbench {

using zdb::Point;
using zdb::Rect;
using ObjectId = uint32_t;

inline constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/// Order-insensitive summary of an id set: count plus a hash of the
/// sorted ids. Recording digests keeps the per-op memory of a run fixed.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return count == o.count && hash == o.hash;
  }
};

/// Digest of `ids` (sorted in place first).
Digest DigestOf(std::vector<ObjectId>* ids);

class Oracle {
 public:
  /// Registers object `oid` alive from epoch `born`.
  void Add(ObjectId oid, const Rect& mbr, uint64_t born);
  /// Marks `oid` erased by the batch published at `epoch`. Returns false
  /// if it was never added or is already erased.
  bool Kill(ObjectId oid, uint64_t epoch);
  /// Builds the sweep order; call after the last Add/Kill.
  void Seal();

  bool Alive(ObjectId oid, uint64_t epoch) const;

  /// Sorted ids of objects alive at `epoch` whose MBR intersects `w`.
  std::vector<ObjectId> Window(const Rect& w, uint64_t epoch) const;
  /// Sorted ids of objects alive at `epoch` whose MBR contains `p`.
  std::vector<ObjectId> PointHits(const Point& p, uint64_t epoch) const;
  /// The k smallest distances from `p` to objects alive at `epoch`,
  /// ascending.
  std::vector<double> KnnDistances(const Point& p, size_t k,
                                   uint64_t epoch) const;
  /// Distance from `p` to `oid`'s MBR (NaN if unknown).
  double DistanceTo(ObjectId oid, const Point& p) const;

 private:
  struct Obj {
    Rect mbr;
    uint64_t born = 0;
    uint64_t died = kNever;
    bool known = false;
  };
  bool AliveAt(const Obj& o, uint64_t epoch) const {
    return o.known && o.born <= epoch && epoch < o.died;
  }
  /// Sweep-order positions whose left edge lies in [lo, hi].
  std::pair<size_t, size_t> XRange(double lo, double hi) const;

  std::vector<Obj> objs_;         ///< indexed by oid
  std::vector<ObjectId> by_xlo_;  ///< oids sorted by mbr.xlo
  std::vector<double> xlo_;       ///< parallel to by_xlo_
  double max_width_ = 0.0;
};

/// Empty when `got` equals `want`, else a description of the mismatch.
std::string CheckDigest(const Digest& got, const Digest& want);

/// Checks one kNN answer against the oracle at `epoch`: the result has
/// min(k, live) entries, no repeated id, every id alive with its stated
/// distance, distances ascending, and the distance list equal to the
/// oracle's k smallest (ties between equidistant objects are allowed).
/// Empty when correct, else a description.
std::string CheckKnn(const Oracle& oracle, const Point& p, size_t k,
                     uint64_t epoch,
                     const std::vector<std::pair<ObjectId, double>>& got);

/// Feeds the checkers known-bad answers (a dropped id, an extra id, a
/// swapped id, a misordered and a wrong-distance kNN result) and known-
/// good ones. Empty when every bad answer is rejected and every good one
/// accepted; otherwise names the case the checker got wrong.
std::string CheckerSelfTest();

}  // namespace zbench

#endif  // ZBENCH_ORACLE_H_
