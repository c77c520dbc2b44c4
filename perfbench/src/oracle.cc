// Copyright (c) zdb authors. Licensed under the MIT license.

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

namespace zbench {

namespace {

/// Distances that agree this closely are the same distance (the engine
/// and the oracle evaluate one formula; the slack only absorbs a
/// differently ordered floating-point evaluation).
constexpr double kDistanceSlack = 1e-12;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

}  // namespace

Digest DigestOf(std::vector<ObjectId>* ids) {
  std::sort(ids->begin(), ids->end());
  Digest d;
  d.count = ids->size();
  d.hash = 0x5a17b0e5ULL;
  for (ObjectId id : *ids) d.hash = Mix(d.hash, id);
  return d;
}

void Oracle::Add(ObjectId oid, const Rect& mbr, uint64_t born) {
  if (oid >= objs_.size()) objs_.resize(static_cast<size_t>(oid) + 1);
  Obj& o = objs_[oid];
  o.mbr = mbr;
  o.born = born;
  o.died = kNever;
  o.known = true;
}

bool Oracle::Kill(ObjectId oid, uint64_t epoch) {
  if (oid >= objs_.size() || !objs_[oid].known ||
      objs_[oid].died != kNever) {
    return false;
  }
  objs_[oid].died = epoch;
  return true;
}

void Oracle::Seal() {
  by_xlo_.clear();
  max_width_ = 0.0;
  for (ObjectId oid = 0; oid < objs_.size(); ++oid) {
    if (!objs_[oid].known) continue;
    by_xlo_.push_back(oid);
    max_width_ = std::max(max_width_, objs_[oid].mbr.width());
  }
  std::sort(by_xlo_.begin(), by_xlo_.end(), [&](ObjectId a, ObjectId b) {
    return objs_[a].mbr.xlo < objs_[b].mbr.xlo;
  });
  xlo_.resize(by_xlo_.size());
  for (size_t i = 0; i < by_xlo_.size(); ++i) {
    xlo_[i] = objs_[by_xlo_[i]].mbr.xlo;
  }
}

bool Oracle::Alive(ObjectId oid, uint64_t epoch) const {
  return oid < objs_.size() && AliveAt(objs_[oid], epoch);
}

std::pair<size_t, size_t> Oracle::XRange(double lo, double hi) const {
  const size_t b = static_cast<size_t>(
      std::lower_bound(xlo_.begin(), xlo_.end(), lo) - xlo_.begin());
  const size_t e = static_cast<size_t>(
      std::upper_bound(xlo_.begin(), xlo_.end(), hi) - xlo_.begin());
  return {b, std::max(b, e)};
}

std::vector<ObjectId> Oracle::Window(const Rect& w, uint64_t epoch) const {
  // An object intersecting w has xlo <= w.xhi and xhi >= w.xlo, hence
  // xlo >= w.xlo - max_width; the slack covers rounding in width().
  const auto [b, e] = XRange(w.xlo - max_width_ - 1e-9, w.xhi);
  std::vector<ObjectId> out;
  for (size_t i = b; i < e; ++i) {
    const Obj& o = objs_[by_xlo_[i]];
    if (AliveAt(o, epoch) && o.mbr.Intersects(w)) out.push_back(by_xlo_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> Oracle::PointHits(const Point& p, uint64_t epoch) const {
  const auto [b, e] = XRange(p.x - max_width_ - 1e-9, p.x);
  std::vector<ObjectId> out;
  for (size_t i = b; i < e; ++i) {
    const Obj& o = objs_[by_xlo_[i]];
    if (AliveAt(o, epoch) && o.mbr.Contains(p)) out.push_back(by_xlo_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> Oracle::KnnDistances(const Point& p, size_t k,
                                         uint64_t epoch) const {
  if (k == 0) return {};
  std::priority_queue<double> best;  // max-heap of the k smallest so far
  auto offer = [&](const Obj& o) {
    if (!AliveAt(o, epoch)) return;
    const double d = o.mbr.DistanceTo(p);
    if (best.size() < k) {
      best.push(d);
    } else if (d < best.top()) {
      best.pop();
      best.push(d);
    }
  };
  auto bound_exceeded = [&](double lower_bound) {
    return best.size() == k && lower_bound > best.top() + kDistanceSlack;
  };
  const size_t split = static_cast<size_t>(
      std::lower_bound(xlo_.begin(), xlo_.end(), p.x) - xlo_.begin());
  // Rightwards every object starts at xlo >= p.x, so its distance is at
  // least xlo - p.x, which only grows along the sweep.
  for (size_t i = split; i < xlo_.size(); ++i) {
    if (bound_exceeded(xlo_[i] - p.x)) break;
    offer(objs_[by_xlo_[i]]);
  }
  // Leftwards xhi <= xlo + max_width, so the distance is at least
  // p.x - xlo - max_width, which also only grows along the sweep.
  for (size_t i = split; i-- > 0;) {
    if (bound_exceeded(p.x - xlo_[i] - max_width_ - 1e-9)) break;
    offer(objs_[by_xlo_[i]]);
  }
  std::vector<double> out;
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double Oracle::DistanceTo(ObjectId oid, const Point& p) const {
  if (oid >= objs_.size() || !objs_[oid].known) return std::nan("");
  return objs_[oid].mbr.DistanceTo(p);
}

std::string CheckDigest(const Digest& got, const Digest& want) {
  if (got == want) return "";
  if (got.count != want.count) {
    return "got " + std::to_string(got.count) + " ids, expected " +
           std::to_string(want.count);
  }
  return "got a different set of " + std::to_string(got.count) + " ids";
}

std::string CheckKnn(const Oracle& oracle, const Point& p, size_t k,
                     uint64_t epoch,
                     const std::vector<std::pair<ObjectId, double>>& got) {
  const std::vector<double> want = oracle.KnnDistances(p, k, epoch);
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " neighbours, expected " +
           std::to_string(want.size());
  }
  std::unordered_set<ObjectId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [oid, dist] = got[i];
    const std::string at = " at rank " + std::to_string(i);
    if (!seen.insert(oid).second) return "repeated id" + at;
    if (!oracle.Alive(oid, epoch)) return "id not alive" + at;
    if (std::fabs(oracle.DistanceTo(oid, p) - dist) > kDistanceSlack) {
      return "wrong distance" + at;
    }
    if (i > 0 && dist < got[i - 1].second) return "misordered" + at;
    if (std::fabs(dist - want[i]) > kDistanceSlack) {
      return "not among the k nearest" + at;
    }
  }
  return "";
}

std::string CheckerSelfTest() {
  Oracle o;
  // A 5x5 grid of small squares plus one object erased at epoch 2 and
  // one inserted at epoch 3.
  ObjectId next = 0;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      o.Add(next++, Rect{0.1 + 0.2 * i, 0.1 + 0.2 * j, 0.15 + 0.2 * i,
                         0.15 + 0.2 * j},
            0);
    }
  }
  o.Add(next, Rect{0.4, 0.4, 0.6, 0.6}, 0);
  if (!o.Kill(next++, 2)) return "Kill rejected a live object";
  o.Add(next++, Rect{0.42, 0.42, 0.44, 0.44}, 3);
  o.Seal();

  const Rect w{0.05, 0.05, 0.52, 0.52};
  std::vector<ObjectId> good = o.Window(w, 1);
  if (good.size() != 10) return "window oracle returned a wrong count";
  std::vector<ObjectId> same = good;
  std::reverse(same.begin(), same.end());
  if (!CheckDigest(DigestOf(&same), DigestOf(&good)).empty()) {
    return "digest rejected a reordered correct answer";
  }
  const Digest want = DigestOf(&good);
  std::vector<ObjectId> dropped(good.begin() + 1, good.end());
  if (CheckDigest(DigestOf(&dropped), want).empty()) {
    return "checker accepted a dropped id";
  }
  std::vector<ObjectId> extra = good;
  extra.push_back(20);  // the square at (0.9, 0.1), outside the window
  if (CheckDigest(DigestOf(&extra), want).empty()) {
    return "checker accepted an extra id";
  }
  std::vector<ObjectId> swapped = good;
  swapped[0] = 24;
  if (CheckDigest(DigestOf(&swapped), want).empty()) {
    return "checker accepted a swapped id";
  }
  std::vector<ObjectId> at3 = o.Window(w, 3);
  if (at3.size() != 9 + 1) return "window oracle ignored the epoch";

  const Point p{0.43, 0.43};
  const size_t k = 3;
  auto answer = [&](uint64_t epoch) {
    std::vector<std::pair<double, ObjectId>> all;
    for (ObjectId id = 0; id < next; ++id) {
      if (o.Alive(id, epoch)) all.push_back({o.DistanceTo(id, p), id});
    }
    std::sort(all.begin(), all.end());
    std::vector<std::pair<ObjectId, double>> out;
    for (size_t i = 0; i < k; ++i) out.push_back({all[i].second, all[i].first});
    return out;
  };
  const auto knn = answer(3);
  if (!CheckKnn(o, p, k, 3, knn).empty()) {
    return "checker rejected a correct kNN answer: " + CheckKnn(o, p, k, 3, knn);
  }
  auto misordered = knn;
  std::swap(misordered[0], misordered[2]);
  if (CheckKnn(o, p, k, 3, misordered).empty()) {
    return "checker accepted a misordered kNN answer";
  }
  auto short_answer = knn;
  short_answer.pop_back();
  if (CheckKnn(o, p, k, 3, short_answer).empty()) {
    return "checker accepted a kNN answer missing a neighbour";
  }
  auto wrong = knn;
  wrong[2].first = 0;  // far corner square, stated distance kept
  if (CheckKnn(o, p, k, 3, wrong).empty()) {
    return "checker accepted a kNN id with a wrong distance";
  }
  if (CheckKnn(o, p, k, 1, knn).empty()) {
    return "checker accepted a kNN answer from the wrong epoch";
  }
  return "";
}

}  // namespace zbench
