// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/router.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "shard/scatter.h"

namespace zdb {
namespace shard {

namespace {

/// Iterates the set bits of a shard mask.
template <typename Fn>
Status ForEachShard(uint64_t mask, Fn fn) {
  while (mask != 0) {
    const uint32_t s = static_cast<uint32_t>(__builtin_ctzll(mask));
    mask &= mask - 1;
    ZDB_RETURN_IF_ERROR(fn(s));
  }
  return Status::OK();
}

/// Per-shard epoch marks kept before the oldest are settled and pruned.
constexpr size_t kMarkPruneAt = 64;

}  // namespace

ShardRouter::ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
                         ShardRouting routing)
    : engines_(std::move(engines)), routing_(std::move(routing)) {
  indexes_.reserve(engines_.size());
  for (const auto& e : engines_) indexes_.push_back(e->index());
  MutexLock el(epoch_mu_);
  marks_.resize(engines_.size());
  lost_.resize(engines_.size());
  shard_batches_.assign(engines_.size(), 0);
}

Status ShardRouter::RecoverState() {
  MutexLock lock(router_mu_);
  return RecoverStateLocked();
}

Status ShardRouter::RecoverStateLocked() {
  // Rollback count first: a rollback during the scan below shows up as
  // pending and is synced again by the next write.
  synced_rollbacks_.store(RollbackCount(), std::memory_order_release);

  uint32_t max_size = 0;
  for (SpatialIndex* ix : indexes_) {
    max_size = std::max(max_size, ix->objects()->size());
  }
  masks_.assign(max_size, 0);
  for (uint32_t s = 0; s < shards(); ++s) {
    ObjectStore* store = indexes_[s]->objects();
    for (ObjectId oid = 0; oid < store->size(); ++oid) {
      auto r = store->Fetch(oid);
      if (r.ok()) {
        if (r.value().live) masks_[oid] |= 1ULL << s;
      } else if (!r.status().IsNotFound()) {
        // Holes (pages this shard never saw) read as NotFound; anything
        // else is a real I/O problem.
        return r.status();
      }
    }
  }
  next_oid_ = max_size;
  uint64_t live = 0;
  for (uint64_t m : masks_) live += m != 0 ? 1 : 0;
  live_count_.store(live, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::SyncRollbacksLocked() {
  if (!RollbackPending()) return Status::OK();
  {
    // A rolled-back shard now holds its last durable state, published
    // at a fresh engine epoch. No fan-out is running, so every shard's
    // current engine epoch is its state at the current router epoch:
    // map it, so WaitDurable of later epochs does not wait on the lost
    // batches.
    MutexLock el(epoch_mu_);
    const uint64_t label = write_epoch();
    for (uint32_t s = 0; s < shards(); ++s) {
      marks_[s].push_back({label, indexes_[s]->write_epoch()});
    }
  }
  return RecoverStateLocked();
}

uint64_t ShardRouter::object_count() {
  if (RollbackPending()) {
    MutexLock lock(router_mu_);
    // On a failed rebuild the old count stands; the next write reports
    // the error.
    Status st = SyncRollbacksLocked();
    (void)st;
  }
  return live_count_.load(std::memory_order_relaxed);
}

// ----------------------------------------------------------------- writes

Status ShardRouter::PlanLocked(const WriteBatch& batch, bool replicated,
                               RoutePlan* plan) {
  plan->sub.resize(shards());
  plan->next_oid = next_oid_;
  std::unordered_set<ObjectId> erased;
  for (const WriteOp& op : batch.ops) {
    uint64_t mask;
    if (op.kind == WriteOp::Kind::kInsert) {
      if ((op.preassigned != kNoPreassignedOid) != replicated) {
        return Status::InvalidArgument(
            replicated ? "replicated insert lacks a leader-assigned oid"
                       : "preassigned oids are reserved for replicated "
                         "batches");
      }
      if (!op.mbr.valid()) return Status::InvalidArgument("invalid MBR");
      ObjectId oid;
      if (replicated) {
        oid = op.preassigned;
        if (oid >= kObjectIdLimit) {
          return Status::InvalidArgument("object id out of range (>= 2^31)");
        }
        if (oid < masks_.size() && masks_[oid] != 0) {
          return Status::InvalidArgument("replicated oid already live");
        }
        plan->next_oid = std::max(plan->next_oid, oid + 1);
      } else {
        if (plan->next_oid >= kObjectIdLimit) {
          return Status::NoSpace("object id space exhausted (2^31 ids)");
        }
        oid = plan->next_oid++;
      }
      mask = routing_.MaskForRect(op.mbr);
      ZDB_RETURN_IF_ERROR(ForEachShard(mask, [&](uint32_t s) -> Status {
        plan->sub[s].InsertWithOid(op.mbr, oid, op.payload);
        return Status::OK();
      }));
      plan->insert_masks.emplace_back(oid, mask);
      plan->inserted.push_back(oid);
    } else {
      // Mirrors the single-engine validation (including its error
      // texts): erases must name live pre-batch objects, once each.
      if (op.oid >= next_oid_) return Status::NotFound("oid out of range");
      mask = masks_[op.oid];
      if (mask == 0) return Status::NotFound("object already erased");
      if (!erased.insert(op.oid).second) {
        return Status::NotFound("object erased twice in batch");
      }
      ZDB_RETURN_IF_ERROR(ForEachShard(mask, [&](uint32_t s) -> Status {
        plan->sub[s].Erase(op.oid);
        return Status::OK();
      }));
      plan->erase_oids.push_back(op.oid);
    }
    plan->touched |= mask;
  }
  return Status::OK();
}

void ShardRouter::AnnounceLocked() {
  announced_.store(fanouts_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
}

Status ShardRouter::AbortFanOutLocked(const Status& cause) {
  // Earlier shards may already have published their part, and an engine
  // that rolled back its group may have undone earlier batches too: the
  // shard stores are the truth, so route later writes by them.
  announced_.store(fanouts_.load(std::memory_order_relaxed),
                   std::memory_order_release);
  ZDB_RETURN_IF_ERROR(RollbackPending() ? SyncRollbacksLocked()
                                        : RecoverStateLocked());
  return cause;
}

uint64_t ShardRouter::PublishLocked(uint64_t touched,
                                    const std::vector<PublishPoint>& at) {
  const uint64_t fanouts = fanouts_.load(std::memory_order_relaxed) + 1;
  // The batch's router epoch: this fan-out plus the rollbacks each
  // touched engine had run when it published (the others' current
  // counts), so a rollback racing the fan-out cannot shift the label.
  uint64_t epoch = fanouts;
  for (uint32_t s = 0; s < shards(); ++s) {
    epoch += (touched >> s & 1) != 0 ? at[s].rollbacks
                                     : indexes_[s]->rollback_count();
  }
  {
    MutexLock el(epoch_mu_);
    for (uint32_t s = 0; s < shards(); ++s) {
      if ((touched >> s & 1) == 0) continue;
      ++shard_batches_[s];
      if (indexes_[s]->group_commit_active()) {
        marks_[s].push_back({epoch, at[s].epoch});
        if (marks_[s].size() > kMarkPruneAt) PruneMarksLocked(s);
      }
    }
  }
  fanouts_.store(fanouts, std::memory_order_release);
  return epoch;
}

void ShardRouter::PruneMarksLocked(uint32_t s) {
  // The newest mark stays: it maps every later router epoch. A mark at
  // or below the engine's durable watermark is settled (durable or
  // rolled back), so its WaitDurable returns at once.
  std::deque<EpochMark>& marks = marks_[s];
  const uint64_t durable = indexes_[s]->durable_epoch();
  while (marks.size() > 1 && marks[0].engine_epoch <= durable) {
    Status st = indexes_[s]->WaitDurable(marks[0].engine_epoch);
    if (!st.ok()) lost_[s].push_back({marks[0].label, marks[1].label, st});
    marks.pop_front();
  }
}

Result<uint64_t> ShardRouter::FanOutLocked(RoutePlan* plan,
                                           std::vector<PublishPoint>* at) {
  // Publish per shard, in shard order. kPublished keeps the fan-out
  // I/O-free in group-commit mode; the caller waits durability outside
  // the router lock so concurrent batches overlap their fsyncs.
  AnnounceLocked();
  for (uint32_t s = 0; s < shards(); ++s) {
    if (plan->sub[s].empty()) continue;
    auto r = indexes_[s]->ApplyBatch(plan->sub[s], Durability::kPublished,
                                     &(*at)[s]);
    if (!r.ok()) return AbortFanOutLocked(r.status());
  }

  next_oid_ = plan->next_oid;
  if (masks_.size() < next_oid_) masks_.resize(next_oid_, 0);
  for (const auto& [oid, mask] : plan->insert_masks) masks_[oid] = mask;
  for (const ObjectId oid : plan->erase_oids) masks_[oid] = 0;
  live_count_.fetch_add(plan->insert_masks.size(),
                        std::memory_order_relaxed);
  live_count_.fetch_sub(plan->erase_oids.size(), std::memory_order_relaxed);
  const uint64_t epoch = PublishLocked(plan->touched, *at);
  // A group may have rolled back while this batch fanned out.
  ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  return epoch;
}

Status ShardRouter::WaitShardsDurable(uint64_t touched,
                                      const std::vector<PublishPoint>& at,
                                      uint64_t timeout_ms) {
  return ForEachShard(touched, [&](uint32_t s) -> Status {
    if (!indexes_[s]->group_commit_active()) return Status::OK();
    return indexes_[s]->WaitDurable(at[s].epoch, timeout_ms);
  });
}

Result<std::vector<ObjectId>> ShardRouter::Apply(const WriteBatch& batch,
                                                 Durability durability,
                                                 uint64_t* epoch) {
  RoutePlan plan;
  std::vector<PublishPoint> at(shards());
  {
    MutexLock lock(router_mu_);
    ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
    ZDB_RETURN_IF_ERROR(PlanLocked(batch, /*replicated=*/false, &plan));
    // A batch that validates empty is a no-op: nothing published, no
    // epoch bump — same as the single-engine contract.
    if (batch.empty()) return plan.inserted;
    uint64_t published;
    ZDB_ASSIGN_OR_RETURN(published, FanOutLocked(&plan, &at));
    if (epoch != nullptr) *epoch = published;
  }
  if (durability == Durability::kDurable) {
    ZDB_RETURN_IF_ERROR(WaitShardsDurable(plan.touched, at, 0));
  }
  return plan.inserted;
}

Result<std::vector<ObjectId>> ShardRouter::ApplyReplicated(
    const WriteBatch& batch) {
  RoutePlan plan;
  std::vector<PublishPoint> at(shards());
  MutexLock lock(router_mu_);
  ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  ZDB_RETURN_IF_ERROR(PlanLocked(batch, /*replicated=*/true, &plan));
  if (batch.empty()) return plan.inserted;
  ZDB_RETURN_IF_ERROR(FanOutLocked(&plan, &at).status());
  return plan.inserted;
}

Result<ObjectId> ShardRouter::InsertPolygon(const Polygon& poly) {
  // Polygons have no batch op; replicate through the engines' polygon
  // path under the router lock. Reject the predictable failures before
  // touching any shard so they cannot partially apply.
  if (poly.size() < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  MutexLock lock(router_mu_);
  ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  const ObjectId oid = next_oid_;
  if (oid >= kObjectIdLimit) {
    return Status::NoSpace("object id space exhausted (2^31 ids)");
  }
  const uint64_t mask = routing_.MaskForRect(poly.Bounds());
  std::vector<PublishPoint> at(shards());
  AnnounceLocked();
  Status st = ForEachShard(mask, [&](uint32_t s) -> Status {
    return indexes_[s]->InsertPolygon(poly, oid, &at[s]).status();
  });
  if (!st.ok()) return AbortFanOutLocked(st);
  next_oid_ = oid + 1;
  masks_.resize(next_oid_, 0);
  masks_[oid] = mask;
  live_count_.fetch_add(1, std::memory_order_relaxed);
  PublishLocked(mask, at);
  ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  return oid;
}

Status ShardRouter::BulkLoad(const std::vector<Rect>& data, double fill) {
  MutexLock lock(router_mu_);
  ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  if (next_oid_ != 0) {
    return Status::InvalidArgument("bulk load into non-empty index");
  }
  if (data.size() > kObjectIdLimit) {
    return Status::NoSpace("object id space exhausted (2^31 ids)");
  }
  for (const Rect& mbr : data) {
    if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
  }
  // Route every rectangle once, then size each shard's oid list
  // exactly. The rectangles are never copied: each engine loads
  // data[oid] for the oids routed to it.
  std::vector<uint64_t> new_masks(data.size(), 0);
  std::vector<size_t> counts(shards(), 0);
  for (size_t i = 0; i < data.size(); ++i) {
    new_masks[i] = routing_.MaskForRect(data[i]);
    ZDB_RETURN_IF_ERROR(ForEachShard(new_masks[i], [&](uint32_t s) -> Status {
      ++counts[s];
      return Status::OK();
    }));
  }
  std::vector<std::vector<ObjectId>> shard_oids(shards());
  for (uint32_t s = 0; s < shards(); ++s) shard_oids[s].reserve(counts[s]);
  for (size_t i = 0; i < data.size(); ++i) {
    ZDB_RETURN_IF_ERROR(ForEachShard(new_masks[i], [&](uint32_t s) -> Status {
      shard_oids[s].push_back(static_cast<ObjectId>(i));
      return Status::OK();
    }));
  }

  AnnounceLocked();
  std::vector<PublishPoint> at(shards());
  uint64_t touched = 0;
  for (uint32_t s = 0; s < shards(); ++s) {
    if (shard_oids[s].empty()) continue;
    Status st = indexes_[s]->BulkLoad(data, fill, &shard_oids[s], &at[s]);
    if (!st.ok()) return AbortFanOutLocked(st);
    touched |= 1ULL << s;
  }
  next_oid_ = static_cast<ObjectId>(data.size());
  masks_ = std::move(new_masks);
  live_count_.store(data.size(), std::memory_order_relaxed);
  PublishLocked(touched, at);
  return SyncRollbacksLocked();
}

// ---------------------------------------------------------------- queries

Result<std::vector<ObjectId>> ShardRouter::Window(const Rect& window,
                                                  QueryStats* stats) {
  return ScatterWindow(indexes_, routing_, window, stats);
}

Result<std::vector<ObjectId>> ShardRouter::Point(const zdb::Point& p,
                                                 QueryStats* stats) {
  return ScatterPoint(indexes_, routing_, p, stats);
}

Result<std::vector<ObjectId>> ShardRouter::Containment(const Rect& window,
                                                       QueryStats* stats) {
  return ScatterContainment(indexes_, routing_, window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>> ShardRouter::Nearest(
    const zdb::Point& p, size_t k, QueryStats* stats) {
  return ScatterNearest(indexes_, routing_, p, k, stats);
}

// ------------------------------------------------------------- durability

Status ShardRouter::WaitDurable(uint64_t epoch, uint64_t timeout_ms) {
  if (RollbackPending()) {
    // Map the rolled-back shards' re-published state first.
    MutexLock lock(router_mu_);
    ZDB_RETURN_IF_ERROR(SyncRollbacksLocked());
  }
  // Each shard's state at `epoch` is its last mark at or below it; a
  // shard with no such mark has settled everything up to `epoch`.
  std::vector<uint64_t> targets(shards(), 0);
  {
    MutexLock el(epoch_mu_);
    for (uint32_t s = 0; s < shards(); ++s) {
      for (const LostRange& lost : lost_[s]) {
        if (epoch >= lost.lo && epoch < lost.hi) return lost.status;
      }
      const std::deque<EpochMark>& marks = marks_[s];
      auto it = std::upper_bound(
          marks.begin(), marks.end(), epoch,
          [](uint64_t e, const EpochMark& m) { return e < m.label; });
      if (it != marks.begin()) targets[s] = std::prev(it)->engine_epoch;
    }
  }
  for (uint32_t s = 0; s < shards(); ++s) {
    if (targets[s] == 0 || !indexes_[s]->group_commit_active()) continue;
    ZDB_RETURN_IF_ERROR(indexes_[s]->WaitDurable(targets[s], timeout_ms));
  }
  return Status::OK();
}

uint64_t ShardRouter::durable_epoch() const {
  uint64_t durable = write_epoch();
  MutexLock el(epoch_mu_);
  for (uint32_t s = 0; s < shards(); ++s) {
    const uint64_t engine_durable = indexes_[s]->durable_epoch();
    if (!indexes_[s]->group_commit_active()) {
      durable = std::min(durable, engine_durable);
      continue;
    }
    for (const EpochMark& m : marks_[s]) {
      if (m.engine_epoch > engine_durable) {
        durable = std::min(durable, m.label - 1);
        break;
      }
    }
  }
  return durable;
}

Status ShardRouter::Checkpoint() {
  for (const auto& e : engines_) {
    ZDB_RETURN_IF_ERROR(e->Checkpoint());
  }
  return Status::OK();
}

// --------------------------------------------------------------- plumbing

ShardCounters ShardRouter::CountersOf(uint32_t s) const {
  ShardCounters c;
  SpatialIndex* ix = indexes_[s];
  c.objects = ix->object_count();
  c.index_entries = ix->build_stats().index_entries;
  c.write_epoch = ix->write_epoch();
  c.durable_epoch = ix->durable_epoch();
  c.journal_commits = engines_[s]->pager()->commit_count();
  c.pages = engines_[s]->pager()->page_count();
  c.pins_taken = ix->epoch_stats().pins_taken;
  c.page_versions = ix->version_stats().live;
  {
    MutexLock el(epoch_mu_);
    c.batches = shard_batches_[s];
  }
  return c;
}

}  // namespace shard
}  // namespace zdb
