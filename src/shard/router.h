// Copyright (c) zdb authors. Licensed under the MIT license.
//
// ShardRouter: owns the N shard engines behind zdb::DB and is the one
// dispatch path for every shard count — a single-engine DB is the N=1
// router with trivial routing. Global object ids are router-assigned
// (dense, in op order — byte-identical to the single-engine store's
// append cursor, so an N-shard DB answers queries with exactly the ids
// a 1-shard DB would). Each insert is replicated into every shard whose
// prefix region its MBR overlaps, under the same global oid; the owner
// set is kept in an in-memory per-oid shard mask, rebuilt from the
// shard object stores on every open, which is what lets erases fan out
// to exactly the owning shards.
//
// Lock order: router_mu_ -> epoch_mu_ (declared via ACQUIRED_AFTER).
// router_mu_ serializes the routing state (oid cursor + masks) and the
// publish fan-out; epoch_mu_ guards the per-shard epoch marks (which
// engine epoch each router epoch maps to) and per-shard batch counters.
// Durability waits happen OUTSIDE both locks — concurrent kDurable
// writers overlap their fsyncs across the independent per-shard
// group-commit pipelines, which is where the multi-shard ApplyBatch
// scaling comes from. Readers never take either lock: they bracket a
// query with write_epoch() before it and announced_epoch() after it.
//
// Router epoch: successful fan-outs plus the group rollbacks the
// engines have run. An engine rolls a failed group back on its own
// durability thread; counting the rollback in the epoch is what keeps
// a reader's bracket exact across it, and the next write (or
// object_count()/WaitDurable) rebuilds the routing state from the
// stores, so oids stay dense and the live count exact.
//
// Atomicity contract: one batch publishes per shard atomically, but
// NOT atomically across shards — a reader racing the fan-out can
// observe the batch applied on one shard and not yet on another.
// Quiescent states (every router Apply returned) are exact, and with
// one shard every state a reader can observe is a batch boundary. A
// shard failure mid-fan-out can leave the batch partially applied
// across shards; the router then rebuilds its bookkeeping from the
// shard stores, so later writes route by what the shards really hold.
// See DESIGN.md "Sharded partitions" for the recovery story.

#ifndef ZDB_SHARD_ROUTER_H_
#define ZDB_SHARD_ROUTER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "shard/engine.h"
#include "shard/routing.h"

namespace zdb {
namespace shard {

/// Per-shard counters reported through DB::ShardStats()/server STATS.
struct ShardCounters {
  uint64_t objects = 0;        ///< live objects replicated to this shard
  uint64_t index_entries = 0;  ///< z-elements in this shard's B+-tree
  uint64_t write_epoch = 0;    ///< this shard's published epoch
  uint64_t durable_epoch = 0;  ///< this shard's fsynced epoch
  uint64_t journal_commits = 0;  ///< coalesced journal commits
  uint64_t batches = 0;        ///< sub-batches routed to this shard
  uint32_t pages = 0;          ///< pages in this shard's file
  uint64_t pins_taken = 0;     ///< snapshot pins ever taken
  uint64_t page_versions = 0;  ///< before-image versions retained
};

class ShardRouter {
 public:
  /// Takes ownership of the engines; `routing.shards()` must equal
  /// `engines.size()`.
  ShardRouter(std::vector<std::unique_ptr<ShardEngine>> engines,
              ShardRouting routing);

  /// Rebuilds the routing state (oid cursor + per-oid shard masks) by
  /// scanning the shard object stores. Call once after opening the
  /// shard engines, before any operation.
  Status RecoverState() EXCLUDES(router_mu_);

  uint32_t shards() const { return routing_.shards(); }
  const ShardRouting& routing() const { return routing_; }
  ShardEngine* engine(uint32_t s) const { return engines_[s].get(); }
  SpatialIndex* index(uint32_t s) const { return engines_[s]->index(); }
  const std::vector<SpatialIndex*>& indexes() const { return indexes_; }

  // ------------------------------------------------------------- writes

  /// Splits `batch` by routing prefix, fans the sub-batches out to the
  /// per-shard pipelines (published under router_mu_, in shard order)
  /// and, for kDurable, waits on each involved shard's publish epoch
  /// outside the locks. Returns router-assigned oids in op order;
  /// `epoch`, when non-null, receives the router epoch the batch
  /// published at (unchanged for an empty batch).
  Result<std::vector<ObjectId>> Apply(const WriteBatch& batch,
                                      Durability durability,
                                      uint64_t* epoch = nullptr);

  /// Replays a leader-resolved batch on a follower: every insert must
  /// carry its leader-assigned oid in WriteOp::preassigned (routed and
  /// replicated under that id, so the replica's ids stay byte-identical
  /// to the leader's), erases fan out by the stored owner masks.
  /// Publish-time semantics (kPublished); durability follows via the
  /// per-shard pipelines as usual.
  Result<std::vector<ObjectId>> ApplyReplicated(const WriteBatch& batch);

  /// Polygons have no batch op: replicated through the engines'
  /// polygon path under the router lock.
  Result<ObjectId> InsertPolygon(const Polygon& poly);

  /// Bulk loads into empty shards: assigns global oids 0..n-1, routes
  /// each rectangle to its owner shards and runs one per-shard bulk
  /// load over `data` restricted to that shard's oid list (no per-shard
  /// copy of the rectangles).
  Status BulkLoad(const std::vector<Rect>& data, double fill);

  // ------------------------------------------------------------- queries

  Result<std::vector<ObjectId>> Window(const Rect& window, QueryStats* stats);
  Result<std::vector<ObjectId>> Point(const zdb::Point& p, QueryStats* stats);
  Result<std::vector<ObjectId>> Containment(const Rect& window,
                                            QueryStats* stats);
  Result<std::vector<std::pair<ObjectId, double>>> Nearest(const zdb::Point& p,
                                                           size_t k,
                                                           QueryStats* stats);

  // ---------------------------------------------------------- durability

  /// The DB's write epoch: successful write fan-outs plus engine group
  /// rollbacks. A fan-out counts once every involved engine has
  /// published; a rollback counts before its state becomes visible.
  uint64_t write_epoch() const {
    return fanouts_.load(std::memory_order_acquire) + RollbackCount();
  }

  /// write_epoch() plus the write fan-out in progress, if any (raised
  /// before a fan-out publishes on any engine). A query that loads
  /// write_epoch() before it runs and announced_epoch() after it
  /// observed the DB at some epoch in that bracket (per shard; exactly
  /// one batch boundary with one shard), and a quiet DB brackets
  /// e0 == e1.
  uint64_t announced_epoch() const {
    return announced_.load(std::memory_order_acquire) + RollbackCount();
  }

  /// Waits until the DB state at router epoch `epoch` is durable on
  /// every shard: OK, the rollback cause if a group rollback lost it,
  /// or TimedOut after a nonzero `timeout_ms`. Shards without a
  /// group-commit pipeline are skipped.
  Status WaitDurable(uint64_t epoch, uint64_t timeout_ms);

  /// Highest router epoch whose state is durable on every
  /// group-commit shard (a rolled-back epoch counts as settled, as in
  /// SpatialIndex::durable_epoch()).
  uint64_t durable_epoch() const EXCLUDES(epoch_mu_);

  /// Checkpoints every shard engine.
  Status Checkpoint();

  // ------------------------------------------------------------ plumbing

  /// Distinct live objects (each counted once, not per replica).
  /// Refreshes the routing state first if an engine has rolled back.
  uint64_t object_count() EXCLUDES(router_mu_);

  ShardCounters CountersOf(uint32_t s) const;

 private:
  /// Validated routing decisions of one batch, staged before the
  /// fan-out and committed to masks_/next_oid_ only if every shard
  /// publish succeeds.
  struct RoutePlan {
    std::vector<WriteBatch> sub;              ///< per-shard sub-batches
    std::vector<std::pair<ObjectId, uint64_t>> insert_masks;
    std::vector<ObjectId> erase_oids;
    std::vector<ObjectId> inserted;           ///< result ids, op order
    ObjectId next_oid = 0;                    ///< cursor after the batch
    uint64_t touched = 0;                     ///< shards with a sub-batch
  };

  /// Validates and routes `batch`. A user batch gets oids from the
  /// cursor and must not preassign any; a `replicated` batch consumes
  /// its leader-assigned oids instead (advancing the cursor past them),
  /// so replay cannot fork the id sequence.
  Status PlanLocked(const WriteBatch& batch, bool replicated,
                    RoutePlan* plan) REQUIRES(router_mu_);
  /// Publishes `plan` on every shard it touches; `at` receives each
  /// shard's PublishPoint. Returns the router epoch of the batch.
  Result<uint64_t> FanOutLocked(RoutePlan* plan,
                                std::vector<PublishPoint>* at)
      REQUIRES(router_mu_) EXCLUDES(epoch_mu_);
  Status RecoverStateLocked() REQUIRES(router_mu_);
  /// Records a successful publish on the shards of `touched` (at the
  /// PublishPoints in `at`), bumps the router epoch and returns it.
  uint64_t PublishLocked(uint64_t touched, const std::vector<PublishPoint>& at)
      REQUIRES(router_mu_) EXCLUDES(epoch_mu_);
  /// Raises announced_epoch() ahead of a fan-out.
  void AnnounceLocked() REQUIRES(router_mu_);
  /// A fan-out failed after it may have touched a shard: withdraw the
  /// announcement and rebuild the routing state from the stores.
  Status AbortFanOutLocked(const Status& cause) REQUIRES(router_mu_);
  Status WaitShardsDurable(uint64_t touched,
                           const std::vector<PublishPoint>& at,
                           uint64_t timeout_ms);

  /// Sum of the engines' rollback counts.
  uint64_t RollbackCount() const {
    uint64_t n = 0;
    for (const SpatialIndex* ix : indexes_) n += ix->rollback_count();
    return n;
  }
  /// True when an engine has rolled back since the routing state was
  /// last rebuilt.
  bool RollbackPending() const {
    return RollbackCount() != synced_rollbacks_.load(std::memory_order_acquire);
  }
  /// If an engine rolled back since the last rebuild, maps the current
  /// router epoch to the shards' current states and rebuilds the
  /// routing state from the stores.
  Status SyncRollbacksLocked() REQUIRES(router_mu_) EXCLUDES(epoch_mu_);
  /// Settles shard `s`'s oldest marks: durable ones are dropped, lost
  /// ones become lost ranges.
  void PruneMarksLocked(uint32_t s) REQUIRES(epoch_mu_);

  const std::vector<std::unique_ptr<ShardEngine>> engines_;
  const ShardRouting routing_;
  std::vector<SpatialIndex*> indexes_;  ///< borrowed from engines_

  /// Routing state: global oid cursor and per-oid owner-shard masks
  /// (mask 0 = never inserted or erased), plus RollbackCount() as of
  /// the last rebuild.
  mutable Mutex router_mu_;
  ObjectId next_oid_ GUARDED_BY(router_mu_) = 0;
  std::vector<uint64_t> masks_ GUARDED_BY(router_mu_);
  std::atomic<uint64_t> synced_rollbacks_{0};

  /// A router epoch and the engine epoch one shard published at it; a
  /// shard's state at router epoch e is its last mark with label <= e.
  struct EpochMark {
    uint64_t label;
    uint64_t engine_epoch;
  };
  /// Router epochs [lo, hi) whose state a group rollback lost on a
  /// shard (settled marks, kept so WaitDurable still reports them).
  struct LostRange {
    uint64_t lo;
    uint64_t hi;
    Status status;
  };

  /// Per-shard publish bookkeeping; epoch_mu_ is a leaf below
  /// router_mu_ so CountersOf can read it without blocking writers for
  /// the whole fan-out. Marks are kept only for group-commit shards and
  /// pruned once settled.
  mutable Mutex epoch_mu_ ACQUIRED_AFTER(router_mu_);
  std::vector<std::deque<EpochMark>> marks_ GUARDED_BY(epoch_mu_);
  std::vector<std::vector<LostRange>> lost_ GUARDED_BY(epoch_mu_);
  std::vector<uint64_t> shard_batches_ GUARDED_BY(epoch_mu_);

  std::atomic<uint64_t> fanouts_{0};     ///< successful write fan-outs
  std::atomic<uint64_t> announced_{0};   ///< fanouts_ or the fan-out's
  std::atomic<uint64_t> live_count_{0};  ///< distinct live objects
};

}  // namespace shard
}  // namespace zdb

#endif  // ZDB_SHARD_ROUTER_H_
