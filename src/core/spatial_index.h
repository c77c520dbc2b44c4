// Copyright (c) zdb authors. Licensed under the MIT license.
//
// SpatialIndex: the public API of the reproduction. A redundant z-order
// spatial index per Orenstein (SIGMOD 1989): objects are decomposed into
// z-elements (decompose/), the (element, oid) pairs are stored in a
// B+-tree (btree/), exact geometry lives in an object store, and queries
// run filter-and-refine over z-interval scans plus enclosing-element
// probes. The filter decides each entry from its stored element first:
// it skips elements that miss the query, and a window query accepts an
// object whose element lies inside the window's interior without
// fetching its record (see the parallel query hooks below).
//
// Typical use:
//
//   auto pager = Pager::OpenInMemory(512);
//   BufferPool pool(pager.get(), 128);
//   SpatialIndexOptions opt;
//   opt.data = DecomposeOptions::SizeBound(8);
//   auto index = SpatialIndex::Create(&pool, opt).value();
//   ObjectId id = index->Insert(Rect{.2, .2, .3, .25}).value();
//   auto hits = index->WindowQuery(Rect{.1, .1, .4, .4}).value();
//
// Concurrency: the index is safe for any mix of concurrent readers and
// writers. Mutations (Insert/InsertPolygon/Erase/BulkLoad/ApplyBatch/
// Checkpoint) are writer sections: they serialize on an exclusive latch,
// and each one publishes a new write epoch when it completes, so every
// mutation — in particular the multi-key publication of one object's
// whole z-element set — becomes visible to readers all-or-nothing.
// ApplyBatch() extends that guarantee to a whole batch of mutations (and
// makes the batch crash-atomic when the pager has a rollback journal).
// Use exec/executor.h to drive query and mixed read/write batches over a
// worker pool.
//
// Snapshot reads: every read — the queries (WindowQuery/PointQuery/
// ContainmentQuery/EnclosureQuery/NearestNeighbors), DistanceTo,
// LevelHistogram and SpatialJoin — pins the current write epoch
// (EpochPin, core/epoch.h) and reads the committed state of that epoch.
// Readers take no latch: a pinned page fetch takes a counted reference
// to the cached page buffer, and a writer's first mutation of a page
// hands the old buffer to the index's before-image version chains
// (storage/snapshot.h) and writes into a fresh copy. So a long scan
// never blocks a writer and a sustained write stream never blocks
// readers. The *At query variants run several queries against one
// explicitly pinned epoch — repeated reads at one pin are byte-stable.
// The parallel plan hooks (PlanWindow/ExecuteWindowPlanSlice/
// RefineWindowCandidates) run under a SnapshotReadScope the caller
// opens on each thread (OpenSnapshot), all under one pin. A background
// GC thread reclaims superseded versions once the lowest pinned epoch
// passes them. See DESIGN.md "Snapshot reads & epoch GC".

#ifndef ZDB_CORE_SPATIAL_INDEX_H_
#define ZDB_CORE_SPATIAL_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/epoch.h"
#include "core/object_store.h"
#include "core/options.h"
#include "core/polygon_store.h"
#include "core/stats.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "zorder/zelement.h"

namespace zdb {

/// The typed rejections every query entry point shares (engine,
/// scatter-gather, executor), so each path fails with the same
/// InvalidArgument text: an inverted or NaN window, and a point with a
/// non-finite coordinate (which has no grid cell).
[[nodiscard]] Status CheckQueryWindow(const Rect& window);
[[nodiscard]] Status CheckQueryPoint(const Point& p);

/// Filter-stage plan of one window query: the ancestor probes and
/// z-interval scans the filter will run. Work items are indexed
/// [0, probes.size()) for probes, then [probes.size(), work_items()) for
/// scans; any partition of that index range over threads executes the
/// same entry set (see QueryExecutor::ParallelWindowQuery).
struct WindowPlan {
  Rect window;                   ///< original world-space query window
  GridRect qgrid;                ///< window mapped onto the grid
  std::vector<ZElement> probes;  ///< strict enclosing-element probes
  std::vector<ZElement> scans;   ///< query elements (interval scans)

  size_t work_items() const { return probes.size() + scans.size(); }
};

/// Sentinel for WriteOp::preassigned: let the object store assign the
/// next dense oid (the default, and the only mode single-engine callers
/// use).
inline constexpr ObjectId kNoPreassignedOid = 0xFFFFFFFFu;

/// One mutation of a write batch (see WriteBatch / ApplyBatch).
struct WriteOp {
  enum class Kind : uint8_t { kInsert, kErase };
  Kind kind = Kind::kInsert;
  Rect mbr;              ///< kInsert: the object's MBR
  uint32_t payload = 0;  ///< kInsert: opaque application reference
  ObjectId oid = 0;      ///< kErase: the object to remove
  /// kInsert: store the object under this caller-chosen oid instead of
  /// the store's append cursor. Used by the shard router, which assigns
  /// global oids and replicates one object into every overlapping
  /// shard engine under the same id.
  ObjectId preassigned = kNoPreassignedOid;
};

/// When a batch is acknowledged to the caller (see
/// SpatialIndex::ApplyBatch / zdb::DB::Apply / net::Client::Apply).
/// kDurable waits for the group-commit pipeline to fsync the batch;
/// kPublished returns as soon as readers can see it — the batch becomes
/// durable asynchronously, and a crash before that rolls it back as a
/// unit (never partially). Without group commit, kDurable is the classic
/// synchronous journaled ApplyBatch and kPublished is identical to it.
enum class Durability : uint8_t {
  kDurable = 0,
  kPublished = 1,
};

/// Where a successful mutation published, read inside its writer
/// section: the write epoch it created and how many group rollbacks the
/// index had run before it. A caller that reads write_epoch() after the
/// call returns can instead see a later rollback's epoch.
struct PublishPoint {
  uint64_t epoch = 0;
  uint64_t rollbacks = 0;
};

/// An ordered batch of inserts and erases applied atomically by
/// SpatialIndex::ApplyBatch(): concurrent readers observe either none or
/// all of its effects, and with a journaled pager a crash mid-batch rolls
/// the whole batch back on reopen.
struct WriteBatch {
  std::vector<WriteOp> ops;

  void Insert(const Rect& mbr, uint32_t payload = 0) {
    ops.push_back({WriteOp::Kind::kInsert, mbr, payload, 0});
  }
  /// Insert under a caller-chosen oid (see WriteOp::preassigned).
  void InsertWithOid(const Rect& mbr, ObjectId oid, uint32_t payload = 0) {
    ops.push_back({WriteOp::Kind::kInsert, mbr, payload, 0, oid});
  }
  void Erase(ObjectId oid) {
    ops.push_back({WriteOp::Kind::kErase, Rect{}, 0, oid});
  }
  size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

class SpatialIndex {
 public:
  /// Creates an empty index whose pages come from `pool`.
  static Result<std::unique_ptr<SpatialIndex>> Create(
      BufferPool* pool, const SpatialIndexOptions& options);

  /// Re-attaches an index previously persisted with Checkpoint() in the
  /// same paged file. The stored options are restored verbatim.
  static Result<std::unique_ptr<SpatialIndex>> Open(BufferPool* pool,
                                                    PageId master_page);

  /// Stops the group-commit pipeline (draining pending durability work)
  /// if it is running, then the version GC thread.
  ~SpatialIndex();

  /// Persists the index state (options, B+-tree meta, store directories,
  /// counters) and returns the master page id to pass to Open(). The
  /// master page is allocated on the first call and reused afterwards.
  /// Call BufferPool::FlushAll() / Pager::Sync() afterwards for
  /// durability.
  Result<PageId> Checkpoint();

  // ------------------------------------------------------------- updates

  /// Inserts an object by MBR; returns its id. `payload` is an opaque
  /// application reference carried in the object record.
  Result<ObjectId> Insert(const Rect& mbr, uint32_t payload = 0);

  /// Inserts a simple polygon. The exact ring is persisted in the
  /// polygon store and the *polygon itself* (not its MBR) is decomposed
  /// into z-elements; queries refine against the exact geometry.
  /// Incompatible with store_mbr_in_leaf (the leaf MBR cannot refine a
  /// polygon). `preassigned` stores the ring under a caller-chosen oid
  /// (shard replication); leave defaulted otherwise.
  Result<ObjectId> InsertPolygon(const Polygon& poly,
                                 ObjectId preassigned = kNoPreassignedOid,
                                 PublishPoint* published = nullptr);

  /// Removes an object: deletes all its index entries and tombstones the
  /// object record.
  Status Erase(ObjectId oid);

  /// Bulk loads rectangles into an empty index: objects are appended to
  /// the object store, all (element, oid) entries are generated and
  /// sorted, and the B+-tree is built bottom-up at `fill` leaf
  /// occupancy. Far cheaper than n inserts and yields a denser tree.
  /// `oids`, when non-null, selects the rectangles to load: data[oid]
  /// is loaded under object id `oid` for each oid in the list (a shard
  /// engine loads its routed subset of a global data set without a
  /// copy); ids must be unique and below data.size() but may be sparse.
  Status BulkLoad(const std::vector<Rect>& data, double fill = 0.9,
                  const std::vector<ObjectId>* oids = nullptr,
                  PublishPoint* published = nullptr);

  /// Applies `batch` as one writer section: concurrent readers see either
  /// the full pre-batch or the full post-batch state, never a partially
  /// applied batch (and never a partial z-element set of any object).
  /// Returns the ids of the inserted objects, in op order. A batch that
  /// validates empty is a no-op: nothing is applied, checkpointed or
  /// published, and the write epoch is unchanged.
  ///
  /// With the group-commit pipeline running (StartGroupCommit()), the
  /// batch is applied and *published* under the exclusive latch with no
  /// I/O inside — the durability work (checkpoint, flush, journal fsync)
  /// runs on the dedicated group-commit thread, which coalesces
  /// consecutively published batches into one commit and completes
  /// waiters in epoch order. `durability` selects when the call returns:
  /// kDurable (the default) blocks until the batch's epoch is durable;
  /// kPublished returns at publish time. Crash contract in this mode:
  /// published-but-not-durable batches roll back as a unit on recovery,
  /// never partially.
  ///
  /// Without group commit, `durability` is ignored and the batch is made
  /// synchronously crash-atomic when the pager has a rollback journal
  /// and no caller-managed batch is active: it runs inside
  /// BeginBatch/CommitBatch with a checkpoint + flush before the commit,
  /// so a crash mid-batch rolls back to the pre-batch index on reopen.
  ///
  /// Failure semantics: the batch is validated up front (invalid MBRs,
  /// erases of unknown, dead or batch-duplicated oids), so predictable
  /// errors reject the whole batch with nothing applied — note this
  /// means an erase must reference an object that existed before the
  /// batch. A residual mid-batch failure (I/O error) on the journaled
  /// path aborts the pager batch and reloads the index from the last
  /// durable checkpoint, so memory and disk both return to a batch
  /// boundary (in group mode that boundary is the last durable group,
  /// so earlier published-but-not-durable batches roll back with the
  /// failed one and their durability waiters get the error). Without a
  /// journal (none configured, or composing with a caller-managed
  /// batch) such a failure can leave a partially applied batch in
  /// memory — the caller's outer rollback (crash or reopen) is then the
  /// recovery path.
  ///
  /// `published`, when non-null, receives the batch's PublishPoint (left
  /// untouched for a batch that validates empty or fails).
  Result<std::vector<ObjectId>> ApplyBatch(
      const WriteBatch& batch, Durability durability = Durability::kDurable,
      PublishPoint* published = nullptr);

  // ------------------------------------------------------- group commit
  //
  // The off-latch durability pipeline: mutations publish in-memory state
  // under the exclusive latch and hand checkpoint + flush + journal
  // commit to a dedicated thread, so readers never wait out an fsync.
  // The pager batch (rollback journal) is kept permanently armed; its
  // before-images always describe the last durable group boundary, which
  // is what makes whole published-but-not-durable batches roll back as a
  // unit on crash.

  /// Starts the group-commit pipeline. Requires a journaled pager with
  /// no caller-managed batch active. The current state is made durable
  /// first (it becomes the initial group boundary), then the journal is
  /// armed and the durability thread started. While the pipeline runs,
  /// single-op mutations (Insert/InsertPolygon/Erase/BulkLoad) are
  /// acknowledged at publish time and made durable asynchronously; use
  /// ApplyBatch(…, kDurable) or WaitDurable() to block on durability.
  Status StartGroupCommit();

  /// Drains pending durability work, commits the armed journal batch and
  /// joins the durability thread. Safe to call when not running. Called
  /// by the destructor.
  Status StopGroupCommit();

  /// True while the group-commit pipeline is running.
  bool group_commit_active() const {
    return gc_active_.load(std::memory_order_acquire);
  }

  /// Highest write epoch whose effects are durable on disk (only
  /// advanced by the group-commit pipeline; 0 before StartGroupCommit).
  uint64_t durable_epoch() const;

  /// Blocks until epoch `epoch` is durable (OK), rolled back (the
  /// rollback cause), or — with nonzero `timeout_ms` — the deadline
  /// expires (TimedOut). Returns Unavailable if the pipeline stops
  /// before the epoch becomes durable. Group-commit mode only.
  Status WaitDurable(uint64_t epoch, uint64_t timeout_ms = 0);

  /// Group rollbacks run so far. Each one reloads the last durable state
  /// and publishes it as a fresh epoch; the counter is bumped before
  /// that state becomes visible to readers.
  uint64_t rollback_count() const {
    return rollbacks_.load(std::memory_order_acquire);
  }

  /// Test hook: pauses/resumes the durability thread. While paused,
  /// published batches accumulate in the armed journal batch and
  /// coalesce into a single commit on resume.
  void SetGroupCommitPaused(bool paused);

  // ------------------------------------------------------- concurrency

  /// Number of committed writer sections (single mutations count one,
  /// ApplyBatch counts one per batch). Monotonic; published with release
  /// order inside the writer section, so a reader that loads epoch e
  /// before a query and e' after it observed the index at some single
  /// epoch in [e, e'] — the hook the stress harness uses to cross-check
  /// concurrent answers against per-epoch oracles.
  uint64_t write_epoch() const {
    return write_epoch_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------ snapshot reads
  //
  // Every read runs at a pinned epoch: it resolves pages through this
  // index's before-image version chains and the epoch's SnapshotMeta,
  // and never holds latch_, so it cannot stall writers (and writers
  // cannot tear it). Writers serialize through commit_mu_ -> latch_; on
  // every publish they capture a SnapshotMeta (root, directories,
  // counters) for the new epoch, and the first mutation of each page in
  // a batch hands its pre-batch buffer to the chains. The chains and
  // the epoch manager live from Create()/Open() to destruction.

  /// Pins the current write epoch for explicit multi-query snapshot
  /// reads (the *At variants below). Holding a pin never blocks writers
  /// — it only delays version reclamation.
  EpochPin PinEpoch() const;

  /// Scoped thread-local snapshot context: while alive, every read this
  /// thread makes through this index (including the plan hooks)
  /// resolves at the scope's epoch. Obtained from
  /// OpenSnapshot(); destroy on the creating thread, strictly nested.
  /// Construction briefly blocks while a failed-batch reload is in
  /// progress (the quiesce barrier); it never blocks on writers
  /// otherwise.
  class SnapshotReadScope {
   public:
    ~SnapshotReadScope();
    SnapshotReadScope(const SnapshotReadScope&) = delete;
    SnapshotReadScope& operator=(const SnapshotReadScope&) = delete;

    uint64_t epoch() const { return epoch_; }

   private:
    friend class SpatialIndex;
    SnapshotReadScope(const SpatialIndex* ix, uint64_t epoch,
                      std::shared_ptr<const SnapshotMeta> meta);

    const SpatialIndex* ix_;
    uint64_t epoch_;
    /// Engaged for the scope's whole life; optional only because the
    /// TLS installer must be constructed after the quiesce-barrier
    /// wait in the constructor body.
    std::optional<SnapshotScope> scope_;
  };

  /// Opens a snapshot context at `pin`'s epoch on the calling thread.
  /// The pin must come from this index's PinEpoch() and must stay held
  /// for the scope's lifetime. Fails with Aborted if the pinned epoch
  /// was rolled back by a failed group commit (re-pin and retry).
  /// Used by the parallel executor, whose workers each install their
  /// own scope under one shared pin; single queries use the *At
  /// variants instead.
  Result<std::unique_ptr<SnapshotReadScope>> OpenSnapshot(
      const EpochPin& pin) const;

  /// The queries below at an explicitly pinned epoch. All reads at one
  /// pin observe the single committed state of that epoch, stable
  /// across arbitrarily many re-reads and concurrent writer churn.
  /// They fail with Aborted if the pinned epoch was rolled back.
  Result<std::vector<ObjectId>> WindowQueryAt(const EpochPin& pin,
                                              const Rect& window,
                                              QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> PointQueryAt(const EpochPin& pin,
                                             const Point& p,
                                             QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> ContainmentQueryAt(
      const EpochPin& pin, const Rect& window, QueryStats* stats = nullptr);
  Result<std::vector<ObjectId>> EnclosureQueryAt(const EpochPin& pin,
                                                 const Rect& window,
                                                 QueryStats* stats = nullptr);
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighborsAt(
      const EpochPin& pin, const Point& p, size_t k,
      QueryStats* stats = nullptr, uint32_t* rounds = nullptr);

  /// Pin / version-chain counters.
  EpochStats epoch_stats() const;
  PageVersionStats version_stats() const;

  /// The manager backing PinEpoch(). Exposed for tests that drive
  /// reclamation deterministically (EpochManager::RunGcCycle).
  EpochManager* epochs() const { return epoch_mgr_.get(); }

  // ------------------------------------------------------------- queries

  /// All live objects whose MBR intersects `window`.
  Result<std::vector<ObjectId>> WindowQuery(const Rect& window,
                                            QueryStats* stats = nullptr);

  /// All live objects whose MBR contains `p`.
  Result<std::vector<ObjectId>> PointQuery(const Point& p,
                                           QueryStats* stats = nullptr);

  /// All live objects whose MBR is fully inside `window` ("containment").
  Result<std::vector<ObjectId>> ContainmentQuery(const Rect& window,
                                                 QueryStats* stats = nullptr);

  /// All live objects whose MBR encloses `window` ("enclosure").
  Result<std::vector<ObjectId>> EnclosureQuery(const Rect& window,
                                               QueryStats* stats = nullptr);

  /// The k nearest objects to `p` by exact geometry distance (0 when the
  /// point is inside the object), closest first. Implemented as an
  /// expanding-window search: the radius doubles until the k-th hit is
  /// provably inside the searched window. `rounds` (optional) reports
  /// the number of expansions.
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighbors(
      const Point& p, size_t k, QueryStats* stats = nullptr,
      uint32_t* rounds = nullptr);

  // ------------------------------------------------- parallel query hooks
  //
  // The stages of WindowQuery, exposed so a parallel executor can split
  // one query's z-interval set across workers: plan once, execute
  // disjoint work-item slices concurrently (each slice deduplicates
  // locally; the caller merges and deduplicates globally), then refine
  // candidate chunks concurrently. WindowQuery runs the same three
  // bodies in one call. Every call runs under a SnapshotReadScope of
  // this index installed on the calling thread (OpenSnapshot), all
  // scopes under one pin, so the plan, its slices and the refinement
  // read one committed state. PlanWindow and ExecuteWindowPlanSlice fail
  // with InvalidArgument without one.
  //
  // Certain hits travel between the stages in the id itself: a slice
  // lists every candidate's bare id and then, again with
  // kCertainHitMark set, each candidate whose stored element lies inside
  // the window's interior cells. Such an object meets the window, so
  // refinement reports it without fetching its record. Slices mark
  // nothing when the pinned index holds a polygon, or in
  // store_mbr_in_leaf mode. No query result carries the mark.

  /// Builds the probe/scan plan for a window query.
  Result<WindowPlan> PlanWindow(const Rect& window);

  /// Executes plan work items [begin, end): the bare ids of the
  /// candidates (entries whose element meets plan.qgrid), then the
  /// certain ones marked — ascending and duplicate-free as 32-bit values,
  /// so the set union of any partition's slices equals the whole plan's
  /// output. In store_mbr_in_leaf mode the replicated MBRs are tested
  /// against the plan's window instead.
  Result<std::vector<ObjectId>> ExecuteWindowPlanSlice(const WindowPlan& plan,
                                                       size_t begin,
                                                       size_t end,
                                                       QueryStats* stats);

  /// Refines window-query candidates: an id that appears marked is a
  /// result without a fetch; every other id is fetched and tested (a
  /// pass-through in store_mbr_in_leaf mode, where the filter already
  /// tested the replicated MBR). Takes one slice's output, any union of
  /// slices' outputs, or any list in which each id appears bare or
  /// marked; input ascending as 32-bit values is walked without a sort.
  /// Returns bare ids, ascending.
  Result<std::vector<ObjectId>> RefineWindowCandidates(
      const Rect& window, std::vector<ObjectId> candidates,
      QueryStats* stats);

  // ------------------------------------------------------------ plumbing

  const SpatialIndexOptions& options() const { return options_; }
  const SpaceMapper& mapper() const { return mapper_; }
  BTree* btree() { return btree_.get(); }
  ObjectStore* objects() { return store_.get(); }
  PolygonStore* polygons() { return polys_.get(); }
  BufferPool* pool() { return pool_; }

  /// Fetches an object's exact geometry distance to a point: 0 inside,
  /// Euclidean otherwise. Polygon objects use their exact ring.
  Result<double> DistanceTo(ObjectId oid, const Point& p);

  /// Build counters. Advisory monitor read outside the latch, so
  /// deliberately outside the analysis.
  const IndexBuildStats& build_stats() const NO_THREAD_SAFETY_ANALYSIS {
    return build_stats_;
  }

  /// Bitmask of element levels present in the index (bit L set if some
  /// entry was inserted at level L). Conservative: never cleared.
  /// Advisory monitor read outside the latch, like build_stats().
  uint64_t level_mask() const NO_THREAD_SAFETY_ANALYSIS {
    return level_mask_;
  }

  /// Exact per-level entry counts (index 0 = whole-space element, up to
  /// 2 * grid_bits). Scans the whole index; diagnostics/analysis use.
  Result<std::vector<uint64_t>> LevelHistogram();

  /// Live objects (inserted minus erased). Safe to read from any thread
  /// without a latch (relaxed; a concurrent writer's batch may or may
  /// not be counted yet).
  uint64_t object_count() const {
    return live_objects_.load(std::memory_order_relaxed);
  }

 private:
  friend Result<std::vector<std::pair<ObjectId, ObjectId>>> SpatialJoin(
      SpatialIndex* a, SpatialIndex* b, JoinStats* stats);

  SpatialIndex(BufferPool* pool, const SpatialIndexOptions& options)
      : pool_(pool),
        options_(options),
        mapper_(options.world, options.grid_bits),
        versions_(pool->pager()->page_size()),
        epoch_mgr_(std::make_unique<EpochManager>(&write_epoch_,
                                                  &versions_)) {}

  // Bodies of the public entry points (suffix "Locked" = caller holds
  // latch_: exclusive for writes, or claimed shared by SnapshotSection
  // for pinned reads; the REQUIRES annotations make the analysis enforce
  // exactly that). The public wrappers take a writer section or a
  // pinned snapshot scope and, for mutations, publish the write epoch;
  // internal callers (kNN's expanding windows, ApplyBatch) compose these
  // without re-acquiring.
  Result<ObjectId> InsertLocked(const Rect& mbr, uint32_t payload,
                                ObjectId preassigned = kNoPreassignedOid)
      REQUIRES(latch_);
  Result<ObjectId> InsertPolygonLocked(const Polygon& poly,
                                       ObjectId preassigned =
                                           kNoPreassignedOid)
      REQUIRES(latch_);
  Status EraseLocked(ObjectId oid) REQUIRES(latch_);
  /// Body of BulkLoad; sets *mutated once the first page is touched.
  Status BulkLoadLocked(const std::vector<Rect>& data, double fill,
                        const std::vector<ObjectId>* oids, bool* mutated)
      REQUIRES(latch_);
  /// Checkpoints serialize against the group-commit thread through
  /// commit_mu_ in addition to the exclusive latch.
  Result<PageId> CheckpointLocked() REQUIRES(commit_mu_, latch_);

  /// Rejects a batch whose ops would fail mid-application: invalid
  /// insert MBRs, erases of unknown/dead oids, duplicate erases. Reads
  /// only; nothing is applied.
  Status ValidateBatchLocked(const WriteBatch& batch) REQUIRES(latch_);

  /// Applies a validated batch's ops in order, appending inserted oids
  /// to *inserted; stops at the first failure (possibly mid-batch — the
  /// caller owns rollback). Split out of ApplyBatch so the loop is a
  /// checkable function instead of a lambda (the analysis does not
  /// propagate locksets into lambdas).
  Status ApplyOpsLocked(const WriteBatch& batch,
                        std::vector<ObjectId>* inserted) REQUIRES(latch_);

  /// Re-reads the dynamic index state (B+-tree meta, store directories,
  /// counters) from the master page after Pager::AbortBatch rolled the
  /// file back to the pre-batch checkpoint, discarding the buffer-pool
  /// cache first. Quiesces in-flight snapshot reads before touching
  /// anything (see BeginSnapshotQuiesce). Defined in core/persist.cc.
  Status ReloadLocked() REQUIRES(commit_mu_, latch_);
  /// ReloadLocked's body, run between the quiesce brackets.
  Status ReloadUnquiescedLocked() REQUIRES(commit_mu_, latch_);
  Result<std::vector<ObjectId>> WindowQueryLocked(const Rect& window,
                                                  QueryStats* stats)
      REQUIRES_SHARED(latch_);
  Result<std::vector<ObjectId>> PointQueryLocked(const Point& p,
                                                 QueryStats* stats)
      REQUIRES_SHARED(latch_);
  Result<std::vector<ObjectId>> ContainmentQueryLocked(const Rect& window,
                                                       QueryStats* stats)
      REQUIRES_SHARED(latch_);
  Result<std::vector<ObjectId>> EnclosureQueryLocked(const Rect& window,
                                                     QueryStats* stats)
      REQUIRES_SHARED(latch_);
  Result<std::vector<std::pair<ObjectId, double>>> NearestNeighborsLocked(
      const Point& p, size_t k, QueryStats* stats, uint32_t* rounds)
      REQUIRES_SHARED(latch_);

  /// Bumps the published write epoch; call at the end of a successful
  /// writer section, while still holding the exclusive latch. First
  /// records the post-batch SnapshotMeta under the new epoch — readers
  /// that pin the bumped epoch immediately afterwards must already find
  /// its meta. Reports the new epoch to a non-null `published`.
  void PublishWrite(PublishPoint* published = nullptr) REQUIRES(latch_) {
    const uint64_t epoch = write_epoch_.load(std::memory_order_relaxed) + 1;
    epoch_mgr_->RecordMeta(epoch, CaptureMetaLocked());
    write_epoch_.store(epoch, std::memory_order_release);
    if (published != nullptr) {
      *published = {epoch, rollbacks_.load(std::memory_order_relaxed)};
    }
  }

  // ----------------------------- snapshot reads (core/snapshot_read.cc)

  /// Makes the current state the first pinned-readable epoch and starts
  /// the version GC thread; the last step of Create()/Open().
  void StartSnapshotsLocked() REQUIRES(latch_);

  /// Runs `read(pin)` at a fresh pin of the current epoch. A pin can
  /// race a group rollback that invalidates its epoch (rare: I/O
  /// failure); the read then fails with Aborted, and it re-pins — the
  /// re-published epoch is always valid — and retries, twice at most.
  template <typename Read>
  auto AtFreshPin(Read read) const {
    for (int attempt = 0;; ++attempt) {
      const EpochPin pin = PinEpoch();
      auto r = read(pin);
      if (r.ok() || !r.status().IsAborted() || attempt >= 2) return r;
    }
  }

  /// The plan hooks' precondition: a SnapshotReadScope of this index is
  /// installed on the calling thread.
  Status CheckSnapshotScope(const char* hook) const;

  /// Value-copies the reader-visible index state (tree root/height,
  /// store directories, counters) into a SnapshotMeta. Writer side,
  /// under the exclusive latch, at every publish.
  SnapshotMeta CaptureMetaLocked() const REQUIRES(latch_);

  /// Builds the thread-local redirection record for `epoch`: tags this
  /// index's pool/tree/stores so their read paths resolve through the
  /// version chains and `meta` instead of the live state.
  SnapshotView MakeView(uint64_t epoch,
                        std::shared_ptr<const SnapshotMeta> meta) const;

  /// Resolves `pin`'s snapshot meta (Aborted for a rolled-back epoch).
  Result<std::shared_ptr<const SnapshotMeta>> PinnedMeta(
      const EpochPin& pin) const;

  /// Reader-count gate for the reload quiesce barrier. Snapshot reads
  /// hold no latch, but they dereference the tree/store handles that
  /// ReloadLocked reseats — it must wait those reads out. Enter blocks
  /// while the barrier is up; reads in progress finish first.
  void EnterSnapshotRead() const EXCLUDES(snap_mu_);
  void LeaveSnapshotRead() const EXCLUDES(snap_mu_);

  /// Raises the barrier and waits until no snapshot read is active /
  /// lowers it again. Bracket ReloadLocked's body; the caller holds
  /// commit_mu_ + the exclusive latch, so no new epoch can be pinned
  /// meanwhile and snapshot readers never take either lock (no
  /// deadlock; lock order commit_mu_ -> latch_ -> snap_mu_).
  void BeginSnapshotQuiesce() EXCLUDES(snap_mu_);
  void EndSnapshotQuiesce() EXCLUDES(snap_mu_);

  /// Capability bridge for the pinned read path: claims the shared
  /// latch for the thread-safety analysis WITHOUT acquiring it, so the
  /// REQUIRES_SHARED query bodies stay checkable from the latch-free
  /// read path. Sound because under an installed SnapshotView every
  /// latch-guarded datum those bodies touch is redirected to immutable
  /// snapshot state (EffectiveLevelMask/EffectiveLiveObjects, the
  /// view-aware BTree/store/pool read paths); the live fields a writer
  /// could race on are never read. Only construct with a
  /// SnapshotReadScope installed on this thread.
  class SCOPED_CAPABILITY SnapshotSection {
   public:
    explicit SnapshotSection(const SpatialIndex* ix)
        ACQUIRE_SHARED(ix->latch_) {
      (void)ix;  // consumed by the annotation only
    }
    ~SnapshotSection() RELEASE() {}
    SnapshotSection(const SnapshotSection&) = delete;
    SnapshotSection& operator=(const SnapshotSection&) = delete;
  };

  /// level_mask_ / live_objects_ / whether the polygon store holds any
  /// page, redirected to the installed snapshot view when one covers
  /// this index (pinned reads must not consult live counters a
  /// concurrent writer is mutating). Defined in core/snapshot_read.cc
  /// with the rest of the snapshot plumbing.
  uint64_t EffectiveLevelMask() const REQUIRES_SHARED(latch_);
  uint64_t EffectiveLiveObjects() const REQUIRES_SHARED(latch_);
  bool EffectiveHasPolygons() const REQUIRES_SHARED(latch_);

  // --------------------------------- group commit (core/group_commit.cc)

  /// Records the current write epoch as published and wakes the
  /// durability thread. Caller holds commit_mu_ (and has just
  /// PublishWrite()d); no-op when the pipeline is off.
  void NotifyPublished() REQUIRES(commit_mu_);

  /// Durability thread body: waits for published > durable, commits one
  /// group per wakeup.
  void GroupCommitLoop();

  /// True once WaitDurable(epoch)'s outcome is decided (durable, rolled
  /// back, or the pipeline stopped/died). Wait-loop predicate.
  bool DurabilitySettledLocked(uint64_t epoch) const REQUIRES(gc_mu_);

  /// One group commit cycle: brief exclusive-latch checkpoint, then
  /// flush + journal commit + re-arm off the latch. Takes commit_mu_.
  Status CommitGroup();

  /// Rolls the whole armed group back (disk via AbortBatch, memory via
  /// ReloadLocked from the last durable master), fails pending
  /// durability waiters with `cause`, and re-arms the journal. Caller
  /// holds commit_mu_ and the exclusive latch. Returns `cause` on a
  /// successful rollback, Corruption if the rollback itself failed
  /// (group mode is then disabled; the intact journal still recovers
  /// the file on the next open).
  Status RollbackGroupLocked(const Status& cause)
      REQUIRES(commit_mu_, latch_);

  void LatchExclusive() ACQUIRE(latch_);
  void UnlatchExclusive() RELEASE(latch_);

  /// Checked scoped writer section: the exclusive latch plus this
  /// batch's VersioningScope (the first mutation of any page saves its
  /// pre-batch image tagged with the current, pre-bump epoch). The
  /// stamp is re-armed per section; the keep-first rule in PageVersions
  /// makes a checkpoint sharing the stamp harmless. Unlock() releases
  /// early — ApplyBatch drops the latch before blocking on durability.
  class SCOPED_CAPABILITY WriterSection {
   public:
    explicit WriterSection(SpatialIndex* ix) ACQUIRE(ix->latch_)
        : ix_(ix) {
      ix_->LatchExclusive();
      versioning_.emplace(&ix_->versions_, ix_->write_epoch() + 1);
    }
    ~WriterSection() RELEASE() {
      if (ix_ != nullptr) {
        versioning_.reset();
        ix_->UnlatchExclusive();
      }
    }
    void Unlock() RELEASE() {
      versioning_.reset();
      ix_->UnlatchExclusive();
      ix_ = nullptr;
    }
    WriterSection(const WriterSection&) = delete;
    WriterSection& operator=(const WriterSection&) = delete;

   private:
    SpatialIndex* ix_;
    std::optional<VersioningScope> versioning_;
  };

  /// Builds the probe/scan work list for a grid query rect (the shared
  /// planning step of the filter stage). Defined in query.cc.
  WindowPlan BuildWindowPlan(const GridRect& qgrid) const
      REQUIRES_SHARED(latch_);

  /// Executes plan work items [begin, end) through a fresh CandidateSink:
  /// entries whose element misses plan.qgrid are skipped; in
  /// store_mbr_in_leaf mode the leaf MBR is tested with `leaf_pred`;
  /// otherwise, with `certain_hits`, ids whose element lies inside the
  /// window's interior cells carry kCertainHitMark. Defined in query.cc.
  Result<std::vector<ObjectId>> ExecutePlanSlice(
      const WindowPlan& plan, size_t begin, size_t end,
      const std::function<bool(const Rect&)>* leaf_pred, bool certain_hits,
      QueryStats* stats) REQUIRES_SHARED(latch_);

  /// The whole plan of `qgrid` through ExecutePlanSlice, without certain
  /// marks (containment and enclosure). Defined in query.cc.
  Result<std::vector<ObjectId>> CollectCandidatesFiltered(
      const GridRect& qgrid,
      const std::function<bool(const Rect&)>* leaf_pred, QueryStats* stats)
      REQUIRES_SHARED(latch_);

  /// The bodies of PlanWindow and ExecuteWindowPlanSlice, shared with
  /// WindowQueryLocked (which refines through RefineWindowCandidates)
  /// and the kNN rounds. WindowSliceLocked marks certain hits when
  /// `certain_hits` is set and the pinned state holds no polygon; kNN
  /// passes false, as it fetches every record for its distance. Defined
  /// in query.cc.
  Result<WindowPlan> PlanWindowLocked(const Rect& window) const
      REQUIRES_SHARED(latch_);
  Result<std::vector<ObjectId>> WindowSliceLocked(const WindowPlan& plan,
                                                  size_t begin, size_t end,
                                                  bool certain_hits,
                                                  QueryStats* stats)
      REQUIRES_SHARED(latch_);

  /// One kNN round: the objects meeting `window`, each with its exact
  /// distance to `p`, every record fetched once (by refinement).
  Result<std::vector<std::pair<ObjectId, double>>> WindowDistancesLocked(
      const Rect& window, const Point& p, QueryStats* stats)
      REQUIRES_SHARED(latch_);

  /// Candidates for a point (ancestor probes only). Defined in query.cc.
  Result<std::vector<ObjectId>> CollectPointCandidatesFiltered(
      GridCoord gx, GridCoord gy,
      const std::function<bool(const Rect&)>* leaf_pred, QueryStats* stats)
      REQUIRES_SHARED(latch_);

  /// Refinement driver shared by the public queries. An id marked with
  /// kCertainHitMark is a result without a fetch (reported bare); every
  /// other candidate's record is fetched and passed to the predicate,
  /// which may fetch exact geometry.
  template <typename Predicate>
  Result<std::vector<ObjectId>> Refine(std::vector<ObjectId> candidates,
                                       Predicate pred, QueryStats* stats);

  /// Exact-geometry test of one record against a window (intersection).
  Result<bool> RecordIntersects(const ObjectRecord& rec, const Rect& window);

  BufferPool* pool_;
  SpatialIndexOptions options_;
  SpaceMapper mapper_;
  // The handles are set once at construction/Open and the pointees do
  // their own page-level synchronization under this index's latch; the
  // pointers themselves are never reseated concurrently (ReloadLocked
  // reseats them under commit_mu_ + exclusive latch).
  std::unique_ptr<BTree> btree_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<PolygonStore> polys_;
  IndexBuildStats build_stats_ GUARDED_BY(latch_);
  uint64_t level_mask_ GUARDED_BY(latch_) = 0;
  /// Relaxed atomic so object_count() stays readable from monitor
  /// threads without a latch; writers mutate it under the exclusive
  /// latch.
  std::atomic<uint64_t> live_objects_{0};

  /// Writer latch: mutations hold it exclusive — batch-granular writer
  /// sections over the B+-tree, the stores and the index metadata.
  /// Readers never acquire it; SnapshotSection claims it shared for the
  /// analysis only.
  mutable SharedMutex latch_ ACQUIRED_AFTER(commit_mu_);
  std::atomic<uint64_t> write_epoch_{0};
  /// Group rollbacks run; bumped under commit_mu_ and the exclusive
  /// latch (see rollback_count()).
  std::atomic<uint64_t> rollbacks_{0};

  /// This index's before-image version chains (its epochs tag the
  /// entries), and the pin accounting, per-epoch snapshot metas and
  /// version GC thread that reclaims them. Both live as long as the
  /// index; the manager is declared second so it stops first.
  PageVersions versions_;
  std::unique_ptr<EpochManager> epoch_mgr_;

  /// Reload quiesce barrier (see BeginSnapshotQuiesce). snap_mu_ is a
  /// leaf lock on the reader side; ReloadLocked takes it while holding
  /// commit_mu_ + the exclusive latch, extending the lock order to
  /// commit_mu_ -> latch_ -> snap_mu_.
  mutable Mutex snap_mu_ ACQUIRED_AFTER(commit_mu_);
  mutable CondVar snap_cv_;
  mutable uint32_t snap_active_ GUARDED_BY(snap_mu_) = 0;
  bool snap_barrier_ GUARDED_BY(snap_mu_) = false;

  /// Commit pipeline mutex: every mutator takes it *before* latch_
  /// (lock order: commit_mu_ → latch_ → gc_mu_), and the durability
  /// thread holds it — without the latch — across checkpoint, flush and
  /// journal commit. Readers never touch it, so the fsync window cannot
  /// stall the query path; writers queue on it instead of on the
  /// reader-visible latch.
  Mutex commit_mu_;
  /// Pipeline on/off. Written under commit_mu_; atomic so
  /// group_commit_active() is latch-free.
  std::atomic<bool> gc_active_{false};
  /// Master page of the last *durable* group boundary — the rollback
  /// target.
  PageId gc_master_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  /// Started under commit_mu_ (StartGroupCommit), joined by
  /// StopGroupCommit before it takes commit_mu_ — never touched
  /// concurrently, so deliberately unguarded.
  std::thread gc_thread_;

  /// Epoch bookkeeping shared with the durability thread and waiters.
  /// gc_mu_ is a leaf lock (acquired after commit_mu_/latch_, never
  /// held across I/O).
  mutable Mutex gc_mu_ ACQUIRED_AFTER(commit_mu_);
  CondVar gc_cv_;             ///< wakes the thread
  mutable CondVar gc_done_cv_;  ///< wakes waiters
  bool gc_stop_ GUARDED_BY(gc_mu_) = false;  ///< drain and exit
  bool gc_dead_ GUARDED_BY(gc_mu_) = false;  ///< pipeline broke
  bool gc_paused_ GUARDED_BY(gc_mu_) = false;   ///< test hook
  bool gc_running_ GUARDED_BY(gc_mu_) = false;  ///< thread alive
  uint64_t gc_published_ GUARDED_BY(gc_mu_) = 0;  ///< highest published
  uint64_t gc_durable_ GUARDED_BY(gc_mu_) = 0;    ///< durable watermark
  /// Epochs (lo, hi] rolled back by a failed group, with the cause;
  /// append-only (failures are rare), consulted by WaitDurable.
  struct FailedEpochs {
    uint64_t lo;
    uint64_t hi;
    Status status;
  };
  std::vector<FailedEpochs> gc_failed_ GUARDED_BY(gc_mu_);

  // Persistence bookkeeping (see core/persist.cc). Written by
  // checkpoint/reload/rollback, which all hold commit_mu_ (plus the
  // exclusive latch); read by the commit pipeline under commit_mu_
  // alone.
  PageId master_page_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  PageId obj_dir_chain_ GUARDED_BY(commit_mu_) = kInvalidPageId;
  PageId poly_dir_chain_ GUARDED_BY(commit_mu_) = kInvalidPageId;
};

/// Spatial join: all pairs (a-object, b-object) with intersecting MBRs,
/// computed by a synchronized z-order merge of the two indexes' entry
/// streams with enclosure stacks (Orenstein's merge algorithm).
Result<std::vector<std::pair<ObjectId, ObjectId>>> SpatialJoin(
    SpatialIndex* a, SpatialIndex* b, JoinStats* stats = nullptr);

}  // namespace zdb

#endif  // ZDB_CORE_SPATIAL_INDEX_H_
