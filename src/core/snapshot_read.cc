// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The SpatialIndex half of epoch-based snapshot reads: starting the
// version GC, pinning epochs, opening per-thread snapshot scopes and the
// pinned (*At) query variants. The version chains live in
// storage/snapshot.{h,cc}; pin accounting and the reclamation thread in
// core/epoch.{h,cc}. See DESIGN.md "Snapshot reads & epoch GC" for the
// full safety argument.

#include "core/spatial_index.h"

#include <string>

namespace zdb {

void SpatialIndex::StartSnapshotsLocked() {
  // The current state is the first pinned-readable epoch: a pin taken
  // right after Create()/Open() returns must find its meta.
  epoch_mgr_->RecordMeta(write_epoch(), CaptureMetaLocked());
  epoch_mgr_->StartGc();
}

EpochPin SpatialIndex::PinEpoch() const { return epoch_mgr_->Pin(); }

Status SpatialIndex::CheckSnapshotScope(const char* hook) const {
  if (SnapshotView::FindOwner(this) == nullptr) {
    return Status::InvalidArgument(
        std::string(hook) +
        " needs a SnapshotReadScope of this index (OpenSnapshot)");
  }
  return Status::OK();
}

SnapshotMeta SpatialIndex::CaptureMetaLocked() const {
  SnapshotMeta m;
  m.btree_root = btree_->root();
  m.btree_height = btree_->height();
  m.obj_next_oid = store_->size();
  m.obj_pages = store_->pages();
  m.poly_pages = polys_->pages();
  m.level_mask = level_mask_;
  m.live_objects = live_objects_.load(std::memory_order_relaxed);
  return m;
}

SnapshotView SpatialIndex::MakeView(
    uint64_t epoch, std::shared_ptr<const SnapshotMeta> meta) const {
  SnapshotView v;
  v.epoch = epoch;
  v.versions = &versions_;
  v.owner = this;
  v.btree = btree_.get();
  v.objects = store_.get();
  v.polygons = polys_.get();
  v.meta = std::move(meta);
  return v;
}

Result<std::shared_ptr<const SnapshotMeta>> SpatialIndex::PinnedMeta(
    const EpochPin& pin) const {
  return epoch_mgr_->MetaAt(pin.epoch());
}

// ------------------------------------------------ reload quiesce barrier

void SpatialIndex::EnterSnapshotRead() const {
  MutexLock lock(snap_mu_);
  while (snap_barrier_) snap_cv_.Wait(snap_mu_);
  ++snap_active_;
}

void SpatialIndex::LeaveSnapshotRead() const {
  MutexLock lock(snap_mu_);
  if (--snap_active_ == 0 && snap_barrier_) snap_cv_.NotifyAll();
}

void SpatialIndex::BeginSnapshotQuiesce() {
  MutexLock lock(snap_mu_);
  snap_barrier_ = true;
  while (snap_active_ != 0) snap_cv_.Wait(snap_mu_);
}

void SpatialIndex::EndSnapshotQuiesce() {
  MutexLock lock(snap_mu_);
  snap_barrier_ = false;
  snap_cv_.NotifyAll();
}

// -------------------------------------------------- SnapshotReadScope

SpatialIndex::SnapshotReadScope::SnapshotReadScope(
    const SpatialIndex* ix, uint64_t epoch,
    std::shared_ptr<const SnapshotMeta> meta)
    : ix_(ix), epoch_(epoch) {
  ix_->EnterSnapshotRead();
  // The component handles (btree_/store_/polys_) are only reseated by
  // ReloadLocked, which waits behind the barrier this thread is now
  // counted under — reading them without the latch is race-free.
  scope_.emplace(ix_->MakeView(epoch_, std::move(meta)));
}

SpatialIndex::SnapshotReadScope::~SnapshotReadScope() {
  scope_.reset();
  ix_->LeaveSnapshotRead();
}

Result<std::unique_ptr<SpatialIndex::SnapshotReadScope>>
SpatialIndex::OpenSnapshot(const EpochPin& pin) const {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  return std::unique_ptr<SnapshotReadScope>(
      new SnapshotReadScope(this, pin.epoch(), std::move(meta)));
}

// ----------------------------------------------------- pinned queries

Result<std::vector<ObjectId>> SpatialIndex::WindowQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  SnapshotReadScope scope(this, pin.epoch(), std::move(meta));
  SnapshotSection section(this);
  return WindowQueryLocked(window, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::PointQueryAt(
    const EpochPin& pin, const Point& p, QueryStats* stats) {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  SnapshotReadScope scope(this, pin.epoch(), std::move(meta));
  SnapshotSection section(this);
  return PointQueryLocked(p, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::ContainmentQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  SnapshotReadScope scope(this, pin.epoch(), std::move(meta));
  SnapshotSection section(this);
  return ContainmentQueryLocked(window, stats);
}

Result<std::vector<ObjectId>> SpatialIndex::EnclosureQueryAt(
    const EpochPin& pin, const Rect& window, QueryStats* stats) {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  SnapshotReadScope scope(this, pin.epoch(), std::move(meta));
  SnapshotSection section(this);
  return EnclosureQueryLocked(window, stats);
}

Result<std::vector<std::pair<ObjectId, double>>>
SpatialIndex::NearestNeighborsAt(const EpochPin& pin, const Point& p,
                                 size_t k, QueryStats* stats,
                                 uint32_t* rounds) {
  std::shared_ptr<const SnapshotMeta> meta;
  ZDB_ASSIGN_OR_RETURN(meta, PinnedMeta(pin));
  SnapshotReadScope scope(this, pin.epoch(), std::move(meta));
  SnapshotSection section(this);
  return NearestNeighborsLocked(p, k, stats, rounds);
}

// --------------------------------------------------------------- stats

EpochStats SpatialIndex::epoch_stats() const { return epoch_mgr_->stats(); }

PageVersionStats SpatialIndex::version_stats() const {
  return versions_.stats();
}

// ---------------------------------------------- view-aware index state

uint64_t SpatialIndex::EffectiveLevelMask() const {
  if (const SnapshotView* v = SnapshotView::FindOwner(this)) {
    return v->meta->level_mask;
  }
  return level_mask_;
}

uint64_t SpatialIndex::EffectiveLiveObjects() const {
  if (const SnapshotView* v = SnapshotView::FindOwner(this)) {
    return v->meta->live_objects;
  }
  return live_objects_.load(std::memory_order_relaxed);
}

}  // namespace zdb
