// Copyright (c) zdb authors. Licensed under the MIT license.

#include "core/object_store.h"

namespace zdb {

ObjectStore::ObjectStore(BufferPool* pool) : pool_(pool) {
  per_page_ = pool_->pager()->page_size() /
              static_cast<uint32_t>(ObjectRecord::kEncodedSize);
}

Result<ObjectId> ObjectStore::Insert(const Rect& mbr, uint32_t payload) {
  const ObjectId oid = next_oid_;
  if (oid >= kObjectIdLimit) {
    return Status::NoSpace("object id space exhausted (2^31 ids)");
  }
  const uint32_t page_idx = oid / per_page_;
  const uint32_t slot = oid % per_page_;

  PageRef ref;
  if (page_idx == pages_.size()) {
    ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
    pages_.push_back(ref.id());
  } else {
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_[page_idx]));
  }

  ObjectRecord rec;
  rec.mbr = mbr;
  rec.payload = payload;
  rec.live = 1;
  rec.EncodeTo(ref.mutable_data() + slot * ObjectRecord::kEncodedSize);
  ++next_oid_;
  return oid;
}

Status ObjectStore::InsertAt(ObjectId oid, const Rect& mbr,
                             uint32_t payload) {
  if (oid >= kObjectIdLimit) {
    return Status::InvalidArgument("object id out of range (>= 2^31)");
  }
  const uint32_t page_idx = oid / per_page_;
  const uint32_t slot = oid % per_page_;
  if (page_idx >= pages_.size()) pages_.resize(page_idx + 1, kInvalidPageId);

  PageRef ref;
  if (pages_[page_idx] == kInvalidPageId) {
    ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
    pages_[page_idx] = ref.id();
  } else {
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_[page_idx]));
  }

  ObjectRecord rec =
      ObjectRecord::DecodeFrom(ref.data() + slot * ObjectRecord::kEncodedSize);
  if (oid < next_oid_ && rec.live) {
    return Status::InvalidArgument("preassigned oid already live");
  }
  rec = ObjectRecord();
  rec.mbr = mbr;
  rec.payload = payload;
  rec.live = 1;
  rec.EncodeTo(ref.mutable_data() + slot * ObjectRecord::kEncodedSize);
  if (oid >= next_oid_) next_oid_ = oid + 1;
  return Status::OK();
}

Result<ObjectRecord> ObjectStore::Fetch(ObjectId oid) {
  // Under an installed snapshot view, resolve through the pinned meta:
  // the live directory/append cursor may already describe later epochs.
  // The page fetch below then resolves at the view's epoch.
  const SnapshotView* v = SnapshotView::FindObjects(this);
  const uint32_t next_oid = v != nullptr ? v->meta->obj_next_oid : next_oid_;
  const std::vector<PageId>& pages =
      v != nullptr ? v->meta->obj_pages : pages_;
  if (oid >= next_oid) return Status::NotFound("oid out of range");
  const uint32_t page_idx = oid / per_page_;
  const uint32_t slot = oid % per_page_;
  if (pages[page_idx] == kInvalidPageId) {
    return Status::NotFound("oid in unallocated page");
  }
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->FetchAt(v, pages[page_idx]));
  return ObjectRecord::DecodeFrom(ref.data() +
                                  slot * ObjectRecord::kEncodedSize);
}

Status ObjectStore::Rewrite(ObjectId oid, const ObjectRecord& rec) {
  if (oid >= next_oid_) return Status::NotFound("oid out of range");
  const uint32_t page_idx = oid / per_page_;
  const uint32_t slot = oid % per_page_;
  if (pages_[page_idx] == kInvalidPageId) {
    return Status::NotFound("oid in unallocated page");
  }
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_[page_idx]));
  rec.EncodeTo(ref.mutable_data() + slot * ObjectRecord::kEncodedSize);
  return Status::OK();
}

Status ObjectStore::Erase(ObjectId oid) {
  if (oid >= next_oid_) return Status::NotFound("oid out of range");
  const uint32_t page_idx = oid / per_page_;
  const uint32_t slot = oid % per_page_;
  if (pages_[page_idx] == kInvalidPageId) {
    return Status::NotFound("oid in unallocated page");
  }
  PageRef ref;
  ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_[page_idx]));
  ObjectRecord rec = ObjectRecord::DecodeFrom(
      ref.data() + slot * ObjectRecord::kEncodedSize);
  if (!rec.live) return Status::NotFound("object already erased");
  rec.live = 0;
  rec.EncodeTo(ref.mutable_data() + slot * ObjectRecord::kEncodedSize);
  return Status::OK();
}

}  // namespace zdb
