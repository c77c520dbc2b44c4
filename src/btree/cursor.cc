// Copyright (c) zdb authors. Licensed under the MIT license.

#include "btree/cursor.h"

namespace zdb {

Status Cursor::PositionAt(Node leaf, uint16_t idx) {
  node_.emplace(std::move(leaf));
  idx_ = idx;
  return SkipEmptyForward();
}

Status Cursor::SkipEmptyForward() {
  while (node_ && idx_ >= node_->count()) {
    const PageId next = node_->next();
    node_.reset();
    if (next == kInvalidPageId) break;
    PageRef ref;
    ZDB_ASSIGN_OR_RETURN(ref, pool_->FetchAt(view_, next));
    node_.emplace(std::move(ref), page_size_);
    idx_ = 0;
  }
  return Status::OK();
}

Status Cursor::Next() {
  if (!Valid()) return Status::InvalidArgument("Next() on invalid cursor");
  ++idx_;
  return SkipEmptyForward();
}

}  // namespace zdb
