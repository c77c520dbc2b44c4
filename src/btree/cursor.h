// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Forward cursor over B+-tree entries in key order. Obtained from
// BTree::Seek(); walks leaves via the right-sibling chain. A cursor pins
// exactly one leaf page at a time, is invalidated by any tree mutation,
// and must not outlive its tree.

#ifndef ZDB_BTREE_CURSOR_H_
#define ZDB_BTREE_CURSOR_H_

#include <optional>

#include "btree/node.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace zdb {

class Cursor {
 public:
  /// `view` is the snapshot view the cursor's pages resolve under
  /// (BufferPool::FetchAt), or nullptr for live reads; it must outlive
  /// the cursor.
  Cursor(BufferPool* pool, uint32_t page_size,
         const SnapshotView* view = nullptr)
      : pool_(pool), page_size_(page_size), view_(view) {}

  Cursor(Cursor&&) = default;
  Cursor& operator=(Cursor&&) = default;

  /// True while positioned on an entry.
  bool Valid() const { return node_.has_value(); }

  /// Key of the current entry. Valid until the next Next()/destruction.
  Slice key() const { return node_->Key(idx_); }

  /// Value of the current entry.
  Slice value() const { return node_->Value(idx_); }

  /// Advances to the next entry in key order; cursor becomes invalid past
  /// the last entry.
  Status Next();

  /// Positions the cursor inside `leaf` at slot `idx`, skipping forward
  /// through the leaf chain if idx is one-past-the-end. Internal API used
  /// by BTree::Seek.
  Status PositionAt(Node leaf, uint16_t idx);

 private:
  Status SkipEmptyForward();

  BufferPool* pool_;
  uint32_t page_size_;
  const SnapshotView* view_;
  std::optional<Node> node_;
  uint16_t idx_ = 0;
};

}  // namespace zdb

#endif  // ZDB_BTREE_CURSOR_H_
