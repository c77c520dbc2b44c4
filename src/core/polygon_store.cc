// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Page layout:
//   0  u16  slot count
//   2  u16  data start (lowest used byte; records grow down)
//   4  u16  slot offsets [count] (grow up)
// Record: u16 vertex count | vertices as pairs of f64.

#include "core/polygon_store.h"

#include <cstring>

#include "common/coding.h"

namespace zdb {

namespace {
constexpr size_t kHeaderSize = 4;

size_t RecordSize(size_t nverts) { return 2 + nverts * 16; }
}  // namespace

PolygonStore::PolygonStore(BufferPool* pool)
    : pool_(pool), page_size_(pool->pager()->page_size()) {
  // Header + one slot + the record itself must fit.
  max_vertices_ =
      static_cast<uint32_t>((page_size_ - kHeaderSize - 2 - 2) / 16);
}

Result<PolyRef> PolygonStore::Insert(const Polygon& poly) {
  const size_t nverts = poly.size();
  if (nverts == 0) return Status::InvalidArgument("empty polygon");
  if (nverts > max_vertices_) {
    return Status::InvalidArgument(
        "polygon too large for page size: " + std::to_string(nverts) +
        " vertices > " + std::to_string(max_vertices_));
  }
  const size_t need = RecordSize(nverts) + 2;  // record + slot

  // Try the last page; open a new one if it cannot take the record.
  PageRef ref;
  uint32_t page_idx;
  bool fresh = false;
  if (!pages_.empty()) {
    page_idx = static_cast<uint32_t>(pages_.size() - 1);
    ZDB_ASSIGN_OR_RETURN(ref, pool_->Fetch(pages_.back()));
    const uint16_t count = DecodeFixed16(ref.data());
    const uint16_t data_start = DecodeFixed16(ref.data() + 2);
    const size_t free_bytes = data_start - (kHeaderSize + 2 * count);
    if (count >= kMaxSlots || free_bytes < need) fresh = true;
  } else {
    fresh = true;
    page_idx = 0;
  }
  if (fresh) {
    ZDB_ASSIGN_OR_RETURN(ref, pool_->New());
    char* p = ref.mutable_data();
    EncodeFixed16(p, 0);
    EncodeFixed16(p + 2, static_cast<uint16_t>(page_size_));
    pages_.push_back(ref.id());
    page_idx = static_cast<uint32_t>(pages_.size() - 1);
  }

  char* p = ref.mutable_data();
  const uint16_t count = DecodeFixed16(p);
  const uint16_t data_start = DecodeFixed16(p + 2);
  const uint16_t rec_off =
      static_cast<uint16_t>(data_start - RecordSize(nverts));
  EncodeFixed16(p + rec_off, static_cast<uint16_t>(nverts));
  char* vp = p + rec_off + 2;
  for (const Point& v : poly.vertices()) {
    std::memcpy(vp, &v.x, 8);
    std::memcpy(vp + 8, &v.y, 8);
    vp += 16;
  }
  EncodeFixed16(p + kHeaderSize + 2 * count, rec_off);
  EncodeFixed16(p, static_cast<uint16_t>(count + 1));
  EncodeFixed16(p + 2, rec_off);
  return (page_idx << kSlotBits) | count;
}

Result<Polygon> PolygonStore::Fetch(PolyRef ref) {
  // Snapshot reads resolve the page directory through the pinned meta
  // (see ObjectStore::Fetch); page bytes then resolve at its epoch.
  const SnapshotView* v = SnapshotView::FindPolygons(this);
  const std::vector<PageId>& pages =
      v != nullptr ? v->meta->poly_pages : pages_;
  const uint32_t page_idx = ref >> kSlotBits;
  const uint32_t slot = ref & (kMaxSlots - 1);
  if (page_idx >= pages.size()) {
    return Status::NotFound("polygon page out of range");
  }
  PageRef page;
  ZDB_ASSIGN_OR_RETURN(page, pool_->FetchAt(v, pages[page_idx]));
  const char* p = page.data();
  const uint16_t count = DecodeFixed16(p);
  if (slot >= count) return Status::NotFound("polygon slot out of range");
  const uint16_t rec_off = DecodeFixed16(p + kHeaderSize + 2 * slot);
  const uint16_t nverts = DecodeFixed16(p + rec_off);
  std::vector<Point> ring(nverts);
  const char* vp = p + rec_off + 2;
  for (uint16_t i = 0; i < nverts; ++i) {
    std::memcpy(&ring[i].x, vp, 8);
    std::memcpy(&ring[i].y, vp + 8, 8);
    vp += 16;
  }
  return Polygon(std::move(ring));
}

}  // namespace zdb
