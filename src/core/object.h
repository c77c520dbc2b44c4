// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Object records and their on-page codec. The object store is the "data
// file" of the 1989 setup: the refinement step of filter-and-refine must
// fetch the object's exact geometry from here, so false hits cost real
// page accesses — the cost redundancy exists to avoid.

#ifndef ZDB_CORE_OBJECT_H_
#define ZDB_CORE_OBJECT_H_

#include <cstdint>
#include <cstring>

#include "geom/rect.h"
#include "zorder/zkey.h"

namespace zdb {

/// Object ids stay below 2^31. The top bit of an ObjectId is reserved:
/// the window filter sets it on a candidate id that is a certain hit
/// (see SpatialIndex::ExecuteWindowPlanSlice), so no stored object may
/// carry it. The object store and the shard router reject larger ids.
inline constexpr ObjectId kCertainHitMark = 0x80000000u;
inline constexpr ObjectId kObjectIdLimit = kCertainHitMark;

/// What an object record's geometry is. Rectangles are self-contained
/// (the MBR *is* the geometry); polygons keep their exact ring in the
/// polygon store, referenced by `payload`.
enum class ObjectKind : uint8_t { kRect = 0, kPolygon = 1 };

/// Fixed-size object record: exact MBR, kind, payload, liveness.
/// 40 bytes on page. For kind == kPolygon, `payload` is the PolyRef of
/// the exact ring in the PolygonStore; for rectangles it is free for the
/// application.
struct ObjectRecord {
  Rect mbr;
  uint32_t payload = 0;
  ObjectKind kind = ObjectKind::kRect;
  uint8_t live = 0;

  static constexpr size_t kEncodedSize = 40;

  void EncodeTo(char* dst) const {
    std::memcpy(dst, &mbr.xlo, 8);
    std::memcpy(dst + 8, &mbr.ylo, 8);
    std::memcpy(dst + 16, &mbr.xhi, 8);
    std::memcpy(dst + 24, &mbr.yhi, 8);
    std::memcpy(dst + 32, &payload, 4);
    dst[36] = static_cast<char>(live);
    dst[37] = static_cast<char>(kind);
    dst[38] = dst[39] = 0;
  }

  static ObjectRecord DecodeFrom(const char* src) {
    ObjectRecord r;
    std::memcpy(&r.mbr.xlo, src, 8);
    std::memcpy(&r.mbr.ylo, src + 8, 8);
    std::memcpy(&r.mbr.xhi, src + 16, 8);
    std::memcpy(&r.mbr.yhi, src + 24, 8);
    std::memcpy(&r.payload, src + 32, 4);
    r.live = static_cast<uint8_t>(src[36]);
    r.kind = static_cast<ObjectKind>(src[37]);
    return r;
  }
};

/// Compact MBR codec for the optional store-MBR-in-leaf mode (ablation).
inline constexpr size_t kEncodedRectSize = 32;

inline void EncodeRect(const Rect& r, char* dst) {
  std::memcpy(dst, &r.xlo, 8);
  std::memcpy(dst + 8, &r.ylo, 8);
  std::memcpy(dst + 16, &r.xhi, 8);
  std::memcpy(dst + 24, &r.yhi, 8);
}

inline Rect DecodeRect(const char* src) {
  Rect r;
  std::memcpy(&r.xlo, src, 8);
  std::memcpy(&r.ylo, src + 8, 8);
  std::memcpy(&r.xhi, src + 16, 8);
  std::memcpy(&r.yhi, src + 24, 8);
  return r;
}

}  // namespace zdb

#endif  // ZDB_CORE_OBJECT_H_
