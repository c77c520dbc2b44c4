// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Bulk loading: decompose everything, sort the entry keys once, and
// build the B+-tree bottom-up. The paper's incremental-insert cost grows
// with redundancy (E6); bulk loading pays the redundancy once in a sort
// instead of k random descents per object (ablation A5).

#include <algorithm>

#include "core/spatial_index.h"
#include "zorder/zkey.h"

namespace zdb {

Status SpatialIndex::BulkLoad(const std::vector<Rect>& data, double fill,
                              const std::vector<ObjectId>* oids,
                              PublishPoint* published) {
  MutexLock commit(commit_mu_);
  WriterSection lock(this);
  if (btree_->size() != 0 || store_->size() != 0) {
    return Status::InvalidArgument("bulk load into non-empty index");
  }
  if (oids != nullptr) {
    for (ObjectId oid : *oids) {
      if (oid >= data.size()) {
        return Status::InvalidArgument("bulk load oid outside the data");
      }
    }
  }
  bool mutated = false;
  Status st = BulkLoadLocked(data, fill, oids, &mutated);
  if (st.ok()) {
    PublishWrite(published);
    NotifyPublished();
  } else if (gc_active_ && mutated) {
    // A failure after the first store append may have left a partial
    // load in memory; recover at the last durable group boundary.
    return RollbackGroupLocked(st);
  }
  return st;
}

Status SpatialIndex::BulkLoadLocked(const std::vector<Rect>& data,
                                    double fill,
                                    const std::vector<ObjectId>* oids,
                                    bool* mutated) {
  std::string value;
  if (options_.store_mbr_in_leaf) value.resize(kEncodedRectSize);

  struct Entry {
    std::string key;
    std::string value;
  };
  const size_t count = oids == nullptr ? data.size() : oids->size();
  std::vector<Entry> entries;
  entries.reserve(count * 2);

  for (size_t n = 0; n < count; ++n) {
    const Rect& mbr = oids == nullptr ? data[n] : data[(*oids)[n]];
    if (!mbr.valid()) return Status::InvalidArgument("invalid MBR");
    *mutated = true;
    ObjectId oid;
    if (oids == nullptr) {
      ZDB_ASSIGN_OR_RETURN(oid, store_->Insert(mbr));
    } else {
      oid = (*oids)[n];
      ZDB_RETURN_IF_ERROR(store_->InsertAt(oid, mbr));
    }
    const Decomposition decomp =
        Decompose(mapper_.ToGrid(mbr), options_.grid_bits, options_.data);
    if (options_.store_mbr_in_leaf) EncodeRect(mbr, value.data());
    for (const ZElement& elem : decomp.elements) {
      entries.push_back({EncodeZKey(elem, oid), value});
      level_mask_ |= 1ULL << elem.level;
    }
    ++build_stats_.objects;
    build_stats_.index_entries += decomp.elements.size();
    build_stats_.total_error += decomp.error();
    ++live_objects_;
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  size_t i = 0;
  return btree_->BulkLoad(
      [&](std::string* key, std::string* val) {
        if (i >= entries.size()) return false;
        *key = entries[i].key;
        *val = entries[i].value;
        ++i;
        return true;
      },
      fill);
}

}  // namespace zdb
