#include "pgstub/heap_table.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/check.h"

namespace vecdb::pgstub {

Result<HeapTable> HeapTable::Create(BufferManager* bufmgr,
                                    StorageManager* smgr,
                                    const std::string& name, uint32_t dim,
                                    uint32_t num_attrs) {
  if (dim == 0) return Status::InvalidArgument("HeapTable: dim == 0");
  VECDB_ASSIGN_OR_RETURN(RelId rel, smgr->CreateRelation(name));
  HeapTable table(bufmgr, smgr, rel, dim, num_attrs);
  const uint32_t tuple = table.tuple_size();
  // A tuple must fit on one page (no TOAST in this substrate); AddItem
  // MAXALIGNs the item start, so budget up to 7 padding bytes.
  if (((tuple + 7u) & ~7u) + sizeof(PageView::Header) + sizeof(ItemId) >
      smgr->page_size()) {
    return Status::InvalidArgument(
        "HeapTable: tuple of dim " + std::to_string(dim) + " with " +
        std::to_string(num_attrs) + " attrs does not fit in a " +
        std::to_string(smgr->page_size()) + "-byte page");
  }
  return table;
}

Result<HeapTable> HeapTable::Attach(BufferManager* bufmgr,
                                    StorageManager* smgr,
                                    const std::string& name, uint32_t dim,
                                    uint32_t num_attrs) {
  if (dim == 0) return Status::InvalidArgument("HeapTable: dim == 0");
  VECDB_ASSIGN_OR_RETURN(RelId rel, smgr->FindRelation(name));
  HeapTable table(bufmgr, smgr, rel, dim, num_attrs);
  VECDB_ASSIGN_OR_RETURN(BlockId num_blocks, smgr->NumBlocks(rel));
  if (num_blocks > 0) table.last_block_ = num_blocks - 1;
  // Crash repair: a kill during file extension can leave a zeroed (never
  // initialized) tail page. Left alone it would make Insert skip to a
  // fresh block, breaking the dense row layout that snapshot-bounded
  // prefix scans rely on (row r at block r / rows_per_page()). Such a
  // page holds no acknowledged data — acked pages are covered by replayed
  // WAL images — so re-initialize it in place.
  for (BlockId block = 0; block < num_blocks; ++block) {
    VECDB_ASSIGN_OR_RETURN(BufferHandle handle, bufmgr->Pin(rel, block));
    PageView page(handle.data, bufmgr->page_size());
    const bool torn = !page.Check().ok();
    if (torn) page.Init(/*special_size=*/0);
    bufmgr->Unpin(handle, /*dirty=*/torn);
  }
  size_t rows = 0;
  VECDB_RETURN_NOT_OK(table.SeqScan([&rows](TupleId, int64_t, const float*) {
    ++rows;
    return true;
  }));
  table.num_rows_ = rows;
  return table;
}

Result<TupleId> HeapTable::Insert(int64_t row_id, const float* vec,
                                  const int64_t* attrs) {
  if (vec == nullptr) return Status::InvalidArgument("HeapTable: null vec");
  if (num_attrs_ > 0 && attrs == nullptr) {
    return Status::InvalidArgument("HeapTable: missing attribute values");
  }
  std::vector<char> tuple(tuple_size(), 0);
  auto* header = reinterpret_cast<HeapTupleHeader*>(tuple.data());
  header->row_id = row_id;
  header->dim = dim_;
  header->num_attrs = num_attrs_;
  std::memcpy(tuple.data() + sizeof(HeapTupleHeader), vec,
              dim_ * sizeof(float));
  if (num_attrs_ > 0) {
    std::memcpy(tuple.data() + attr_offset(), attrs,
                num_attrs_ * sizeof(int64_t));
  }

  // Try the current tail page first; extend on overflow.
  const uint16_t len = static_cast<uint16_t>(tuple.size());
  BlockId block = last_block_;
  BufferHandle handle;
  OffsetNumber slot = kInvalidOffset;
  PageView::Header before{};
  if (block != kInvalidBlock) {
    VECDB_ASSIGN_OR_RETURN(handle, bufmgr_->Pin(rel_, block));
    std::memcpy(&before, handle.data, sizeof(before));
    slot = PageView(handle.data, bufmgr_->page_size())
               .AddItem(tuple.data(), len);
    if (slot == kInvalidOffset) bufmgr_->Unpin(handle, /*dirty=*/false);
  }
  const bool fresh = slot == kInvalidOffset;
  if (fresh) {
    VECDB_ASSIGN_OR_RETURN(auto extended, bufmgr_->NewPage(rel_));
    std::tie(block, handle) = extended;
    // The new page is the tail even if this insert fails, so rows stay
    // dense (row r at block r / rows_per_page()).
    last_block_ = block;
    PageView view(handle.data, bufmgr_->page_size());
    view.Init(/*special_size=*/0);
    std::memcpy(&before, handle.data, sizeof(before));
    slot = view.AddItem(tuple.data(), len);
    if (slot == kInvalidOffset) {
      bufmgr_->Unpin(handle, /*dirty=*/true);
      return Status::Internal("HeapTable: tuple does not fit on a fresh page");
    }
  }

  // PostgreSQL's order: mark the page dirty, log the item, then unpin.
  // A failed log takes the item back off the page, so the row is either
  // in the heap and in the log, or in neither.
  Status logged;
  if (WalManager* wal = bufmgr_->wal()) {
    bufmgr_->MarkDirty(handle);
    logged = wal->LogAppend(rel_, block, handle.data, bufmgr_->page_size(),
                            slot, fresh)
                 .status();
    if (!logged.ok()) std::memcpy(handle.data, &before, sizeof(before));
  }
  bufmgr_->Unpin(handle, /*dirty=*/true);
  VECDB_RETURN_NOT_OK(logged);
  ++num_rows_;
  return TupleId{block, slot};
}

Status HeapTable::Read(TupleId tid, int64_t* row_id, float* vec,
                       int64_t* attrs) const {
  if (!tid.valid()) return Status::InvalidArgument("HeapTable: invalid tid");
  VECDB_ASSIGN_OR_RETURN(BufferHandle handle, bufmgr_->Pin(rel_, tid.block));
  PageView page(handle.data, bufmgr_->page_size());
  const char* item = page.GetItem(tid.offset);
  if (item == nullptr) {
    bufmgr_->Unpin(handle, false);
    return Status::NotFound("HeapTable: no tuple at slot " +
                            std::to_string(tid.offset));
  }
  const auto* header = reinterpret_cast<const HeapTupleHeader*>(item);
  if (header->dim != dim_ || header->num_attrs != num_attrs_) {
    bufmgr_->Unpin(handle, false);
    return Status::Corruption("HeapTable: tuple shape mismatch");
  }
  if (row_id != nullptr) *row_id = header->row_id;
  if (vec != nullptr) {
    std::memcpy(vec, item + sizeof(HeapTupleHeader), dim_ * sizeof(float));
  }
  if (attrs != nullptr && num_attrs_ > 0) {
    std::memcpy(attrs, item + attr_offset(), num_attrs_ * sizeof(int64_t));
  }
  bufmgr_->Unpin(handle, false);
  return Status::OK();
}

Status HeapTable::SeqScan(
    const std::function<bool(TupleId, int64_t, const float*)>& fn) const {
  return SeqScanFull(
      [&](TupleId tid, int64_t row_id, const float* vec, const int64_t*) {
        return fn(tid, row_id, vec);
      });
}

Status HeapTable::SeqScanFull(
    const std::function<bool(TupleId, int64_t, const float*, const int64_t*)>&
        fn) const {
  VECDB_ASSIGN_OR_RETURN(BlockId num_blocks, smgr_->NumBlocks(rel_));
  for (BlockId block = 0; block < num_blocks; ++block) {
    VECDB_ASSIGN_OR_RETURN(BufferHandle handle, bufmgr_->Pin(rel_, block));
    PageView page(handle.data, bufmgr_->page_size());
    const uint16_t count = page.ItemCount();
    for (OffsetNumber slot = 1; slot <= count; ++slot) {
      const char* item = page.GetItem(slot);
      if (item == nullptr) continue;
      const auto* header = reinterpret_cast<const HeapTupleHeader*>(item);
      const float* vec =
          reinterpret_cast<const float*>(item + sizeof(HeapTupleHeader));
      const int64_t* attrs =
          num_attrs_ > 0
              ? reinterpret_cast<const int64_t*>(item + attr_offset())
              : nullptr;
      if (!fn(TupleId{block, slot}, header->row_id, vec, attrs)) {
        bufmgr_->Unpin(handle, false);
        return Status::OK();
      }
    }
    bufmgr_->Unpin(handle, false);
  }
  return Status::OK();
}

uint32_t HeapTable::rows_per_page() const {
  const uint32_t page = bufmgr_->page_size();
  const uint32_t len = tuple_size();
  uint32_t lower = sizeof(PageView::Header);
  uint32_t upper = page;  // heap pages reserve no special space
  uint32_t count = 0;
  // Replay AddItem's acceptance test until a hypothetical insert fails.
  for (;;) {
    if (upper < lower || upper < len) break;
    const uint32_t start = (upper - len) & ~7u;
    if (start < lower + sizeof(ItemId)) break;
    upper = start;
    lower += sizeof(ItemId);
    ++count;
  }
  return count;
}

Status HeapTable::ScanPrefixFull(
    uint64_t limit_rows,
    const std::function<bool(TupleId, int64_t, const float*, const int64_t*)>&
        fn) const {
  const uint32_t per_page = rows_per_page();
  uint64_t row = 0;
  for (BlockId block = 0; row < limit_rows; ++block) {
    const uint64_t in_block =
        std::min<uint64_t>(per_page, limit_rows - row);
    VECDB_ASSIGN_OR_RETURN(BufferHandle handle, bufmgr_->Pin(rel_, block));
    PageView page(handle.data, bufmgr_->page_size());
    for (OffsetNumber slot = 1; slot <= in_block; ++slot, ++row) {
      // ItemAtUnchecked: never touch the page header, which a concurrent
      // appender mutates; the snapshot bound guarantees the slot exists.
      const char* item = page.ItemAtUnchecked(slot);
      if (item == nullptr) continue;
      const auto* header = reinterpret_cast<const HeapTupleHeader*>(item);
      const float* vec =
          reinterpret_cast<const float*>(item + sizeof(HeapTupleHeader));
      const int64_t* attrs =
          num_attrs_ > 0
              ? reinterpret_cast<const int64_t*>(item + attr_offset())
              : nullptr;
      if (!fn(TupleId{block, slot}, header->row_id, vec, attrs)) {
        bufmgr_->Unpin(handle, false);
        return Status::OK();
      }
    }
    bufmgr_->Unpin(handle, false);
  }
  return Status::OK();
}

void HeapTable::CheckInvariants() const {
  size_t seen = 0;
  auto scanned = SeqScan([&](TupleId tid, int64_t, const float*) {
    VECDB_CHECK(tid.valid()) << "SeqScan yielded an invalid tid";
    ++seen;
    return true;
  });
  VECDB_CHECK(scanned.ok()) << "SeqScan failed: " << scanned.ToString();
  VECDB_CHECK_EQ(seen, num_rows_) << "page population vs num_rows()";
  // Re-read every tuple through the Read path, which verifies the stored
  // per-tuple shape against the table metadata (Corruption on mismatch).
  std::vector<float> vec(dim_);
  std::vector<int64_t> attrs(num_attrs_);
  scanned = SeqScan([&](TupleId tid, int64_t, const float*) {
    int64_t row_id = 0;
    Status read = Read(tid, &row_id, vec.data(),
                       num_attrs_ > 0 ? attrs.data() : nullptr);
    VECDB_CHECK(read.ok()) << "tuple re-read failed: " << read.ToString();
    return true;
  });
  VECDB_CHECK(scanned.ok()) << "SeqScan failed: " << scanned.ToString();
}

}  // namespace vecdb::pgstub
