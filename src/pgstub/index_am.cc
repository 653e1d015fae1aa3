#include "pgstub/index_am.h"

#include <algorithm>
#include <vector>

#include "common/aligned_buffer.h"

namespace vecdb::pgstub {

namespace {

/// Materialized result cursor: holds the top-k list and yields sequentially.
class MaterializedCursor final : public IndexScanCursor {
 public:
  explicit MaterializedCursor(std::vector<Neighbor> results)
      : results_(std::move(results)) {}

  Result<bool> AmGetTuple(Neighbor* out) override {
    if (pos_ >= results_.size()) return false;
    *out = results_[pos_++];
    return true;
  }

 private:
  std::vector<Neighbor> results_;
  size_t pos_ = 0;
};

}  // namespace

Status VectorIndexAm::AmBuild(const HeapTable& table) {
  // Collect the rows in storage order, then bulk-build. PASE's ambuild also
  // scans the heap once before constructing the index. VectorIndex::Build
  // numbers vectors by position; row_ids_ maps positions back to user ids.
  AlignedFloats vecs;
  std::vector<int64_t> ids;
  VECDB_RETURN_NOT_OK(table.SeqScan(
      [&](TupleId, int64_t row_id, const float* vec) {
        vecs.Append(vec, table.dim());
        ids.push_back(row_id);
        return true;
      }));
  if (ids.empty()) {
    return Status::InvalidArgument("AmBuild: table is empty");
  }
  const size_t n = ids.size();
  {
    WriterMutexLock latch(ids_latch_);
    row_ids_ = std::move(ids);
  }
  return index_->Build(vecs.data(), n);
}

Status VectorIndexAm::AmAttach(const HeapTable& table, size_t num_rows) {
  std::vector<int64_t> ids;
  ids.reserve(num_rows);
  VECDB_RETURN_NOT_OK(
      table.SeqScan([&](TupleId, int64_t row_id, const float*) {
        if (ids.size() >= num_rows) return false;
        ids.push_back(row_id);
        return true;
      }));
  if (ids.size() < num_rows) {
    return Status::InvalidArgument(
        "AmAttach: heap has " + std::to_string(ids.size()) +
        " rows, snapshot expects " + std::to_string(num_rows));
  }
  WriterMutexLock latch(ids_latch_);
  row_ids_ = std::move(ids);
  return Status::OK();
}

Status VectorIndexAm::AmInsert(const float* vec, int64_t row_id) {
  // Delegates to the index's incremental path (NotSupported for indexes
  // that require a rebuild); on success, extend the position -> row-id map.
  VECDB_RETURN_NOT_OK(index_->Insert(vec));
  WriterMutexLock latch(ids_latch_);
  row_ids_.push_back(row_id);
  return Status::OK();
}

Result<std::unique_ptr<IndexScanCursor>> VectorIndexAm::AmBeginScan(
    const float* query, const AmScanOptions& options) const {
  SearchParams params;
  params.k = options.k;
  params.nprobe = options.nprobe;
  params.efs = options.efs;
  params.ctx = options.ctx;
  std::vector<Neighbor> results;
  if (options.filter.selection != nullptr) {
    VECDB_ASSIGN_OR_RETURN(
        results, index_->FilteredSearch(query, options.filter, params));
  } else {
    VECDB_ASSIGN_OR_RETURN(results, index_->Search(query, params));
    // An insert running beside the scan may have put rows past the
    // snapshot into the index; drop them. Only if that leaves the result
    // short does the scan re-run over exactly the visible positions.
    const size_t visible = options.visible_rows;
    const size_t dropped =
        std::erase_if(results, [visible](const Neighbor& nb) {
          return nb.id >= 0 && static_cast<size_t>(nb.id) >= visible;
        });
    if (dropped > 0 && results.size() < std::min(params.k, visible)) {
      const auto all = filter::SelectionVector::All(visible);
      FilterRequest request;
      request.selection = &all;
      VECDB_ASSIGN_OR_RETURN(results,
                             index_->FilteredSearch(query, request, params));
    }
  }
  ReaderMutexLock latch(ids_latch_);
  for (auto& nb : results) {
    if (nb.id >= 0 && static_cast<size_t>(nb.id) < row_ids_.size()) {
      nb.id = row_ids_[static_cast<size_t>(nb.id)];
    }
  }
  return std::unique_ptr<IndexScanCursor>(
      new MaterializedCursor(std::move(results)));
}

}  // namespace vecdb::pgstub
