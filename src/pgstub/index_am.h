// PostgreSQL-style index access method interface (IndexAmRoutine analog,
// paper §II-E): a new index type plugs into the executor by implementing
// build / insert / beginscan / gettuple / endscan. The SQL planner drives
// PASE indexes exclusively through this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/index.h"
#include "pgstub/heap_table.h"

namespace vecdb::pgstub {

/// Scan-time options handed to ambeginscan (PASE encodes these in the query
/// operator's option string). When `filter.selection` is set the scan runs
/// the filtered-search path; the selection vector is indexed by index
/// position (heap insertion order), matching AmBuild's scan order.
struct AmScanOptions {
  size_t k = 100;
  uint32_t nprobe = 20;
  uint32_t efs = 200;
  /// The scan's snapshot: index positions at or past it belong to rows
  /// inserted after the scan was planned and never appear in its result.
  /// A filtered scan is bounded by its selection's size already.
  size_t visible_rows = SIZE_MAX;
  FilterRequest filter;
  /// Observability handle forwarded into the engine's SearchParams; a
  /// session's scans carry its per-session QueryContext here so metrics
  /// can be attributed to a caller-chosen registry.
  QueryContext ctx;
};

/// An open ordered index scan; amgettuple yields one result at a time.
class IndexScanCursor {
 public:
  virtual ~IndexScanCursor() = default;

  /// Fetches the next (distance-ordered) match. Returns false at the end.
  virtual Result<bool> AmGetTuple(Neighbor* out) = 0;
};

/// The access-method routine table, as a virtual interface.
class IndexAccessMethod {
 public:
  virtual ~IndexAccessMethod() = default;

  /// ambuild: bulk-builds the index over every row of `table`.
  virtual Status AmBuild(const HeapTable& table) = 0;

  /// aminsert: adds one new row to the index.
  virtual Status AmInsert(const float* vec, int64_t row_id) = 0;

  /// ambeginscan: opens an ordered scan for `query`.
  virtual Result<std::unique_ptr<IndexScanCursor>> AmBeginScan(
      const float* query, const AmScanOptions& options) const = 0;
};

/// Adapter exposing any VectorIndex as an access method: the scan
/// materializes the top-k result at beginscan and dribbles tuples out,
/// which is how PASE services ORDER BY ... LIMIT k plans. Rows may carry
/// arbitrary user ids; the adapter maintains the position -> row-id map.
/// Index positions are heap positions, so, as in PostgreSQL, deletes never
/// reach the index: the caller passes the live rows as the scan's
/// selection. Like the index it wraps, a scan may run beside one AmInsert.
class VectorIndexAm final : public IndexAccessMethod {
 public:
  /// Wraps `index` (not owned; must outlive the adapter).
  explicit VectorIndexAm(VectorIndex* index) : index_(index) {}

  Status AmBuild(const HeapTable& table) override;

  /// Re-adopts an index whose vectors were loaded from a snapshot instead
  /// of built: reconstructs the position -> row-id map from the first
  /// `num_rows` heap rows (the rows present when the snapshot was taken;
  /// heap scan order is AmBuild's numbering). Fails with InvalidArgument
  /// if the heap holds fewer rows or the index population disagrees.
  Status AmAttach(const HeapTable& table, size_t num_rows);

  Status AmInsert(const float* vec, int64_t row_id) override;
  Result<std::unique_ptr<IndexScanCursor>> AmBeginScan(
      const float* query, const AmScanOptions& options) const override;

 private:
  VectorIndex* index_;
  /// Shared while a scan maps its result, exclusive while AmInsert
  /// extends the map (a push_back may reallocate it).
  mutable SharedMutex ids_latch_;
  std::vector<int64_t> row_ids_
      VECDB_GUARDED_BY(ids_latch_);  ///< index position -> user row id
};

}  // namespace vecdb::pgstub
