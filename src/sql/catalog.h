// Durable SQL catalog: the schema-level state MiniDatabase cannot
// reconstruct from pages alone — table schemas, index definitions, the
// dead heap positions as of the last checkpoint, and index snapshot
// metadata.
// Serialized as a small text file (`CATALOG`) rewritten atomically
// (temp + rename) on every DDL statement and at each checkpoint;
// PostgreSQL keeps the same information in its system catalogs, which are
// themselves WAL-protected heap tables.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "pgstub/vfs.h"
#include "sql/ast.h"

namespace vecdb::sql {

/// Catalog state for one table.
struct CatalogTable {
  CreateTableStmt schema;
  /// Heap positions deleted as of the last catalog write, ascending.
  /// Deletes after that are recovered from WAL records.
  std::vector<uint64_t> dead_positions;
  /// Deleted row ids read from a version-1 catalog, which stored ids: each
  /// marks every heap position carrying it. Never written.
  std::vector<int64_t> dead_ids;
  /// Heap row count at the last checkpoint (diagnostics only; the heap
  /// itself is recovered from pages + WAL).
  uint64_t rows_at_checkpoint = 0;
};

/// Catalog state for one index.
struct CatalogIndex {
  CreateIndexStmt def;
  /// True when `<index>.snap` holds a loadable snapshot (reload policy).
  bool has_snapshot = false;
  /// Heap rows covered by that snapshot, in heap scan order.
  uint64_t rows_at_snapshot = 0;
};

/// The full durable catalog.
struct Catalog {
  std::map<std::string, CatalogTable> tables;
  std::map<std::string, CatalogIndex> indexes;
};

/// Atomically rewrites `dir`'s catalog file.
Status SaveCatalog(pgstub::Vfs* vfs, const std::string& dir,
                   const Catalog& catalog);

/// Loads the catalog; NotFound when the directory has none (fresh
/// database), Corruption on an unparsable file.
Result<Catalog> LoadCatalog(pgstub::Vfs* vfs, const std::string& dir);

}  // namespace vecdb::sql
