#include "sql/database.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/timer.h"
#include "core/factory.h"
#include "distance/dispatch.h"
#include "distance/kernels.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "topk/heaps.h"

namespace vecdb::sql {

namespace {
/// Row-image column layout predicates bind against: the id column first,
/// then the attribute columns in declaration order.
std::vector<std::string> PredicateColumns(const CreateTableStmt& schema) {
  std::vector<std::string> cols;
  cols.reserve(1 + schema.attr_columns.size());
  cols.push_back(schema.id_column);
  for (const auto& attr : schema.attr_columns) cols.push_back(attr);
  return cols;
}

/// Appends one heap row to a table's predicate columns: the id, then one
/// attribute value per remaining column.
void AppendPredicateRow(int64_t row_id, const int64_t* attrs,
                        std::vector<std::vector<int64_t>>* columns) {
  (*columns)[0].push_back(row_id);
  for (size_t c = 1; c < columns->size(); ++c) {
    (*columns)[c].push_back(attrs[c - 1]);
  }
}

/// Samples sql.write_lock_wait_nanos: how long a writer waited for its
/// table lock, started with `wait` just before the acquire.
void RecordWriteLockWait(const Timer& wait) {
  obs::MetricsRegistry::Global().Record(
      obs::Hist::kSqlWriteLockWaitNanos,
      static_cast<uint64_t>(wait.ElapsedNanos()));
}

/// DatabaseOptions::scan_delay_nanos_for_test's stall: a busy-wait, not a
/// sleep, so a stretched scan keeps its cooperative structure.
void BusyWait(uint64_t nanos) {
  const int64_t until = NowNanos() + static_cast<int64_t>(nanos);
  while (NowNanos() < until) {
  }
}

const char* kWalFileName = "/wal.log";

/// Upper bound for every statement_timeout_ms source (DatabaseOptions,
/// SET, statement OPTIONS): 24 hours. A "timeout" past that is a typo.
constexpr uint32_t kMaxStatementTimeoutMs = 24u * 60 * 60 * 1000;

/// Knob validation shared by `SET name = value` and the per-statement
/// OPTIONS list (PR 3 convention: reject nonsense at the boundary with
/// InvalidArgument, never clamp silently).
Status ValidateSessionOption(const std::string& name, double value) {
  auto require_positive_int = [&]() -> Status {
    if (value < 1 || value != static_cast<double>(static_cast<uint64_t>(value))) {
      return Status::InvalidArgument(name + " must be a positive integer");
    }
    return Status::OK();
  };
  if (name == "nprobe" || name == "efs" || name == "num_threads") {
    return require_positive_int();
  }
  if (name == "statement_timeout_ms") {
    if (value < 0 ||
        value != static_cast<double>(static_cast<uint64_t>(value))) {
      return Status::InvalidArgument(
          "statement_timeout_ms must be a non-negative integer");
    }
    if (value > static_cast<double>(kMaxStatementTimeoutMs)) {
      return Status::InvalidArgument("statement_timeout_ms must be <= " +
                                     std::to_string(kMaxStatementTimeoutMs) +
                                     " (24h); 0 disables the deadline");
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown session option: " + name +
                                 " (expected nprobe, efs, num_threads, or "
                                 "statement_timeout_ms)");
}
}  // namespace

MiniDatabase::MiniDatabase(pgstub::StorageManager smgr, pgstub::Vfs* vfs,
                           const DatabaseOptions& options)
    : options_(options),
      vfs_(vfs),
      smgr_(std::move(smgr)),
      bufmgr_(&smgr_, options.pool_pages) {}

Result<std::unique_ptr<MiniDatabase>> MiniDatabase::Open(
    const std::string& data_dir, const DatabaseOptions& options) {
  if (options.pool_pages < 16) {
    return Status::InvalidArgument("pool_pages must be >= 16");
  }
  if (options.max_concurrent_queries == 0) {
    return Status::InvalidArgument("max_concurrent_queries must be >= 1");
  }
  if (options.max_inflight_per_session == 0) {
    return Status::InvalidArgument("max_inflight_per_session must be >= 1");
  }
  if (options.statement_timeout_ms > kMaxStatementTimeoutMs) {
    return Status::InvalidArgument("statement_timeout_ms must be <= " +
                                   std::to_string(kMaxStatementTimeoutMs) +
                                   " (24h); 0 disables the deadline");
  }
  pgstub::Vfs* vfs =
      options.vfs != nullptr ? options.vfs : pgstub::Vfs::Default();
  // A SQL session is a serving context: turn the process-wide registry on
  // so SHOW METRICS and ExecStats (and recovery counters) have live
  // numbers.
  obs::MetricsRegistry::Global().SetEnabled(true);

  VECDB_ASSIGN_OR_RETURN(
      pgstub::StorageManager smgr,
      pgstub::StorageManager::Open(vfs, data_dir, options.page_size));

  // Durable schema state; a fresh directory simply has none.
  Catalog catalog;
  auto loaded = LoadCatalog(vfs, data_dir);
  if (loaded.ok()) {
    catalog = std::move(*loaded);
  } else if (!loaded.status().IsNotFound()) {
    return loaded.status();
  }

  // Garbage-collect relations no cataloged table owns: page-resident index
  // relations (rebuilt from the heap below), plus leftovers from drops that
  // crashed between the manifest commit and the file unlink. Doing this
  // BEFORE REDO also makes replay skip their stale full-page images.
  for (const auto& [rel, name] : smgr.ListRelations()) {
    if (catalog.tables.count(name) == 0) {
      VECDB_RETURN_NOT_OK(smgr.DropRelation(rel));
    }
  }

  // ARIES-lite REDO: write intact post-checkpoint page images back into
  // the storage manager, and collect logical deletes for the tables below.
  std::unique_ptr<pgstub::WalManager> wal;
  std::vector<pgstub::WalTombstone> wal_tombstones;
  if (options.wal_enabled) {
    const std::string wal_path = data_dir + kWalFileName;
    VECDB_ASSIGN_OR_RETURN(pgstub::WalManager opened,
                           pgstub::WalManager::Open(vfs, wal_path));
    wal = std::make_unique<pgstub::WalManager>(std::move(opened));
    VECDB_RETURN_NOT_OK(
        pgstub::WalManager::Recover(vfs, wal_path, &smgr, &wal_tombstones));
  }

  std::unique_ptr<MiniDatabase> db(
      new MiniDatabase(std::move(smgr), vfs, options));
  db->admission_ = std::make_unique<AdmissionController>(
      options.max_concurrent_queries, options.max_inflight_per_session);
  db->sessions_ = std::make_unique<SessionManager>(db.get());
  db->wal_ = std::move(wal);
  db->bufmgr_.SetWal(db->wal_.get());
  {
    WriterMutexLock lock(db->catalog_mu_);
    VECDB_RETURN_NOT_OK(db->RecoverFrom(catalog, wal_tombstones));
  }
  // End-of-recovery checkpoint (PostgreSQL does the same): makes the
  // recovered pages durable and resets the WAL so the next crash replays
  // only new work.
  if (db->wal_ != nullptr) {
    VECDB_RETURN_NOT_OK(db->Checkpoint());
  }
  return db;
}

MiniDatabase::~MiniDatabase() {
  // Mark every session closed so a handle that outlives the database
  // fails fast instead of dereferencing it. (Sessions must not have
  // statements in flight when the database is destroyed.)
  if (sessions_ != nullptr) sessions_->CloseAll();
}

std::shared_ptr<Session> MiniDatabase::CreateSession() {
  return sessions_->Create();
}

const filter::SelectionVector* MiniDatabase::DeadPositions(
    const TableEntry& table) {
  return table.state->snapshot.load(std::memory_order_acquire)->dead.get();
}

void MiniDatabase::PublishSnapshot(
    TableEntry& table, uint64_t visible_rows,
    std::shared_ptr<const filter::SelectionVector> dead) {
  auto* next = new TableSnapshot{visible_rows, std::move(dead)};
  // Release: a reader that acquire-loads `next` must observe every heap
  // write the statement performed before publishing.
  const TableSnapshot* old =
      table.state->snapshot.exchange(next, std::memory_order_acq_rel);
  if (old != nullptr) {
    // Readers pinned before this retirement may still hold `old`; the
    // epoch manager frees it once they all exit.
    epochs_.Retire([old] { delete old; });
    epochs_.ReclaimReady();
  }
}

Status MiniDatabase::RecoverFrom(
    const Catalog& catalog,
    const std::vector<pgstub::WalTombstone>& wal_tombstones) {
  for (const auto& [name, cat_table] : catalog.tables) {
    TableEntry entry;
    entry.schema = cat_table.schema;
    VECDB_ASSIGN_OR_RETURN(
        pgstub::HeapTable heap,
        pgstub::HeapTable::Attach(
            &bufmgr_, &smgr_, name, cat_table.schema.dim,
            static_cast<uint32_t>(cat_table.schema.attr_columns.size())));
    entry.heap = std::make_unique<pgstub::HeapTable>(std::move(heap));
    entry.state = std::make_unique<TableState>(
        1 + cat_table.schema.attr_columns.size());
    {
      // The predicate columns are derived data: one heap pass rebuilds
      // them (no reader exists yet; the lock satisfies the annotation).
      WriterMutexLock lock(entry.state->mu);
      std::vector<std::vector<int64_t>>& columns = entry.state->columns;
      VECDB_RETURN_NOT_OK(entry.heap->SeqScanFull(
          [&columns](pgstub::TupleId, int64_t row_id, const float*,
                     const int64_t* attrs) {
            AppendPredicateRow(row_id, attrs, &columns);
            return true;
          }));
    }
    tables_.emplace(name, std::move(entry));
  }
  // Dead positions: the catalog's as of the last checkpoint, then the WAL
  // records logged since (idempotent).
  std::map<std::string, filter::SelectionVector> dead;
  auto mark = [&](const std::string& name, uint64_t pos) -> Status {
    filter::SelectionVector& bits =
        dead.try_emplace(name, tables_.at(name).heap->num_rows()).first->second;
    if (pos >= bits.size()) {
      return Status::Corruption("dead position " + std::to_string(pos) +
                                " past the end of table " + name);
    }
    bits.Set(pos);
    return Status::OK();
  };
  // Older formats logged row ids: each marks every position carrying it,
  // its meaning when it was written.
  auto mark_id = [&](const std::string& name, int64_t id) -> Status {
    const std::vector<int64_t>& ids = tables_.at(name).state->columns[0];
    for (size_t pos = 0; pos < ids.size(); ++pos) {
      if (ids[pos] == id) VECDB_RETURN_NOT_OK(mark(name, pos));
    }
    return Status::OK();
  };
  for (const auto& [name, cat_table] : catalog.tables) {
    for (uint64_t pos : cat_table.dead_positions) {
      VECDB_RETURN_NOT_OK(mark(name, pos));
    }
    for (int64_t id : cat_table.dead_ids) {
      VECDB_RETURN_NOT_OK(mark_id(name, id));
    }
  }
  for (const auto& tomb : wal_tombstones) {
    for (auto& [name, table] : tables_) {
      if (table.heap->rel() != tomb.rel) continue;
      VECDB_RETURN_NOT_OK(tomb.by_position ? mark(name, tomb.position)
                                           : mark_id(name, tomb.row_id));
      break;
    }
  }
  // Publish each table's initial snapshot: every recovered row visible,
  // dead positions as recovered. No readers exist yet (recovery runs under
  // the exclusive catalog lock before any session is created).
  for (auto& [name, table] : tables_) {
    auto bits = dead.find(name);
    std::shared_ptr<const filter::SelectionVector> ptr;
    if (bits != dead.end()) {
      ptr = std::make_shared<const filter::SelectionVector>(
          std::move(bits->second));
    }
    table.state->snapshot.store(
        new TableSnapshot{table.heap->num_rows(), std::move(ptr)},
        std::memory_order_release);
  }
  for (const auto& [name, cat_index] : catalog.indexes) {
    auto tbl = tables_.find(cat_index.def.table);
    if (tbl == tables_.end()) {
      return Status::Corruption("catalog index " + name +
                                " references missing table " +
                                cat_index.def.table);
    }
    IndexEntry& entry = indexes_[name];
    entry.def = cat_index.def;
    if (options_.index_recovery != IndexRecovery::kReload ||
        !TryReloadIndex(cat_index, tbl->second, &entry)) {
      VECDB_RETURN_NOT_OK(BuildIndex(tbl->second, &entry));
    }
    tbl->second.indexes.push_back(name);
  }
  return Status::OK();
}

Status MiniDatabase::BuildIndex(const TableEntry& table, IndexEntry* entry) {
  VECDB_ASSIGN_OR_RETURN(entry->index,
                         MakeIndex(entry->def, table.schema.dim));
  entry->am = std::make_unique<pgstub::VectorIndexAm>(entry->index.get());
  entry->has_snapshot = false;
  entry->rows_at_snapshot = 0;
  // CREATE INDEX refuses an empty table, so a cataloged index was built
  // over >= 1 row; recovery guards anyway: an empty heap leaves the index
  // untrained, exactly as a freshly created one would be.
  if (table.heap->num_rows() == 0) return Status::OK();
  return entry->am->AmBuild(*table.heap);
}

std::string MiniDatabase::SnapshotPath(const std::string& name,
                                       uint64_t rows) const {
  return smgr_.dir() + "/" + name + "." + std::to_string(rows) + ".snap";
}

bool MiniDatabase::TryReloadIndex(const CatalogIndex& cat,
                                  const TableEntry& table,
                                  IndexEntry* entry) {
  // Only an index whose Save succeeded at a checkpoint has a snapshot;
  // every other index rebuilds.
  if (!cat.has_snapshot) return false;
  if (table.heap->num_rows() < cat.rows_at_snapshot) return false;
  const std::string path = SnapshotPath(cat.def.index, cat.rows_at_snapshot);
  auto exists = vfs_->Exists(path);
  if (!exists.ok() || !*exists) return false;
  auto made = MakeIndex(cat.def, table.schema.dim);
  if (!made.ok()) return false;
  std::unique_ptr<VectorIndex> loaded = std::move(*made);
  if (!loaded->Load(path).ok() ||
      loaded->NumVectors() != cat.rows_at_snapshot) {
    return false;
  }

  auto am = std::make_unique<pgstub::VectorIndexAm>(loaded.get());
  if (!am->AmAttach(*table.heap, cat.rows_at_snapshot).ok()) return false;
  // Top up with the rows inserted after the snapshot (recovered into the
  // heap by REDO), in heap scan order — the same order AmInsert would have
  // seen them live.
  size_t pos = 0;
  Status insert_status;
  Status scan = table.heap->SeqScan(
      [&](pgstub::TupleId, int64_t row_id, const float* vec) {
        if (pos++ < cat.rows_at_snapshot) return true;
        insert_status = am->AmInsert(vec, row_id);
        return insert_status.ok();
      });
  if (!scan.ok() || !insert_status.ok()) return false;
  entry->index = std::move(loaded);
  entry->am = std::move(am);
  entry->has_snapshot = true;
  entry->rows_at_snapshot = cat.rows_at_snapshot;
  return true;
}

Status MiniDatabase::SaveCatalogNow() const {
  Catalog catalog;
  for (const auto& [name, table] : tables_) {
    CatalogTable cat;
    cat.schema = table.schema;
    if (const filter::SelectionVector* dead = DeadPositions(table)) {
      dead->ForEachSet(
          [&cat](size_t pos) { cat.dead_positions.push_back(pos); });
    }
    cat.rows_at_checkpoint = table.heap->num_rows();
    catalog.tables.emplace(name, std::move(cat));
  }
  for (const auto& [name, index] : indexes_) {
    CatalogIndex cat;
    cat.def = index.def;
    cat.has_snapshot = index.has_snapshot;
    cat.rows_at_snapshot = index.rows_at_snapshot;
    catalog.indexes.emplace(name, std::move(cat));
  }
  return SaveCatalog(vfs_, smgr_.dir(), catalog);
}

Status MiniDatabase::Checkpoint() {
  WriterMutexLock lock(catalog_mu_);
  return CheckpointLocked();
}

Status MiniDatabase::CheckpointLocked() {
  // The exclusive catalog lock quiesces every statement: no buffer pins
  // are held (FlushAll requires that) and no writer is mid-publish.
  // 1. Index snapshots (reload policy only). Best-effort: a failed save,
  //    NotSupported included, just leaves the rebuild path. Deletes never
  //    reach an index, so a table with dead rows snapshots like any other.
  std::vector<std::string> stale_snapshots;
  if (options_.index_recovery == IndexRecovery::kReload) {
    for (auto& [name, entry] : indexes_) {
      auto tbl = tables_.find(entry.def.table);
      if (tbl == tables_.end()) continue;
      const uint64_t rows = tbl->second.heap->num_rows();
      if (rows == 0 || (entry.has_snapshot && entry.rows_at_snapshot == rows))
        continue;
      if (entry.index->NumVectors() != rows) continue;
      const std::string path = SnapshotPath(name, rows);
      const std::string tmp = path + ".tmp";
      if (!entry.index->Save(tmp).ok() || !vfs_->Rename(tmp, path).ok()) {
        continue;
      }
      if (entry.has_snapshot) {
        stale_snapshots.push_back(
            SnapshotPath(name, entry.rows_at_snapshot));
      }
      entry.has_snapshot = true;
      entry.rows_at_snapshot = rows;
    }
  }
  // 2. Force every dirty page (WAL first — FlushAll enforces that) and the
  //    relation files themselves to storage.
  VECDB_RETURN_NOT_OK(bufmgr_.FlushAll());
  VECDB_RETURN_NOT_OK(smgr_.SyncAll());
  // 3. Persist the catalog: schemas, index defs, and the dead positions as
  //    of this instant (deletes after this point live in the new WAL).
  VECDB_RETURN_NOT_OK(SaveCatalogNow());
  // 4. Only NOW is the checkpoint record's claim true. Rotate afterwards:
  //    everything the old log protected is durable, so the log can shrink
  //    to a bare header. A crash between the two steps replays from the
  //    old log's checkpoint record — same result.
  if (wal_ != nullptr) {
    VECDB_RETURN_NOT_OK(wal_->LogCheckpoint().status());
    VECDB_RETURN_NOT_OK(wal_->Rotate());
  }
  // 5. Old snapshot files are unreferenced once the catalog commit landed.
  for (const auto& path : stale_snapshots) {
    (void)vfs_->Remove(path);
  }
  // Retired table snapshots can be freed: the exclusive lock excludes
  // every epoch-pinned reader.
  epochs_.ReclaimAll();
  return Status::OK();
}

Result<QueryResult> MiniDatabase::ExecuteForSession(
    const std::string& statement, Session* session) {
  Timer timer;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Add(obs::Counter::kSqlStatements);
  auto parsed = Parse(statement);
  if (!parsed.ok()) {
    metrics.Add(obs::Counter::kSqlErrors);
    return parsed.status();
  }
  const Statement& stmt = *parsed;
  const bool ddl = stmt.kind == Statement::Kind::kCreateTable ||
                   stmt.kind == Statement::Kind::kCreateIndex ||
                   stmt.kind == Statement::Kind::kDrop ||
                   stmt.kind == Statement::Kind::kCheckpoint;
  Result<QueryResult> result = Status::Internal("statement not dispatched");
  if (stmt.kind == Statement::Kind::kSet ||
      stmt.kind == Statement::Kind::kCancel) {
    // Session-control statements touch no catalog state — they run under
    // neither lock mode, so a CANCEL reaches its target even while DDL
    // holds the catalog exclusively.
    result = stmt.kind == Statement::Kind::kSet
                 ? ExecSet(*stmt.set, session)
                 : ExecCancel(*stmt.cancel);
  } else if (ddl) {
    // DDL (and CHECKPOINT) quiesce the database: exclusive catalog lock.
    WriterMutexLock lock(catalog_mu_);
    result = DispatchDdl(stmt);
  } else {
    // DML and queries run concurrently under the shared catalog lock;
    // per-table locks / snapshots order them against each other.
    ReaderMutexLock lock(catalog_mu_);
    result = DispatchShared(stmt, session);
  }
  const auto nanos = static_cast<uint64_t>(timer.ElapsedNanos());
  bool mutating = false;
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable:
      metrics.Add(obs::Counter::kSqlCreateTable);
      metrics.Record(obs::Hist::kSqlDdlNanos, nanos);
      mutating = true;
      break;
    case Statement::Kind::kInsert:
      metrics.Add(obs::Counter::kSqlInsertRows, stmt.insert->rows.size());
      metrics.Record(obs::Hist::kSqlInsertNanos, nanos);
      mutating = true;
      break;
    case Statement::Kind::kCreateIndex:
      metrics.Add(obs::Counter::kSqlCreateIndex);
      metrics.Record(obs::Hist::kSqlDdlNanos, nanos);
      mutating = true;
      break;
    case Statement::Kind::kSelect:
      metrics.Add(obs::Counter::kSqlSelect);
      metrics.Record(obs::Hist::kSqlSelectNanos, nanos);
      break;
    case Statement::Kind::kDrop:
      metrics.Add(obs::Counter::kSqlDrop);
      metrics.Record(obs::Hist::kSqlDdlNanos, nanos);
      mutating = true;
      break;
    case Statement::Kind::kDelete:
      metrics.Add(obs::Counter::kSqlDelete);
      mutating = true;
      break;
    case Statement::Kind::kShow:
      metrics.Add(obs::Counter::kSqlShow);
      break;
    case Statement::Kind::kCheckpoint:
      metrics.Add(obs::Counter::kSqlCheckpoint);
      metrics.Record(obs::Hist::kSqlDdlNanos, nanos);
      break;
    case Statement::Kind::kSet:
      metrics.Add(obs::Counter::kSqlSet);
      break;
    case Statement::Kind::kCancel:
      metrics.Add(obs::Counter::kSqlCancel);
      break;
  }
  if (!result.ok()) {
    metrics.Add(obs::Counter::kSqlErrors);
    if (result.status().IsCancelled()) {
      // CheckStop tags deadline expiries with "statement timeout"; the
      // two abort causes get separate counters (docs/OBSERVABILITY.md).
      const bool timeout = result.status().message().find(
                               "statement timeout") != std::string::npos;
      metrics.Add(timeout ? obs::Counter::kServerStatementTimeouts
                          : obs::Counter::kServerStatementCancels);
    }
    return result;
  }
  if (mutating && wal_ != nullptr) {
    // The statement's records must be out of the appender's buffer before
    // the statement is acknowledged (group "commit" per statement).
    VECDB_RETURN_NOT_OK(wal_->Flush());
    // Size-triggered checkpoint: bounds WAL growth across any workload.
    // Runs after the statement's lock is released (Checkpoint retakes the
    // catalog lock exclusively); concurrent triggers serialize there.
    if (options_.checkpoint_wal_bytes > 0 &&
        wal_->size_bytes() >= options_.checkpoint_wal_bytes) {
      VECDB_RETURN_NOT_OK(Checkpoint());
    }
  }
  result->stats.wall_seconds = static_cast<double>(nanos) * 1e-9;
  result->stats.rows_returned = result->rows.size();
  return result;
}

Result<QueryResult> MiniDatabase::DispatchDdl(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable:
      return ExecCreateTable(*stmt.create_table);
    case Statement::Kind::kCreateIndex:
      return ExecCreateIndex(*stmt.create_index);
    case Statement::Kind::kDrop:
      return ExecDrop(*stmt.drop);
    case Statement::Kind::kCheckpoint:
      return ExecCheckpoint();
    default:
      return Status::Internal("statement is not DDL");
  }
}

Result<QueryResult> MiniDatabase::DispatchShared(const Statement& stmt,
                                                 Session* session) {
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      return ExecInsert(*stmt.insert);
    case Statement::Kind::kSelect:
      return ExecSelect(*stmt.select, session);
    case Statement::Kind::kDelete:
      return ExecDelete(*stmt.delete_row);
    case Statement::Kind::kShow:
      return ExecShow(*stmt.show);
    default:
      return Status::Internal("statement is not DML");
  }
}

Result<QueryResult> MiniDatabase::ExecCreateTable(
    const CreateTableStmt& stmt) {
  if (tables_.count(stmt.table) != 0) {
    return Status::AlreadyExists("table exists: " + stmt.table);
  }
  VECDB_ASSIGN_OR_RETURN(
      pgstub::HeapTable heap,
      pgstub::HeapTable::Create(
          &bufmgr_, &smgr_, stmt.table, stmt.dim,
          static_cast<uint32_t>(stmt.attr_columns.size())));
  const pgstub::RelId rel = heap.rel();
  TableEntry entry;
  entry.schema = stmt;
  entry.heap = std::make_unique<pgstub::HeapTable>(std::move(heap));
  entry.state = std::make_unique<TableState>(1 + stmt.attr_columns.size());
  entry.state->snapshot.store(new TableSnapshot{0, nullptr},
                              std::memory_order_release);
  tables_.emplace(stmt.table, std::move(entry));
  // Relation first, catalog second: a cataloged table always has its file.
  Status saved = SaveCatalogNow();
  if (!saved.ok()) {
    tables_.erase(stmt.table);
    (void)smgr_.DropRelation(rel);
    return saved;
  }
  QueryResult out;
  out.message = "CREATE TABLE";
  return out;
}

Status MiniDatabase::InsertRowsLocked(TableEntry& table,
                                      const InsertStmt& stmt) {
  for (const auto& row : stmt.rows) {
    const int64_t* attrs = row.attrs.empty() ? nullptr : row.attrs.data();
    VECDB_RETURN_NOT_OK(
        table.heap->Insert(row.id, row.vec.data(), attrs).status());
    // The row is in the heap: extend the predicate columns before any
    // other exit, so they stay one-for-one with the heap.
    AppendPredicateRow(row.id, attrs, &table.state->columns);
    for (const auto& index_name : table.indexes) {
      auto idx = indexes_.find(index_name);
      if (idx != indexes_.end()) {
        IndexEntry& entry = idx->second;
        if (entry.stale.load(std::memory_order_relaxed)) continue;
        Status s = entry.am->AmInsert(row.vec.data(), row.id);
        // NotSupported: a rebuild-only engine (faiss flat, bridge). It
        // now lacks this row, so it must not answer until rebuilt.
        if (s.IsNotSupported()) {
          entry.stale.store(true, std::memory_order_release);
        } else if (!s.ok()) {
          return s;
        }
      }
    }
  }
  return Status::OK();
}

Result<QueryResult> MiniDatabase::ExecInsert(const InsertStmt& stmt) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.table);
  }
  TableEntry& table = it->second;
  for (const auto& row : stmt.rows) {
    if (row.vec.size() != table.schema.dim) {
      return Status::InvalidArgument(
          "vector has " + std::to_string(row.vec.size()) +
          " dimensions, table expects " + std::to_string(table.schema.dim));
    }
    if (row.attrs.size() != table.schema.attr_columns.size()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(row.attrs.size()) +
          " attribute values, table expects " +
          std::to_string(table.schema.attr_columns.size()));
    }
  }
  Status inserted;
  {
    Timer wait;
    WriterMutexLock lock(table.state->mu);
    RecordWriteLockWait(wait);
    const TableSnapshot* snap =
        table.state->snapshot.load(std::memory_order_acquire);
    std::shared_ptr<const filter::SelectionVector> dead = snap->dead;
    inserted = InsertRowsLocked(table, stmt);
    // Publish exactly once per statement (statement-atomic visibility for
    // lock-free readers); on a mid-statement failure the rows already in
    // the heap become visible — they were durably inserted.
    PublishSnapshot(table, table.heap->num_rows(), std::move(dead));
  }
  VECDB_RETURN_NOT_OK(inserted);
  QueryResult out;
  out.message = "INSERT " + std::to_string(stmt.rows.size());
  return out;
}

Result<std::unique_ptr<VectorIndex>> MiniDatabase::MakeIndex(
    const CreateIndexStmt& stmt, uint32_t dim) {
  // Translate the parsed statement into a factory spec; SQL option keys
  // are the factory's option keys.
  IndexSpec spec;
  spec.method = stmt.method;
  spec.engine = stmt.engine;
  spec.dim = dim;
  spec.options = stmt.options;
  spec.rel_prefix = stmt.index;
  return CreateIndex(spec, pase::PaseEnv{&smgr_, &bufmgr_});
}

Result<QueryResult> MiniDatabase::ExecCreateIndex(
    const CreateIndexStmt& stmt) {
  if (indexes_.count(stmt.index) != 0) {
    return Status::AlreadyExists("index exists: " + stmt.index);
  }
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.table);
  }
  TableEntry& table = it->second;
  if (stmt.column != table.schema.vec_column) {
    return Status::InvalidArgument("column " + stmt.column +
                                   " is not the vector column of " +
                                   stmt.table);
  }
  if (table.heap->num_rows() == 0) {
    return Status::InvalidArgument("cannot index empty table " + stmt.table);
  }
  IndexEntry& entry = indexes_[stmt.index];
  entry.def = stmt;
  Status built = BuildIndex(table, &entry);
  if (!built.ok()) {
    indexes_.erase(stmt.index);
    return built;
  }
  table.indexes.push_back(stmt.index);
  Status saved = SaveCatalogNow();
  if (!saved.ok()) {
    indexes_.erase(stmt.index);
    table.indexes.pop_back();
    return saved;
  }
  QueryResult out;
  out.message = "CREATE INDEX";
  return out;
}

Result<QueryResult> MiniDatabase::SeqScanSelect(
    const SelectStmt& stmt, const TableEntry& table,
    const filter::BoundPredicate* bound, const QueryContext& ctx) {
  // Lock-free snapshot scan: pin an epoch, acquire-load the published
  // snapshot, and read only its heap prefix. Concurrent INSERT statements
  // extend the heap past visible_rows, but those rows (and any snapshot
  // the writers retire meanwhile) stay invisible and alive until we exit.
  pgstub::EpochGuard guard(epochs());
  const TableSnapshot* snap =
      table.state->snapshot.load(std::memory_order_acquire);
  const uint64_t visible = snap->visible_rows;
  const filter::SelectionVector* dead = snap->dead.get();
  // No scan returns more rows than are visible, so a larger LIMIT never
  // sizes the heap.
  KMaxHeap heap(std::min<uint64_t>(stmt.limit, visible));
  uint64_t scanned = 0;
  // Cancellation checkpoint cadence: the flag/deadline loads are cheap
  // relaxed atomics plus a clock read, but per-row they would still tax
  // the scan's hot loop, so poll every 256 rows. `stop` carries the
  // Cancelled status out of the callback (returning false only halts the
  // scan; ScanPrefixFull itself stays OK).
  Status stop;
  const uint64_t delay = options_.scan_delay_nanos_for_test;
  std::vector<int64_t> row_image(1 + table.schema.attr_columns.size());
  VECDB_RETURN_NOT_OK(table.heap->ScanPrefixFull(
      visible,
      [&](pgstub::TupleId, int64_t row_id, const float* vec,
          const int64_t* attrs) {
        const uint64_t pos = scanned++;
        if ((scanned & 255u) == 0u) {
          stop = ctx.CheckStop("seqscan");
          if (!stop.ok()) return false;
        }
        if (delay != 0) BusyWait(delay);  // test seam
        if (dead != nullptr && dead->Test(pos)) return true;  // dead tuple
        if (bound != nullptr) {
          row_image[0] = row_id;
          for (size_t a = 0; a < table.schema.attr_columns.size(); ++a) {
            row_image[1 + a] = attrs[a];
          }
          if (!bound->Eval(row_image.data())) return true;
        }
        heap.Push(Distance(stmt.metric, stmt.query.data(), vec,
                           table.schema.dim),
                  row_id);
        return true;
      }));
  VECDB_RETURN_NOT_OK(stop);
  QueryResult out;
  out.stats.rows_scanned = scanned;
  out.columns = stmt.select_distance
                    ? std::vector<std::string>{"id", "distance"}
                    : std::vector<std::string>{"id"};
  for (const auto& nb : heap.TakeSorted()) {
    out.rows.push_back({nb.id, nb.dist});
  }
  return out;
}

MiniDatabase::FilterPlan MiniDatabase::BuildFilterPlan(
    const TableEntry& table, const TableSnapshot& snap,
    const filter::BoundPredicate* bound) {
  const std::vector<std::vector<int64_t>>& columns = table.state->columns;
  const size_t n = snap.visible_rows;
  VECDB_DCHECK_EQ(columns[0].size(), n);
  const filter::SelectionVector* dead = snap.dead.get();
  FilterPlan plan;
  plan.selection = bound != nullptr ? bound->EvalColumns(columns, n)
                                    : filter::SelectionVector::All(n);
  if (dead != nullptr) plan.selection.AndNot(*dead);
  // The planner's estimate reads the exact bitmap at strided sample
  // positions (what an attribute-store EstimateSelectivity would see).
  constexpr size_t kSample = filter::kPlannerSampleRows;
  const size_t stride = n <= kSample ? 1 : (n + kSample - 1) / kSample;
  size_t sampled = 0;
  size_t sampled_matches = 0;
  for (size_t pos = 0; pos < n; pos += stride) {
    ++sampled;
    if (plan.selection.Test(pos)) ++sampled_matches;
  }
  plan.est_selectivity =
      sampled == 0 ? 1.0
                   : static_cast<double>(sampled_matches) /
                         static_cast<double>(sampled);
  return plan;
}

Result<QueryResult> MiniDatabase::ExecSelect(const SelectStmt& stmt,
                                             Session* session) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.table);
  }
  const TableEntry& table = it->second;
  if (!stmt.select_distance && stmt.select_column != table.schema.id_column) {
    return Status::InvalidArgument("can only select the id column ('" +
                                   table.schema.id_column + "') or *");
  }
  if (stmt.order_column != table.schema.vec_column) {
    return Status::InvalidArgument("ORDER BY column must be the vector "
                                   "column '" +
                                   table.schema.vec_column + "'");
  }
  if (stmt.query.size() != table.schema.dim) {
    return Status::InvalidArgument(
        "query vector has " + std::to_string(stmt.query.size()) +
        " dimensions, table expects " + std::to_string(table.schema.dim));
  }

  // Session defaults fill knobs the statement's OPTIONS (...) leaves
  // unset; explicit options always win.
  std::map<std::string, double> session_defaults;
  obs::MetricsRegistry* sink = nullptr;
  if (session != nullptr) {
    session_defaults = session->default_options();
    sink = session->metrics_sink();
  }
  auto option_or = [&](const std::string& key, double fallback) {
    auto opt = stmt.options.find(key);
    if (opt != stmt.options.end()) return opt->second;
    auto def = session_defaults.find(key);
    if (def != session_defaults.end()) return def->second;
    return fallback;
  };

  // Statement control: deadline (OPTIONS > SET default > DatabaseOptions;
  // 0 = none) and the session's cancel flag, carried by the same
  // QueryContext the engines already thread through their scan loops.
  // Statement OPTIONS bypass ExecSet, so the value is re-validated here.
  const double timeout_ms = option_or(
      "statement_timeout_ms", static_cast<double>(options_.statement_timeout_ms));
  VECDB_RETURN_NOT_OK(ValidateSessionOption("statement_timeout_ms", timeout_ms));
  QueryContext ctx;
  ctx.metrics = sink;
  if (session != nullptr) ctx.cancel = session->cancel_flag();
  if (timeout_ms > 0) {
    ctx.deadline_nanos = NowNanos() + static_cast<int64_t>(timeout_ms * 1e6);
  }

  // Bind the WHERE predicate (if any) against id + attribute columns.
  filter::BoundPredicate bound;
  const bool has_predicate = stmt.predicate != nullptr;
  if (has_predicate) {
    VECDB_ASSIGN_OR_RETURN(
        bound, filter::Bind(*stmt.predicate, PredicateColumns(table.schema)));
  }
  filter::FilterStrategy strategy = filter::FilterStrategy::kAuto;
  auto strat_it = stmt.string_options.find("filter_strategy");
  if (strat_it != stmt.string_options.end()) {
    VECDB_ASSIGN_OR_RETURN(strategy, filter::ParseStrategy(strat_it->second));
  }

  // Plan: an index scan needs an index on this column and an L2 operator
  // (the engines implement Euclidean distance, PASE similarity type 0).
  // A stale index lacks rows the heap has, so it is passed over.
  const IndexEntry* chosen = nullptr;
  std::string stale;  // stale indexes passed over, for EXPLAIN
  if (stmt.metric == Metric::kL2) {
    for (const auto& index_name : table.indexes) {
      auto idx = indexes_.find(index_name);
      if (idx == indexes_.end()) continue;
      if (idx->second.stale.load(std::memory_order_acquire)) {
        stale += (stale.empty() ? "" : ", ") + index_name;
        continue;
      }
      chosen = &idx->second;
      break;
    }
  }
  auto seq_scan = [&]() -> Result<QueryResult> {
    if (!stmt.explain) {
      return SeqScanSelect(stmt, table, has_predicate ? &bound : nullptr,
                           ctx);
    }
    QueryResult out;
    out.message = "Seq Scan on " + stmt.table + " (brute force, metric=" +
                  std::string(MetricName(stmt.metric)) + ") k=" +
                  std::to_string(stmt.limit);
    if (has_predicate) {
      out.message += " filter=" + filter::ToString(*stmt.predicate);
    }
    if (!stale.empty()) {
      out.message += " stale_index=" + stale +
                     " (lacks rows inserted since it was built; rebuilt on "
                     "next open)";
    }
    return out;
  };
  if (chosen == nullptr) return seq_scan();

  // Index scan (or its EXPLAIN). The table lock is held shared only to
  // load the snapshot and plan: no INSERT is mid-statement then, so the
  // snapshot's row count, the heap and the predicate columns agree. The
  // engine scan runs after the lock is released, bounded by that snapshot
  // (the selection's size, or AmScanOptions::visible_rows), while writers
  // append beside it under the engine's own latches.
  FilterPlan plan;
  uint64_t visible = 0;
  bool filtered = false;
  {
    ReaderMutexLock lock(table.state->mu);
    const TableSnapshot& snap =
        *table.state->snapshot.load(std::memory_order_acquire);
    // An INSERT may have made the index stale since the choice above.
    // Read after the snapshot: a writer marks it stale before publishing,
    // so an index not stale now holds every row the snapshot shows.
    if (chosen->stale.load(std::memory_order_acquire)) {
      stale = chosen->def.index;
      chosen = nullptr;
    } else {
      visible = snap.visible_rows;
      // A WHERE, or any dead row, makes the scan filtered: the selection
      // is the matching live positions. With neither, the snapshot has a
      // null bitmap and the scan takes the engine's unfiltered Search.
      filtered = has_predicate || snap.dead != nullptr;
      if (filtered) {
        plan = BuildFilterPlan(table, snap, has_predicate ? &bound : nullptr);
      }
    }
  }
  if (chosen == nullptr) return seq_scan();

  // No scan returns more rows than the snapshot holds, so a larger LIMIT
  // is clamped before it sizes a heap or the HNSW queue; EXPLAIN still
  // prints the LIMIT as written.
  const size_t k =
      std::min<size_t>(stmt.limit, std::max<uint64_t>(visible, 1));

  // EXPLAIN reports the same plan numbers the executor would use.
  if (stmt.explain) {
    QueryResult out;
    out.message = "Index Scan using " + chosen->def.index + " (" +
                  chosen->index->Describe() + ") k=" +
                  std::to_string(stmt.limit);
    if (has_predicate) {
      out.message += " filter=" + filter::ToString(*stmt.predicate);
    }
    if (filtered) {
      const filter::FilterStrategy effective =
          strategy == filter::FilterStrategy::kAuto
              ? filter::ChooseStrategy(plan.est_selectivity, k, visible)
              : strategy;
      out.message += " strategy=" +
                     std::string(filter::StrategyName(effective)) +
                     " est_selectivity=" +
                     std::to_string(plan.est_selectivity);
    }
    return out;
  }

  if (const uint64_t delay = options_.scan_delay_nanos_for_test) {
    // Test seam: stretch the scan past its plan, lock already released,
    // at the seq scan's per-row rate.
    for (uint64_t row = 0; row < visible; ++row) {
      VECDB_RETURN_NOT_OK(ctx.CheckStop("index scan"));
      BusyWait(delay);
    }
  }

  pgstub::AmScanOptions scan;
  scan.k = k;
  scan.visible_rows = visible;
  scan.nprobe = static_cast<uint32_t>(option_or("nprobe", 20));
  // Engines reject efs < k at the API boundary, so the default must track
  // the requested LIMIT.
  scan.efs = static_cast<uint32_t>(
      option_or("efs", std::max<double>(200, static_cast<double>(k))));
  // The context routes the engine's scan metrics into the session's sink
  // (process-wide registry when unset) and carries the cancel flag and
  // deadline into the engine scan loops.
  scan.ctx = ctx;
  if (filtered) {
    scan.filter.selection = &plan.selection;
    scan.filter.strategy = strategy;
    scan.filter.est_selectivity = plan.est_selectivity;
  }
  std::atomic<uint64_t> visited{0};
  scan.ctx.tuples_visited = &visited;
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<pgstub::IndexScanCursor> cursor,
                         chosen->am->AmBeginScan(stmt.query.data(), scan));
  QueryResult out;
  out.columns = stmt.select_distance
                    ? std::vector<std::string>{"id", "distance"}
                    : std::vector<std::string>{"id"};
  Neighbor nb;
  for (;;) {
    VECDB_ASSIGN_OR_RETURN(bool more, cursor->AmGetTuple(&nb));
    if (!more) break;
    out.rows.push_back({nb.id, nb.dist});
  }
  // The engine counted its tuples when the scan materialized in
  // AmBeginScan. Engines count only while metrics are on, so fall back to
  // the result size if the registry is off.
  out.stats.rows_scanned = std::max<uint64_t>(
      visited.load(std::memory_order_relaxed), out.rows.size());
  return out;
}

Result<QueryResult> MiniDatabase::ExecShow(const ShowStmt& stmt) {
  QueryResult out;
  if (stmt.what == ShowStmt::What::kSessions) {
    char line[192];
    out.message =
        "session  state   peer                   in_flight  statements  "
        "queued\n";
    for (const auto& session : sessions_->Snapshot()) {
      std::snprintf(line, sizeof(line),
                    "%-8llu %-7s %-22s %9u %11llu %7llu\n",
                    static_cast<unsigned long long>(session->id()),
                    session->closed() ? "closed" : "open",
                    session->peer().c_str(), session->inflight(),
                    static_cast<unsigned long long>(
                        session->statements_executed()),
                    static_cast<unsigned long long>(
                        session->statements_queued()));
      out.message += line;
    }
    std::snprintf(
        line, sizeof(line),
        "admission: running=%u queued=%zu max_concurrent=%u "
        "max_per_session=%u\n",
        admission_->running(), admission_->queued(),
        admission_->max_concurrent(), admission_->max_per_session());
    out.message += line;
    return out;
  }
  auto& metrics = obs::MetricsRegistry::Global();
  out.message = metrics.ExportTable();
  // Resolved kernel tier: a config fact, not a counter, so it rides along
  // as its own line like the wal.* gauge lines below.
  out.message +=
      std::string("distance.isa: ") + KernelIsaName(ActiveKernelIsa()) + "\n";
  if (wal_ != nullptr) {
    out.message += "wal.next_lsn: " + std::to_string(wal_->next_lsn()) + "\n";
    out.message +=
        "wal.size_bytes: " + std::to_string(wal_->size_bytes()) + "\n";
  }
  if (stmt.reset) metrics.ResetAll();
  return out;
}

Result<QueryResult> MiniDatabase::ExecCheckpoint() {
  VECDB_RETURN_NOT_OK(CheckpointLocked());
  QueryResult out;
  out.message = "CHECKPOINT";
  return out;
}

Result<QueryResult> MiniDatabase::ExecSet(const SetStmt& stmt,
                                          Session* session) {
  VECDB_RETURN_NOT_OK(ValidateSessionOption(stmt.name, stmt.value));
  if (session == nullptr) {
    return Status::InvalidArgument("SET requires a session");
  }
  session->SetDefaultOption(stmt.name, stmt.value);
  QueryResult out;
  out.message = "SET";
  return out;
}

Result<QueryResult> MiniDatabase::ExecCancel(const CancelStmt& stmt) {
  std::shared_ptr<Session> target = sessions_->Find(stmt.session_id);
  if (target == nullptr) {
    return Status::NotFound("no session with id " +
                            std::to_string(stmt.session_id));
  }
  // Fire-and-forget like pg_cancel_backend: the flag is set even when the
  // target has nothing in flight (the next-statement reset drops it), and
  // "CANCEL" is returned without waiting for the target to notice.
  target->RequestCancel();
  QueryResult out;
  out.message = "CANCEL";
  return out;
}

Result<QueryResult> MiniDatabase::ExecDelete(const DeleteStmt& stmt) {
  auto it = tables_.find(stmt.table);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.table);
  }
  TableEntry& table = it->second;
  if (stmt.predicate == nullptr) {
    return Status::InvalidArgument("DELETE requires a WHERE clause");
  }

  // Writers serialize on the table lock; readers keep seeing the
  // pre-statement snapshot until the single publish below.
  Timer wait;
  WriterMutexLock lock(table.state->mu);
  RecordWriteLockWait(wait);
  const TableSnapshot* snap =
      table.state->snapshot.load(std::memory_order_acquire);
  const filter::SelectionVector* dead = snap->dead.get();
  const size_t n = table.heap->num_rows();

  // The matching live positions, evaluated over the predicate columns;
  // deleting zero rows is not an error ("DELETE 0"), except that
  // `WHERE id = n` answers NotFound when no row carries the id, or every
  // row that does is already dead.
  const filter::Predicate& pred = *stmt.predicate;
  filter::BoundPredicate bound;
  VECDB_ASSIGN_OR_RETURN(bound,
                         filter::Bind(pred, PredicateColumns(table.schema)));
  filter::SelectionVector matches = bound.EvalColumns(table.state->columns, n);
  const bool by_id = pred.kind == filter::Predicate::Kind::kCompare &&
                     pred.op == filter::CmpOp::kEq &&
                     pred.column == table.schema.id_column;
  if (by_id && matches.CountSet() == 0) {
    return Status::NotFound("no row with id " + std::to_string(pred.value));
  }
  if (dead != nullptr) matches.AndNot(*dead);
  if (by_id && matches.CountSet() == 0) {
    return Status::NotFound("row " + std::to_string(pred.value) +
                            " already deleted");
  }

  // A delete mutates no heap page, so durability rides on one logical WAL
  // record listing the statement's dead positions (replayed into the
  // bitmap at recovery); it is logged before any position is published.
  std::vector<uint64_t> positions;
  matches.ForEachSet([&positions](size_t pos) { positions.push_back(pos); });
  if (!positions.empty()) {
    if (wal_ != nullptr) {
      VECDB_RETURN_NOT_OK(
          wal_->LogDeadRows(table.heap->rel(), positions).status());
    }
    // Copy-on-write: mark a private copy, publish it once.
    filter::SelectionVector next =
        dead != nullptr ? filter::SelectionVector::FromWords(n, dead->words())
                        : filter::SelectionVector(n);
    for (const uint64_t pos : positions) next.Set(pos);
    PublishSnapshot(table, snap->visible_rows,
                    std::make_shared<const filter::SelectionVector>(
                        std::move(next)));
  }
  QueryResult out;
  out.message = "DELETE " + std::to_string(positions.size());
  return out;
}

Result<QueryResult> MiniDatabase::ExecDrop(const DropStmt& stmt) {
  QueryResult out;
  if (stmt.is_index) {
    auto it = indexes_.find(stmt.name);
    if (it == indexes_.end()) {
      return Status::NotFound("no index named " + stmt.name);
    }
    if (it->second.has_snapshot) {
      (void)vfs_->Remove(
          SnapshotPath(stmt.name, it->second.rows_at_snapshot));
    }
    for (auto& [_, table] : tables_) {
      auto& list = table.indexes;
      list.erase(std::remove(list.begin(), list.end(), stmt.name),
                 list.end());
    }
    indexes_.erase(it);
    VECDB_RETURN_NOT_OK(SaveCatalogNow());
    // Page-resident engines (pase/bridge) park their data in relations
    // named off the index; reclaim them (best-effort — any leftover is
    // garbage-collected at the next Open).
    for (const char* suffix : {"_data", "_centroid", "_nbr"}) {
      auto rel = smgr_.FindRelation(stmt.name + suffix);
      if (rel.ok()) {
        (void)bufmgr_.InvalidateRelation(*rel);
        (void)smgr_.DropRelation(*rel);
      }
    }
    out.message = "DROP INDEX";
    return out;
  }
  auto it = tables_.find(stmt.name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + stmt.name);
  }
  if (!it->second.indexes.empty()) {
    return Status::InvalidArgument("drop indexes on " + stmt.name +
                                   " first");
  }
  const pgstub::RelId rel = it->second.heap->rel();
  // The exclusive catalog lock excludes every reader (epoch-pinned scans
  // hold the shared lock for their whole statement), so the entry — and
  // its current snapshot, freed by ~TableState — can go away immediately;
  // previously retired snapshots drain through the epoch manager.
  tables_.erase(it);
  // Catalog first, then the file: a crash in between leaves an orphan
  // relation that the next Open garbage-collects. The relation id is
  // never reused (smgr ids are monotonic), so WAL images logged for the
  // dropped table can never replay into a future one.
  VECDB_RETURN_NOT_OK(SaveCatalogNow());
  VECDB_RETURN_NOT_OK(bufmgr_.InvalidateRelation(rel));
  VECDB_RETURN_NOT_OK(smgr_.DropRelation(rel));
  out.message = "DROP TABLE";
  return out;
}

}  // namespace vecdb::sql
