// MiniDatabase: the SQL front end tying the substrate together — catalog,
// planner, and executor for the paper's §II-E interface. Statements flow
// lexer -> parser -> plan (index scan vs. sequential scan) -> execution
// against pgstub heap tables and any of the three engines' indexes.
//
// Concurrency (docs/SESSIONS.md): statements arrive through Session
// handles (sql/session.h) and run concurrently under a two-level locking
// scheme. catalog_mu_ is taken exclusively by DDL (CREATE/DROP/
// CHECKPOINT) and shared by DML/queries, so the table and index maps are
// stable while statements run. Each table adds a writer lock: INSERT and
// DELETE take it exclusively for the whole statement. Readers read the
// table's published TableSnapshot — a bounded row count plus a
// dead-position bitmap that writers replace atomically and retire through
// the epoch manager (pgstub/epoch.h) — so they always observe a
// statement-atomic prefix of the heap. A sequential scan takes no table
// lock at all: it pins an epoch and scans the snapshot's heap prefix. An
// index scan takes the table lock shared only while it loads the snapshot
// and builds its filter plan, then runs the engine scan unlocked, bounded
// by that snapshot; each engine guards its own appends (VectorIndex's
// contract: searches run beside one Insert), as PostgreSQL's buffer
// content locks do for a page at a time.
//
// Deletes (docs/SQL_REFERENCE.md): as in PostgreSQL, a DELETE never
// touches an index. It marks heap positions in the snapshot's bitmap, and
// that bitmap alone decides visibility: the seq scan tests it by scan
// position, and an index scan on a table with any dead position runs
// filtered, with the dead positions cleared from its selection. Index
// positions are heap positions (VectorIndexAm maps them to row ids).
//
// Filtering (docs/FILTERING.md): each table also keeps its predicate
// columns (id, then the INT attributes) as dense in-memory arrays indexed
// by heap position, guarded by the table lock. Filtered index scans build
// their selection bitmap, and DELETEs find their rows, from those arrays
// — no heap page is read and no buffer pinned. The arrays are
// derived data: appended with every heap insert, rebuilt from the heap at
// Open, never written to disk.
//
// Durability (docs/DURABILITY.md): Open() recovers a restarted database —
// the storage manager re-attaches relations from its manifest, ARIES-lite
// REDO replays WAL full-page images and dead positions, the durable
// catalog restores schemas, and indexes are rebuilt from the recovered
// heap (or reloaded from checkpoint snapshots under IndexRecovery::kReload).
// Checkpoint() enforces the WAL protocol ordering: dirty pages and the
// catalog reach storage BEFORE the checkpoint record claims they did, and
// the log is rotated so its size stays bounded.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/index.h"
#include "filter/predicate.h"
#include "filter/selection.h"
#include "pgstub/bufmgr.h"
#include "pgstub/epoch.h"
#include "pgstub/heap_table.h"
#include "pgstub/index_am.h"
#include "pgstub/smgr.h"
#include "pgstub/vfs.h"
#include "pgstub/wal.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace vecdb::sql {

class Session;
class SessionManager;
class AdmissionController;

/// Result of one statement: DDL/DML return a message, SELECT returns rows.
/// The struct is a plain value (no references into database state), so a
/// result remains valid after the statement completes, after later
/// statements run, and across threads.
struct QueryResult {
  struct Row {
    int64_t id = 0;
    double distance = 0.0;
  };
  /// Per-statement execution statistics, filled by Session::Execute().
  struct ExecStats {
    double wall_seconds = 0.0;   ///< end-to-end statement latency
    uint64_t rows_scanned = 0;   ///< tuples the executor visited
    uint64_t rows_returned = 0;  ///< rows in the result set
  };
  std::vector<std::string> columns;  ///< "id" or {"id", "distance"}
  std::vector<Row> rows;
  std::string message;  ///< DDL acknowledgements and EXPLAIN plans
  ExecStats stats;
};

/// How Open() brings indexes back after a restart.
enum class IndexRecovery {
  /// Rebuild every index from the recovered heap (always correct; build
  /// cost proportional to data size — PostgreSQL REINDEX).
  kRebuild,
  /// Reload each index that supports VectorIndex::Save/Load (faiss
  /// ivfflat, ivfpq, ivfsq8, hnsw) from the snapshot taken at the last
  /// checkpoint, then top up with post-snapshot rows from the heap; falls
  /// back to kRebuild per index when no usable snapshot exists. Deletes
  /// need no top-up: they live in the table's dead-position bitmap.
  kReload,
};

/// Configuration for MiniDatabase::Open.
struct DatabaseOptions {
  uint32_t page_size = 8192;   ///< PostgreSQL default block size
  size_t pool_pages = 65536;   ///< buffer pool frames (512MB at 8KB)
  /// Filesystem the database runs on; null = the real one. Tests inject a
  /// pgstub::FaultInjectionVfs here to crash at chosen byte offsets.
  pgstub::Vfs* vfs = nullptr;
  /// Write-ahead logging. Off, a crash loses everything since the last
  /// FlushAll; the paper's "specialized system" operating point.
  bool wal_enabled = true;
  /// Auto-checkpoint once the WAL exceeds this many bytes (checked after
  /// each statement); 0 disables auto-checkpointing (CHECKPOINT only).
  uint64_t checkpoint_wal_bytes = 16ull << 20;
  IndexRecovery index_recovery = IndexRecovery::kRebuild;
  /// Statements executing at once across all sessions; excess statements
  /// queue FIFO in the admission controller (must be >= 1).
  uint32_t max_concurrent_queries = 8;
  /// Statements one session may have in flight at once (must be >= 1);
  /// keeps a single session from monopolizing the admission slots.
  uint32_t max_inflight_per_session = 4;
  /// Database-wide default statement deadline in milliseconds; 0 disables.
  /// A session's `SET statement_timeout_ms = n` overrides it, and a
  /// statement's OPTIONS (statement_timeout_ms = n) overrides both. Must
  /// be <= 24h (validated at Open; the same cap applies to the overrides).
  uint32_t statement_timeout_ms = 0;
  /// Test seam: invoked with the session id after a statement is admitted
  /// and before it executes. Lets tests park admitted statements to pin
  /// the admission state. Never set in production code.
  std::function<void(uint64_t)> statement_hook_for_test;
  /// Test seam: per-row busy-wait (nanoseconds) in scans — each row of a
  /// sequential scan, and one wait per visible row in an index scan after
  /// its plan (table lock released) — so cancellation, timeout and
  /// concurrency tests get a reliably long statement without giant
  /// datasets. Never set in production code.
  uint64_t scan_delay_nanos_for_test = 0;
};

/// A multi-session vector database over the pgstub substrate. Statements
/// run through Session handles (CreateSession); src/net's VecServer puts
/// the same Session API behind a TCP wire protocol.
class MiniDatabase {
 public:
  /// Opens (creating if needed) a database rooted at `data_dir`, running
  /// crash recovery if the directory has prior state.
  static Result<std::unique_ptr<MiniDatabase>> Open(
      const std::string& data_dir, const DatabaseOptions& options = {});

  ~MiniDatabase();

  /// Creates a new session (the canonical way to execute statements).
  std::shared_ptr<Session> CreateSession();

  /// Parses and executes one statement on behalf of `session` (nullable:
  /// no session defaults apply). Called by Session::Execute AFTER
  /// admission; callers other than Session bypass admission control.
  Result<QueryResult> ExecuteForSession(const std::string& statement,
                                        Session* session)
      VECDB_EXCLUDES(catalog_mu_);

  /// Forces a checkpoint: index snapshots (kReload), dirty pages, smgr
  /// sync, catalog, THEN the checkpoint record, then WAL rotation. The
  /// ordering is the point — logging the record first would let replay
  /// skip images of pages that never reached storage. Takes the catalog
  /// lock exclusively (quiesces every in-flight statement).
  Status Checkpoint() VECDB_EXCLUDES(catalog_mu_);

  pgstub::BufferManager* bufmgr() { return &bufmgr_; }
  pgstub::StorageManager* smgr() { return &smgr_; }
  pgstub::WalManager* wal() { return wal_.get(); }
  pgstub::EpochManager* epochs() { return &epochs_; }
  AdmissionController* admission() { return admission_.get(); }
  SessionManager* session_manager() { return sessions_.get(); }
  const DatabaseOptions& options() const { return options_; }

 private:
  /// What a reader sees of a table: the number of heap rows published (a
  /// statement-atomic prefix — INSERT publishes once per statement) and
  /// the dead heap positions as of publication. Writers replace the whole
  /// object under the table writer lock and Retire() the old one; readers
  /// pin an epoch (or hold the table lock), acquire-load the pointer, and
  /// may then dereference it for the duration of the pin.
  struct TableSnapshot {
    uint64_t visible_rows = 0;
    /// Set bit = dead heap position; positions at or past its size are
    /// live. Null when no row is dead. Shared so INSERT (which does not
    /// change it) reuses it and DELETE copies it on write.
    std::shared_ptr<const filter::SelectionVector> dead;
  };
  /// Per-table concurrency state, held by unique_ptr so TableEntry stays
  /// movable while the mutex and atomic stay pinned in memory.
  struct TableState {
    explicit TableState(size_t num_columns) : columns(num_columns) {}
    ~TableState() { delete snapshot.load(std::memory_order_acquire); }

    /// Serializes table writers for their whole statement. An index scan
    /// holds it shared only to load the snapshot and build its filter
    /// plan (never across an engine call); seq scans do not take it.
    SharedMutex mu;
    std::atomic<const TableSnapshot*> snapshot{nullptr};
    /// The predicate columns in PredicateColumns() order (id, then the
    /// attributes in declaration order): columns[c][pos] is column c of
    /// heap row pos. InsertRowsLocked appends right after each successful
    /// heap insert, so every column's length equals heap->num_rows()
    /// whenever `mu` is free; RecoverFrom rebuilds them at Open.
    std::vector<std::vector<int64_t>> columns VECDB_GUARDED_BY(mu);
  };
  struct TableEntry {
    CreateTableStmt schema;
    std::unique_ptr<pgstub::HeapTable> heap;
    std::vector<std::string> indexes;  ///< names of indexes on this table
    std::unique_ptr<TableState> state;
  };
  struct IndexEntry {
    CreateIndexStmt def;
    std::unique_ptr<VectorIndex> index;
    std::unique_ptr<pgstub::VectorIndexAm> am;
    /// Snapshot bookkeeping (kReload policy), persisted in the catalog.
    bool has_snapshot = false;
    uint64_t rows_at_snapshot = 0;
    /// Set (under the table writer lock, before the statement publishes
    /// its snapshot) when the engine refused a row with NotSupported: the
    /// index lacks rows the heap has, so SELECT plans a seq scan instead,
    /// and the next Open rebuilds it. Atomic because the planner reads it
    /// before taking the table lock; the index scan re-reads it under
    /// that lock after loading its snapshot. Entries live in place in
    /// `indexes_` (std::map nodes never move).
    std::atomic<bool> stale{false};
  };

  /// Defined in database.cc: member destructors (instantiated for
  /// exception cleanup) need the complete Session/Admission types.
  MiniDatabase(pgstub::StorageManager smgr, pgstub::Vfs* vfs,
               const DatabaseOptions& options);

  /// DDL dispatch: CREATE TABLE / CREATE INDEX / DROP / CHECKPOINT.
  Result<QueryResult> DispatchDdl(const Statement& stmt)
      VECDB_REQUIRES(catalog_mu_);
  /// DML/query dispatch: INSERT / SELECT / DELETE / SHOW.
  Result<QueryResult> DispatchShared(const Statement& stmt, Session* session)
      VECDB_REQUIRES_SHARED(catalog_mu_);

  Result<QueryResult> ExecCreateTable(const CreateTableStmt& stmt)
      VECDB_REQUIRES(catalog_mu_);
  Result<QueryResult> ExecInsert(const InsertStmt& stmt)
      VECDB_REQUIRES_SHARED(catalog_mu_);
  Result<QueryResult> ExecCreateIndex(const CreateIndexStmt& stmt)
      VECDB_REQUIRES(catalog_mu_);
  Result<QueryResult> ExecSelect(const SelectStmt& stmt, Session* session)
      VECDB_REQUIRES_SHARED(catalog_mu_);
  Result<QueryResult> ExecDrop(const DropStmt& stmt)
      VECDB_REQUIRES(catalog_mu_);
  Result<QueryResult> ExecDelete(const DeleteStmt& stmt)
      VECDB_REQUIRES_SHARED(catalog_mu_);
  Result<QueryResult> ExecShow(const ShowStmt& stmt)
      VECDB_REQUIRES_SHARED(catalog_mu_);
  Result<QueryResult> ExecCheckpoint() VECDB_REQUIRES(catalog_mu_);
  /// SET/CANCEL touch only session state, never the catalog: they run
  /// before the lock split in ExecuteForSession.
  Result<QueryResult> ExecSet(const SetStmt& stmt, Session* session);
  Result<QueryResult> ExecCancel(const CancelStmt& stmt);

  /// Checkpoint body, for callers already holding the catalog lock.
  Status CheckpointLocked() VECDB_REQUIRES(catalog_mu_);

  /// The published dead-position bitmap of `table`; null when no row is
  /// dead. Callable wherever the snapshot pointer may be dereferenced:
  /// under the table lock, under an epoch pin, or under the exclusive
  /// catalog lock (which excludes all writers).
  static const filter::SelectionVector* DeadPositions(const TableEntry& table);

  /// Swaps in a new TableSnapshot (release-store) and retires the old one
  /// through the epoch manager. Call once per mutating statement, under
  /// the table writer lock, AFTER the heap/index mutations it publishes.
  void PublishSnapshot(TableEntry& table, uint64_t visible_rows,
                       std::shared_ptr<const filter::SelectionVector> dead);

  /// Inserts the statement's rows into the heap, the predicate columns
  /// and every index; split out of ExecInsert so the snapshot publish
  /// runs exactly once on every exit path (rows inserted before a failure
  /// are still published).
  Status InsertRowsLocked(TableEntry& table, const InsertStmt& stmt)
      VECDB_REQUIRES_SHARED(catalog_mu_) VECDB_REQUIRES(table.state->mu);

  /// Rebuilds the in-memory state (tables_, indexes_) from the durable
  /// catalog after REDO; `wal_tombstones` are deletes newer than the
  /// catalog's, keyed by heap relation id. A dead position at or past a
  /// table's heap row count is Corruption.
  Status RecoverFrom(const Catalog& catalog,
                     const std::vector<pgstub::WalTombstone>& wal_tombstones)
      VECDB_REQUIRES(catalog_mu_);

  /// kReload fast path for one index; returns false (after cleaning up)
  /// when the snapshot is unusable and the caller should rebuild.
  bool TryReloadIndex(const CatalogIndex& cat, const TableEntry& table,
                      IndexEntry* entry);

  /// CREATE INDEX and recovery's rebuild path: a fresh index, AmBuild
  /// over every heap row, dead ones included (scans filter them).
  Status BuildIndex(const TableEntry& table, IndexEntry* entry);

  /// Serializes tables_/indexes_ into the durable catalog (temp + rename).
  Status SaveCatalogNow() const VECDB_REQUIRES_SHARED(catalog_mu_);

  /// Path of index `name`'s snapshot covering `rows` heap rows. The row
  /// count is part of the name so a snapshot written for a newer state
  /// can never be paired with an older catalog entry.
  std::string SnapshotPath(const std::string& name, uint64_t rows) const;

  /// Instantiates an engine index per (method, engine) for `dim`.
  Result<std::unique_ptr<VectorIndex>> MakeIndex(const CreateIndexStmt& stmt,
                                                 uint32_t dim);

  /// Brute-force fallback when no usable index exists. `bound` (nullable)
  /// is the bound WHERE predicate. Lock-free: scans the published
  /// snapshot's heap prefix under an epoch pin, concurrent with writers.
  /// `ctx` carries the statement's cancel flag and deadline, checked every
  /// few hundred rows.
  Result<QueryResult> SeqScanSelect(const SelectStmt& stmt,
                                    const TableEntry& table,
                                    const filter::BoundPredicate* bound,
                                    const QueryContext& ctx);

  /// The exact position-indexed selection bitmap over `snap`'s visible
  /// rows plus a strided sampled selectivity estimate: the rows `bound`
  /// matches (every row when null), minus the snapshot's dead positions,
  /// evaluated over the table's predicate columns: no heap page is read.
  /// Caller must hold the table lock (any mode) and have loaded `snap`
  /// under it, which keeps the columns, the heap and the snapshot in step.
  struct FilterPlan {
    filter::SelectionVector selection;
    double est_selectivity = 1.0;
  };
  static FilterPlan BuildFilterPlan(const TableEntry& table,
                                    const TableSnapshot& snap,
                                    const filter::BoundPredicate* bound)
      VECDB_REQUIRES_SHARED(table.state->mu);

  DatabaseOptions options_;
  pgstub::Vfs* vfs_;
  pgstub::StorageManager smgr_;
  pgstub::BufferManager bufmgr_;
  std::unique_ptr<pgstub::WalManager> wal_;
  /// Defers TableSnapshot frees past the last lock-free reader. Declared
  /// before tables_ so pending deleters run after entries are gone.
  pgstub::EpochManager epochs_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<SessionManager> sessions_;
  /// Lock order: catalog_mu_ before any TableState::mu; session/admission
  /// mutexes are leaves.
  mutable SharedMutex catalog_mu_;
  std::map<std::string, TableEntry> tables_ VECDB_GUARDED_BY(catalog_mu_);
  std::map<std::string, IndexEntry> indexes_ VECDB_GUARDED_BY(catalog_mu_);
};

}  // namespace vecdb::sql
