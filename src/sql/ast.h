// Abstract syntax tree for the vecdb SQL dialect.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "distance/metric.h"
#include "filter/predicate.h"

namespace vecdb::sql {

/// CREATE TABLE t (id int, vec float[dim] [, attr int ...]);
struct CreateTableStmt {
  std::string table;
  std::string id_column;
  std::string vec_column;
  uint32_t dim = 0;  ///< required: float[dim]
  /// Scalar attribute columns (INT/BIGINT), stored as int64 in the heap.
  std::vector<std::string> attr_columns;
};

/// INSERT INTO t VALUES (1, '0.1,0.2' [, attr ...]), ...;
struct InsertStmt {
  std::string table;
  struct Row {
    int64_t id;
    std::vector<float> vec;
    std::vector<int64_t> attrs;  ///< one value per attr column
  };
  std::vector<Row> rows;
};

/// CREATE INDEX name ON t USING method (vec) WITH (key=value, ...);
struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::string method;  ///< "ivfflat" | "ivfpq" | "hnsw"
  std::string column;
  /// Numeric options (clusters, sample_ratio, m, bnn, efb, ...) plus the
  /// string option engine='pase'|'faiss'|'bridge'.
  std::map<std::string, double> options;
  std::string engine = "pase";
};

/// SELECT id FROM t [WHERE pred] ORDER BY vec <-> 'q' [OPTIONS (...)]
/// LIMIT k;
struct SelectStmt {
  std::string table;
  std::string select_column;      ///< must be the id column or '*'
  bool select_distance = false;   ///< SELECT *: id plus distance
  std::string order_column;
  Metric metric = Metric::kL2;    ///< from <->, <#>, <=>
  std::vector<float> query;
  /// WHERE clause over the id/attribute columns (null: unfiltered).
  std::unique_ptr<filter::Predicate> predicate;
  std::map<std::string, double> options;  ///< nprobe, efs, threads
  /// String-valued options; filter_strategy=prefilter|postfilter|infilter
  /// overrides the planner.
  std::map<std::string, std::string> string_options;
  size_t limit = 0;
  bool explain = false;
};

/// DROP TABLE t; / DROP INDEX name;
struct DropStmt {
  bool is_index = false;
  std::string name;
};

/// DELETE FROM t WHERE <pred>; — any predicate over the id/attribute
/// columns (the executor keeps a fast path for `id = n`).
struct DeleteStmt {
  std::string table;
  std::unique_ptr<filter::Predicate> predicate;
};

/// SHOW METRICS; / SHOW METRICS RESET; / SHOW SESSIONS;
struct ShowStmt {
  enum class What {
    kMetrics,   ///< registry export plus WAL gauge lines
    kSessions,  ///< per-session table: id, state, statements, in-flight
  };
  What what = What::kMetrics;
  bool reset = false;  ///< METRICS only: zero counters/histograms after
};

/// CHECKPOINT; — force dirty pages to storage, persist the catalog, log a
/// checkpoint record, and rotate the WAL (PostgreSQL's CHECKPOINT command).
struct CheckpointStmt {};

/// SET name = value; — a session-default numeric knob (nprobe, efs,
/// statement_timeout_ms), merged into later statements that do not set it
/// explicitly in OPTIONS (...). Knob names and ranges are validated by the
/// executor; PostgreSQL's `SET` with session scope.
struct SetStmt {
  std::string name;
  double value = 0.0;
};

/// CANCEL <session-id>; — request cancellation of the target session's
/// in-flight statement. The statement aborts with a Cancelled error at its
/// next engine checkpoint; the target session (and its connection) stay
/// usable. PostgreSQL's pg_cancel_backend().
struct CancelStmt {
  uint64_t session_id = 0;
};

/// A parsed statement (exactly one member is set).
struct Statement {
  enum class Kind {
    kCreateTable,
    kInsert,
    kCreateIndex,
    kSelect,
    kDrop,
    kDelete,
    kShow,
    kCheckpoint,
    kSet,
    kCancel,
  } kind;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<DropStmt> drop;
  std::unique_ptr<DeleteStmt> delete_row;
  std::unique_ptr<ShowStmt> show;
  std::unique_ptr<CheckpointStmt> checkpoint;
  std::unique_ptr<SetStmt> set;
  std::unique_ptr<CancelStmt> cancel;
};

}  // namespace vecdb::sql
