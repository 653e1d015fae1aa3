// Typed predicate trees over scalar attribute columns — the WHERE clause of
// a filtered vector search. A Predicate is a parse-time tree keyed by column
// name; Bind() resolves the names against a table's column list into a
// BoundPredicate. Its Eval() runs over one flat int64 row image (per
// tuple, as the lock-free heap scan reads it); EvalColumns() runs over
// whole columns a 64-row word at a time, producing the selection bitmap
// the filter strategies consume. The split mirrors PostgreSQL's parse-tree
// / plan-qual distinction: parse once, bind per table, evaluate per tuple
// or per column batch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "filter/selection.h"

namespace vecdb::filter {

/// Comparison operators on int64 attribute values.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// SQL spelling of `op` ("=", "!=", "<", "<=", ">", ">=").
const char* CmpOpName(CmpOp op);

/// One node of a predicate tree. Leaves are kCompare (`col op value`) or
/// kIn (`col IN (v, ...)`); interior nodes are kAnd / kOr over two children.
struct Predicate {
  enum class Kind : uint8_t { kCompare, kAnd, kOr, kIn };

  Kind kind = Kind::kCompare;
  std::string column;                ///< kCompare / kIn: attribute name
  CmpOp op = CmpOp::kEq;             ///< kCompare
  int64_t value = 0;                 ///< kCompare
  std::vector<int64_t> in_values;    ///< kIn
  std::unique_ptr<Predicate> lhs;    ///< kAnd / kOr
  std::unique_ptr<Predicate> rhs;    ///< kAnd / kOr

  static std::unique_ptr<Predicate> Compare(std::string column, CmpOp op,
                                            int64_t value);
  static std::unique_ptr<Predicate> In(std::string column,
                                       std::vector<int64_t> values);
  static std::unique_ptr<Predicate> And(std::unique_ptr<Predicate> lhs,
                                        std::unique_ptr<Predicate> rhs);
  static std::unique_ptr<Predicate> Or(std::unique_ptr<Predicate> lhs,
                                       std::unique_ptr<Predicate> rhs);

  /// Deep copy (statements holding predicates are copied into catalogs).
  std::unique_ptr<Predicate> Clone() const;
};

/// SQL rendering, fully parenthesized at interior nodes:
/// "(price < 50 AND tag IN (1, 3))".
std::string ToString(const Predicate& pred);

/// A predicate with column names resolved to row-image offsets. Row images
/// are flat int64 arrays laid out in the bound column order (for a SQL
/// table: id first, then the attribute columns in declaration order).
class BoundPredicate {
 public:
  /// True if the row satisfies the predicate. `row` must hold one value
  /// per bound column.
  bool Eval(const int64_t* row) const { return EvalNode(root_, row); }

  /// Evaluates rows [0, num_rows) stored column-major: `columns[c][pos]`
  /// is bound column c's value at row position pos (each column holds at
  /// least num_rows values). Bit pos of the result equals
  /// Eval(row image of pos). Each leaf compares its contiguous column into
  /// 64-bit words without branches (IN binary-searches the sorted list),
  /// and AND/OR combine whole words.
  SelectionVector EvalColumns(const std::vector<std::vector<int64_t>>& columns,
                              size_t num_rows) const;

  /// One flattened tree node; public so Bind()'s helpers can build the
  /// node array, but only Bind() constructs a usable BoundPredicate.
  struct Node {
    Predicate::Kind kind = Predicate::Kind::kCompare;
    int column = -1;  ///< row-image offset for kCompare / kIn
    CmpOp op = CmpOp::kEq;
    int64_t value = 0;
    std::vector<int64_t> in_values;  ///< sorted, for binary search
    int lhs = -1;
    int rhs = -1;
  };

 private:
  friend Result<BoundPredicate> Bind(const Predicate& pred,
                                     const std::vector<std::string>& columns);

  bool EvalNode(int node, const int64_t* row) const;
  /// Writes node's result for rows [0, num_rows) into `words`
  /// ((num_rows + 63) / 64 of them; bits past num_rows stay zero).
  void EvalNodeWords(int node,
                     const std::vector<std::vector<int64_t>>& columns,
                     size_t num_rows, uint64_t* words) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

/// Resolves every column reference in `pred` against `columns` (the row
/// image layout). Unknown columns are an InvalidArgument error.
Result<BoundPredicate> Bind(const Predicate& pred,
                            const std::vector<std::string>& columns);

}  // namespace vecdb::filter
