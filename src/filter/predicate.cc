#include "filter/predicate.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace vecdb::filter {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

std::unique_ptr<Predicate> Predicate::Compare(std::string column, CmpOp op,
                                              int64_t value) {
  auto out = std::make_unique<Predicate>();
  out->kind = Kind::kCompare;
  out->column = std::move(column);
  out->op = op;
  out->value = value;
  return out;
}

std::unique_ptr<Predicate> Predicate::In(std::string column,
                                         std::vector<int64_t> values) {
  auto out = std::make_unique<Predicate>();
  out->kind = Kind::kIn;
  out->column = std::move(column);
  out->in_values = std::move(values);
  return out;
}

std::unique_ptr<Predicate> Predicate::And(std::unique_ptr<Predicate> lhs,
                                          std::unique_ptr<Predicate> rhs) {
  auto out = std::make_unique<Predicate>();
  out->kind = Kind::kAnd;
  out->lhs = std::move(lhs);
  out->rhs = std::move(rhs);
  return out;
}

std::unique_ptr<Predicate> Predicate::Or(std::unique_ptr<Predicate> lhs,
                                         std::unique_ptr<Predicate> rhs) {
  auto out = std::make_unique<Predicate>();
  out->kind = Kind::kOr;
  out->lhs = std::move(lhs);
  out->rhs = std::move(rhs);
  return out;
}

std::unique_ptr<Predicate> Predicate::Clone() const {
  auto out = std::make_unique<Predicate>();
  out->kind = kind;
  out->column = column;
  out->op = op;
  out->value = value;
  out->in_values = in_values;
  if (lhs != nullptr) out->lhs = lhs->Clone();
  if (rhs != nullptr) out->rhs = rhs->Clone();
  return out;
}

std::string ToString(const Predicate& pred) {
  switch (pred.kind) {
    case Predicate::Kind::kCompare:
      return pred.column + " " + CmpOpName(pred.op) + " " +
             std::to_string(pred.value);
    case Predicate::Kind::kIn: {
      std::string out = pred.column + " IN (";
      for (size_t i = 0; i < pred.in_values.size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(pred.in_values[i]);
      }
      return out + ")";
    }
    case Predicate::Kind::kAnd:
      return "(" + ToString(*pred.lhs) + " AND " + ToString(*pred.rhs) + ")";
    case Predicate::Kind::kOr:
      return "(" + ToString(*pred.lhs) + " OR " + ToString(*pred.rhs) + ")";
  }
  return "?";
}

bool BoundPredicate::EvalNode(int node, const int64_t* row) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  switch (n.kind) {
    case Predicate::Kind::kCompare: {
      const int64_t v = row[n.column];
      switch (n.op) {
        case CmpOp::kEq: return v == n.value;
        case CmpOp::kNe: return v != n.value;
        case CmpOp::kLt: return v < n.value;
        case CmpOp::kLe: return v <= n.value;
        case CmpOp::kGt: return v > n.value;
        case CmpOp::kGe: return v >= n.value;
      }
      return false;
    }
    case Predicate::Kind::kIn:
      return std::binary_search(n.in_values.begin(), n.in_values.end(),
                                row[n.column]);
    case Predicate::Kind::kAnd:
      return EvalNode(n.lhs, row) && EvalNode(n.rhs, row);
    case Predicate::Kind::kOr:
      return EvalNode(n.lhs, row) || EvalNode(n.rhs, row);
  }
  return false;
}

namespace {

/// Packs pred(col[pos]) for pos in [0, num_rows) into `words`, 64 rows per
/// word, without branches. Each group of eight results is gathered as 0/1
/// bytes; multiplying by kPackBytes moves byte l's bit to bit 56 + l (no
/// two partial products share a bit, so nothing carries), and the top
/// byte is the group's eight selection bits. The eight groups are
/// independent, unlike a 64-step shift-and-OR chain into one word.
constexpr uint64_t kPackBytes = 0x0102040810204080ull;

template <typename Pred>
void PackWords(const int64_t* col, size_t num_rows, const Pred& pred,
               uint64_t* words) {
  const size_t full = num_rows / 64;
  for (size_t w = 0; w < full; ++w) {
    const int64_t* v = col + w * 64;
    uint64_t bits = 0;
    for (unsigned g = 0; g < 8; ++g) {
      uint64_t bytes = 0;
      for (unsigned l = 0; l < 8; ++l) {
        bytes |= static_cast<uint64_t>(pred(v[g * 8 + l])) << (8 * l);
      }
      bits |= ((bytes * kPackBytes) >> 56) << (8 * g);
    }
    words[w] = bits;
  }
  const size_t tail = num_rows % 64;
  if (tail != 0) {
    const int64_t* v = col + full * 64;
    uint64_t bits = 0;
    for (size_t b = 0; b < tail; ++b) {
      bits |= static_cast<uint64_t>(pred(v[b])) << b;
    }
    words[full] = bits;
  }
}

}  // namespace

SelectionVector BoundPredicate::EvalColumns(
    const std::vector<std::vector<int64_t>>& columns, size_t num_rows) const {
  std::vector<uint64_t> words((num_rows + 63) / 64);
  EvalNodeWords(root_, columns, num_rows, words.data());
  return SelectionVector::FromWords(num_rows, std::move(words));
}

void BoundPredicate::EvalNodeWords(
    int node, const std::vector<std::vector<int64_t>>& columns,
    size_t num_rows, uint64_t* words) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.kind == Predicate::Kind::kAnd || n.kind == Predicate::Kind::kOr) {
    EvalNodeWords(n.lhs, columns, num_rows, words);
    std::vector<uint64_t> rhs((num_rows + 63) / 64);
    EvalNodeWords(n.rhs, columns, num_rows, rhs.data());
    if (n.kind == Predicate::Kind::kAnd) {
      for (size_t w = 0; w < rhs.size(); ++w) words[w] &= rhs[w];
    } else {
      for (size_t w = 0; w < rhs.size(); ++w) words[w] |= rhs[w];
    }
    return;
  }
  const std::vector<int64_t>& column = columns[static_cast<size_t>(n.column)];
  VECDB_DCHECK_GE(column.size(), num_rows);
  const int64_t* col = column.data();
  const int64_t x = n.value;
  if (n.kind == Predicate::Kind::kIn) {
    const std::vector<int64_t>& list = n.in_values;
    PackWords(col, num_rows,
              [&list](int64_t v) {
                return std::binary_search(list.begin(), list.end(), v);
              },
              words);
    return;
  }
  switch (n.op) {
    case CmpOp::kEq:
      PackWords(col, num_rows, [x](int64_t v) { return v == x; }, words);
      break;
    case CmpOp::kNe:
      PackWords(col, num_rows, [x](int64_t v) { return v != x; }, words);
      break;
    case CmpOp::kLt:
      PackWords(col, num_rows, [x](int64_t v) { return v < x; }, words);
      break;
    case CmpOp::kLe:
      PackWords(col, num_rows, [x](int64_t v) { return v <= x; }, words);
      break;
    case CmpOp::kGt:
      PackWords(col, num_rows, [x](int64_t v) { return v > x; }, words);
      break;
    case CmpOp::kGe:
      PackWords(col, num_rows, [x](int64_t v) { return v >= x; }, words);
      break;
  }
}

namespace {

Result<int> BindNode(const Predicate& pred,
                     const std::vector<std::string>& columns,
                     std::vector<BoundPredicate::Node>* nodes);

Result<int> ResolveColumn(const std::string& name,
                          const std::vector<std::string>& columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return Status::InvalidArgument("predicate references unknown column '" +
                                 name + "'");
}

Result<int> BindNode(const Predicate& pred,
                     const std::vector<std::string>& columns,
                     std::vector<BoundPredicate::Node>* nodes) {
  BoundPredicate::Node node;
  node.kind = pred.kind;
  switch (pred.kind) {
    case Predicate::Kind::kCompare: {
      VECDB_ASSIGN_OR_RETURN(node.column, ResolveColumn(pred.column, columns));
      node.op = pred.op;
      node.value = pred.value;
      break;
    }
    case Predicate::Kind::kIn: {
      if (pred.in_values.empty()) {
        return Status::InvalidArgument("IN list for column '" + pred.column +
                                       "' is empty");
      }
      VECDB_ASSIGN_OR_RETURN(node.column, ResolveColumn(pred.column, columns));
      node.in_values = pred.in_values;
      std::sort(node.in_values.begin(), node.in_values.end());
      break;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      if (pred.lhs == nullptr || pred.rhs == nullptr) {
        return Status::InvalidArgument("AND/OR predicate missing a child");
      }
      VECDB_ASSIGN_OR_RETURN(node.lhs, BindNode(*pred.lhs, columns, nodes));
      VECDB_ASSIGN_OR_RETURN(node.rhs, BindNode(*pred.rhs, columns, nodes));
      break;
    }
  }
  nodes->push_back(std::move(node));
  return static_cast<int>(nodes->size() - 1);
}

}  // namespace

Result<BoundPredicate> Bind(const Predicate& pred,
                            const std::vector<std::string>& columns) {
  BoundPredicate out;
  VECDB_ASSIGN_OR_RETURN(out.root_, BindNode(pred, columns, &out.nodes_));
  return out;
}

}  // namespace vecdb::filter
