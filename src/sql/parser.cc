#include "sql/parser.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "sql/lexer.h"

namespace vecdb::sql {

namespace {

/// Token stream with single-token lookahead and typed expect helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }

  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " near '" +
                                     Peek().text + "' (byte " +
                                     std::to_string(Peek().pos) + ")");
    }
    return Status::OK();
  }

  Status Expect(TokenType type, const char* what) {
    if (!Match(type)) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "' (byte " +
                                     std::to_string(Peek().pos) + ")");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    return Advance().text;
  }

  Result<double> ExpectNumber(const char* what) {
    if (Peek().type != TokenType::kNumber) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    return Advance().number;
  }

  /// An integer literal read exactly as int64: a fraction, an exponent or
  /// a value outside int64 is InvalidArgument, never rounded or truncated.
  Result<int64_t> ExpectInt(const char* what) {
    if (Peek().type != TokenType::kNumber) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    const std::string& text = Advance().text;
    int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument(std::string(what) + " out of range: " +
                                     text);
    }
    if (ec != std::errc() || end != text.data() + text.size()) {
      return Status::InvalidArgument(std::string(what) +
                                     " must be an integer, got " + text);
    }
    return value;
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// WITH/OPTIONS (key = value [, ...]) — numeric values go to `numeric`,
/// identifier/string values to `strings` (null: string values rejected).
/// Which string keys are legal is the caller's business.
Status ParseOptionList(Cursor& cur, std::map<std::string, double>* numeric,
                       std::map<std::string, std::string>* strings) {
  VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
  for (;;) {
    VECDB_ASSIGN_OR_RETURN(std::string key, cur.ExpectIdentifier("option"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kEquals, "'='"));
    if (cur.Peek().type == TokenType::kNumber) {
      (*numeric)[key] = cur.Advance().number;
    } else if (cur.Peek().type == TokenType::kString ||
               cur.Peek().type == TokenType::kIdentifier) {
      if (strings == nullptr) {
        return Status::InvalidArgument("option " + key +
                                       " requires a numeric value");
      }
      (*strings)[key] = cur.Advance().text;
    } else {
      return Status::InvalidArgument("bad value for option " + key);
    }
    if (cur.Match(TokenType::kComma)) continue;
    break;
  }
  return cur.Expect(TokenType::kRParen, "')'");
}

/// WHERE grammar (precedence: OR < AND < atom):
///   pred    := andExpr (OR andExpr)*
///   andExpr := atom (AND atom)*
///   atom    := '(' pred ')'
///            | column (= | != | <> | < | <= | > | >=) integer
///            | column IN '(' integer (',' integer)* ')'
Result<std::unique_ptr<filter::Predicate>> ParsePredicate(Cursor& cur);

Result<std::unique_ptr<filter::Predicate>> ParsePredicateAtom(Cursor& cur) {
  if (cur.Match(TokenType::kLParen)) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> inner,
                           ParsePredicate(cur));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    return inner;
  }
  VECDB_ASSIGN_OR_RETURN(std::string column,
                         cur.ExpectIdentifier("filter column"));
  if (cur.MatchKeyword("IN")) {
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    std::vector<int64_t> values;
    for (;;) {
      VECDB_ASSIGN_OR_RETURN(int64_t v, cur.ExpectInt("filter value"));
      values.push_back(v);
      if (cur.Match(TokenType::kComma)) continue;
      break;
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    return filter::Predicate::In(std::move(column), std::move(values));
  }
  filter::CmpOp op;
  switch (cur.Peek().type) {
    case TokenType::kEquals:
      op = filter::CmpOp::kEq;
      break;
    case TokenType::kNe:
      op = filter::CmpOp::kNe;
      break;
    case TokenType::kLt:
      op = filter::CmpOp::kLt;
      break;
    case TokenType::kLe:
      op = filter::CmpOp::kLe;
      break;
    case TokenType::kGt:
      op = filter::CmpOp::kGt;
      break;
    case TokenType::kGe:
      op = filter::CmpOp::kGe;
      break;
    default:
      return Status::InvalidArgument(
          "expected a comparison operator or IN after column '" + column +
          "' near '" + cur.Peek().text + "'");
  }
  cur.Advance();
  VECDB_ASSIGN_OR_RETURN(int64_t value, cur.ExpectInt("filter value"));
  return filter::Predicate::Compare(std::move(column), op, value);
}

Result<std::unique_ptr<filter::Predicate>> ParsePredicateAnd(Cursor& cur) {
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> lhs,
                         ParsePredicateAtom(cur));
  while (cur.MatchKeyword("AND")) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> rhs,
                           ParsePredicateAtom(cur));
    lhs = filter::Predicate::And(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<std::unique_ptr<filter::Predicate>> ParsePredicate(Cursor& cur) {
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> lhs,
                         ParsePredicateAnd(cur));
  while (cur.MatchKeyword("OR")) {
    VECDB_ASSIGN_OR_RETURN(std::unique_ptr<filter::Predicate> rhs,
                           ParsePredicateAnd(cur));
    lhs = filter::Predicate::Or(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Statement> ParseCreate(Cursor& cur) {
  if (cur.MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<CreateTableStmt>();
    VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    // id column
    VECDB_ASSIGN_OR_RETURN(stmt->id_column, cur.ExpectIdentifier("column"));
    if (!cur.MatchKeyword("INT") && !cur.MatchKeyword("BIGINT")) {
      return Status::InvalidArgument("first column must be INT or BIGINT");
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kComma, "','"));
    // vec column
    VECDB_ASSIGN_OR_RETURN(stmt->vec_column, cur.ExpectIdentifier("column"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FLOAT"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLBracket, "'['"));
    if (cur.Peek().type == TokenType::kNumber) {
      VECDB_ASSIGN_OR_RETURN(int64_t dim, cur.ExpectInt("dimension"));
      if (dim < 0 || dim > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("dimension out of range: " +
                                       std::to_string(dim));
      }
      stmt->dim = static_cast<uint32_t>(dim);
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRBracket, "']'"));
    // Optional scalar attribute columns: `, name INT|BIGINT` ...
    while (cur.Match(TokenType::kComma)) {
      VECDB_ASSIGN_OR_RETURN(std::string attr,
                             cur.ExpectIdentifier("attribute column"));
      if (!cur.MatchKeyword("INT") && !cur.MatchKeyword("BIGINT")) {
        return Status::InvalidArgument("attribute column " + attr +
                                       " must be INT or BIGINT");
      }
      if (attr == stmt->id_column || attr == stmt->vec_column ||
          std::find(stmt->attr_columns.begin(), stmt->attr_columns.end(),
                    attr) != stmt->attr_columns.end()) {
        return Status::InvalidArgument("duplicate column name: " + attr);
      }
      stmt->attr_columns.push_back(std::move(attr));
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    if (stmt->dim == 0) {
      return Status::InvalidArgument(
          "vector column needs an explicit dimension, e.g. vec float[128]");
    }
    Statement out;
    out.kind = Statement::Kind::kCreateTable;
    out.create_table = std::move(stmt);
    return out;
  }
  if (cur.MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    VECDB_ASSIGN_OR_RETURN(stmt->index, cur.ExpectIdentifier("index name"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("ON"));
    VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("USING"));
    VECDB_ASSIGN_OR_RETURN(stmt->method, cur.ExpectIdentifier("method"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    VECDB_ASSIGN_OR_RETURN(stmt->column, cur.ExpectIdentifier("column"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    if (cur.MatchKeyword("WITH")) {
      std::map<std::string, std::string> strings;
      VECDB_RETURN_NOT_OK(ParseOptionList(cur, &stmt->options, &strings));
      for (auto& [key, value] : strings) {
        if (key != "engine") {
          return Status::InvalidArgument("option " + key +
                                         " requires a numeric value");
        }
        stmt->engine = value;
      }
    }
    Statement out;
    out.kind = Statement::Kind::kCreateIndex;
    out.create_index = std::move(stmt);
    return out;
  }
  return Status::InvalidArgument("expected TABLE or INDEX after CREATE");
}

Result<Statement> ParseInsert(Cursor& cur) {
  auto stmt = std::make_unique<InsertStmt>();
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("INTO"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("VALUES"));
  for (;;) {
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kLParen, "'('"));
    InsertStmt::Row row;
    VECDB_ASSIGN_OR_RETURN(row.id, cur.ExpectInt("row id"));
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kComma, "','"));
    if (cur.Peek().type != TokenType::kString) {
      return Status::InvalidArgument("expected vector literal string");
    }
    VECDB_ASSIGN_OR_RETURN(row.vec, ParseVectorLiteral(cur.Advance().text));
    // Optional attribute values after the vector literal.
    while (cur.Match(TokenType::kComma)) {
      VECDB_ASSIGN_OR_RETURN(int64_t attr, cur.ExpectInt("attribute value"));
      row.attrs.push_back(attr);
    }
    VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kRParen, "')'"));
    stmt->rows.push_back(std::move(row));
    if (cur.Match(TokenType::kComma)) continue;
    break;
  }
  Statement out;
  out.kind = Statement::Kind::kInsert;
  out.insert = std::move(stmt);
  return out;
}

Result<Statement> ParseSelect(Cursor& cur, bool explain) {
  auto stmt = std::make_unique<SelectStmt>();
  stmt->explain = explain;
  if (cur.Match(TokenType::kStar)) {
    stmt->select_distance = true;
    stmt->select_column = "*";
  } else {
    VECDB_ASSIGN_OR_RETURN(stmt->select_column,
                           cur.ExpectIdentifier("select column"));
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FROM"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  if (cur.MatchKeyword("WHERE")) {
    VECDB_ASSIGN_OR_RETURN(stmt->predicate, ParsePredicate(cur));
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("ORDER"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("BY"));
  VECDB_ASSIGN_OR_RETURN(stmt->order_column,
                         cur.ExpectIdentifier("vector column"));
  if (cur.Peek().type != TokenType::kDistanceOp) {
    return Status::InvalidArgument("expected a distance operator (<->, <#>, "
                                   "<=>) after ORDER BY column");
  }
  const std::string op = cur.Advance().text;
  stmt->metric = op == "<->" ? Metric::kL2
                 : op == "<#>" ? Metric::kInnerProduct
                               : Metric::kCosine;
  if (cur.Peek().type != TokenType::kString) {
    return Status::InvalidArgument("expected quoted query vector literal");
  }
  VECDB_ASSIGN_OR_RETURN(stmt->query, ParseVectorLiteral(cur.Advance().text));
  cur.MatchKeyword("ASC");  // optional, and the only supported direction
  if (cur.MatchKeyword("OPTIONS")) {
    VECDB_RETURN_NOT_OK(
        ParseOptionList(cur, &stmt->options, &stmt->string_options));
    for (const auto& [key, value] : stmt->string_options) {
      if (key != "filter_strategy") {
        return Status::InvalidArgument("option " + key +
                                       " requires a numeric value");
      }
    }
  }
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("LIMIT"));
  VECDB_ASSIGN_OR_RETURN(int64_t limit, cur.ExpectInt("limit"));
  if (limit < 1) return Status::InvalidArgument("LIMIT must be >= 1");
  stmt->limit = static_cast<size_t>(limit);
  Statement out;
  out.kind = Statement::Kind::kSelect;
  out.select = std::move(stmt);
  return out;
}

Result<Statement> ParseDelete(Cursor& cur) {
  auto stmt = std::make_unique<DeleteStmt>();
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("FROM"));
  VECDB_ASSIGN_OR_RETURN(stmt->table, cur.ExpectIdentifier("table name"));
  VECDB_RETURN_NOT_OK(cur.ExpectKeyword("WHERE"));
  VECDB_ASSIGN_OR_RETURN(stmt->predicate, ParsePredicate(cur));
  Statement out;
  out.kind = Statement::Kind::kDelete;
  out.delete_row = std::move(stmt);
  return out;
}

Result<Statement> ParseShow(Cursor& cur) {
  auto stmt = std::make_unique<ShowStmt>();
  if (cur.MatchKeyword("METRICS")) {
    stmt->what = ShowStmt::What::kMetrics;
    stmt->reset = cur.MatchKeyword("RESET");
  } else if (cur.MatchKeyword("SESSIONS")) {
    stmt->what = ShowStmt::What::kSessions;
  } else {
    return Status::InvalidArgument("expected METRICS or SESSIONS after SHOW");
  }
  Statement out;
  out.kind = Statement::Kind::kShow;
  out.show = std::move(stmt);
  return out;
}

Result<Statement> ParseSet(Cursor& cur) {
  auto stmt = std::make_unique<SetStmt>();
  VECDB_ASSIGN_OR_RETURN(stmt->name, cur.ExpectIdentifier("option name"));
  VECDB_RETURN_NOT_OK(cur.Expect(TokenType::kEquals, "'='"));
  VECDB_ASSIGN_OR_RETURN(stmt->value, cur.ExpectNumber("option value"));
  Statement out;
  out.kind = Statement::Kind::kSet;
  out.set = std::move(stmt);
  return out;
}

Result<Statement> ParseCancel(Cursor& cur) {
  auto stmt = std::make_unique<CancelStmt>();
  VECDB_ASSIGN_OR_RETURN(int64_t id, cur.ExpectInt("session id"));
  if (id < 1) {
    return Status::InvalidArgument("CANCEL needs a positive session id");
  }
  stmt->session_id = static_cast<uint64_t>(id);
  Statement out;
  out.kind = Statement::Kind::kCancel;
  out.cancel = std::move(stmt);
  return out;
}

Result<Statement> ParseCheckpoint() {
  Statement out;
  out.kind = Statement::Kind::kCheckpoint;
  out.checkpoint = std::make_unique<CheckpointStmt>();
  return out;
}

Result<Statement> ParseDrop(Cursor& cur) {
  auto stmt = std::make_unique<DropStmt>();
  if (cur.MatchKeyword("INDEX")) {
    stmt->is_index = true;
  } else if (!cur.MatchKeyword("TABLE")) {
    return Status::InvalidArgument("expected TABLE or INDEX after DROP");
  }
  VECDB_ASSIGN_OR_RETURN(stmt->name, cur.ExpectIdentifier("name"));
  Statement out;
  out.kind = Statement::Kind::kDrop;
  out.drop = std::move(stmt);
  return out;
}

/// True if from_chars reads the element at text[i] exactly as strtof
/// does: an optional '-' then a digit or '.', and not a hex "0x" prefix.
/// Everything else (leading '+', whitespace other than space/tab that
/// strtof skips, hex, inf/nan, garbage) is left to strtof.
bool FromCharsReadsLikeStrtof(std::string_view text, size_t i) {
  const size_t j = i + (text[i] == '-' ? 1 : 0);
  if (j >= text.size()) return false;
  if (text[j] == '.') return true;
  if (text[j] < '0' || text[j] > '9') return false;
  return !(text[j] == '0' && j + 1 < text.size() &&
           (text[j + 1] == 'x' || text[j + 1] == 'X'));
}

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

/// strtof over the element at text[i]; returns the bytes it consumed (0:
/// no conversion). No float syntax contains ',' or ']', so strtof never
/// reads past them and the copy stops there.
size_t StrtofElement(std::string_view text, size_t i, float* value) {
  const std::string element(text.substr(i, text.find_first_of(",]", i) - i));
  char* end = nullptr;
  *value = std::strtof(element.c_str(), &end);
  return static_cast<size_t>(end - element.c_str());
}

}  // namespace

size_t ParseFloatFast(std::string_view text, float* value) {
  static constexpr double kPow10[] = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  constexpr int kMaxPow10 = 22;
  // At most this many mantissa digits, leading zeros included: w cannot
  // overflow, and longer forms go to from_chars.
  constexpr size_t kMaxDigits = 19;
  const char* p = text.data();
  const char* const end = p + text.size();
  const bool negative = p != end && *p == '-';
  p += negative ? 1 : 0;
  const char* const mantissa = p;
  uint64_t w = 0;
  for (; p != end && IsDigit(*p); ++p) {
    w = w * 10 + static_cast<uint64_t>(*p - '0');
  }
  size_t digits = static_cast<size_t>(p - mantissa);
  int q = 0;
  if (p != end && *p == '.') {
    const char* const fraction = ++p;
    for (; p != end && IsDigit(*p); ++p) {
      w = w * 10 + static_cast<uint64_t>(*p - '0');
    }
    q = -static_cast<int>(p - fraction);
    digits += static_cast<size_t>(p - fraction);
  }
  if (digits == 0 || digits > kMaxDigits) return 0;
  if (p != end && (*p == 'e' || *p == 'E')) {
    const char* e = p + 1;
    const bool exp_negative = e != end && *e == '-';
    if (e != end && (*e == '+' || *e == '-')) ++e;
    if (e != end && IsDigit(*e)) {
      int exp = 0;
      for (; e != end && IsDigit(*e); ++e) {
        exp = std::min(exp * 10 + (*e - '0'), 100000);
      }
      q += exp_negative ? -exp : exp;
      p = e;
    }
  }
  const size_t consumed = static_cast<size_t>(p - text.data());
  if (w == 0) {
    *value = negative ? -0.f : 0.f;
    return consumed;
  }
  if (w > (uint64_t{1} << 53) || q < -kMaxPow10 || q > kMaxPow10) return 0;
  const double d = q >= 0 ? static_cast<double>(w) * kPow10[q]
                          : static_cast<double>(w) / kPow10[-q];
  if (!(d >= std::numeric_limits<float>::min() &&
        d <= std::numeric_limits<float>::max())) {
    return 0;
  }
  // A normal float's ulp is 2^29 of the double's: a float midpoint has
  // exactly the top one of the 29 low mantissa bits set.
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  if ((bits & ((uint64_t{1} << 29) - 1)) == uint64_t{1} << 28) return 0;
  *value = static_cast<float>(negative ? -d : d);
  return consumed;
}

Result<std::vector<float>> ParseVectorLiteral(std::string_view text) {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), ',')) +
              1);
  size_t i = 0;
  const size_t n = text.size();
  auto skip_ws = [&] {
    while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
  };
  skip_ws();
  bool bracketed = false;
  if (i < n && text[i] == '[') {
    bracketed = true;
    ++i;
  }
  bool closed = !bracketed;
  for (;;) {
    skip_ws();
    if (i >= n) break;
    if (bracketed && text[i] == ']') {
      ++i;
      closed = true;
      break;
    }
    // The fast path and from_chars are correctly rounded, like strtof, so
    // all three agree on every value the first two accept; a range error
    // (strtof's ±inf, denormal or 0) goes to strtof for its value.
    float v = 0.f;
    size_t consumed = 0;
    if (FromCharsReadsLikeStrtof(text, i)) {
      consumed = ParseFloatFast(text.substr(i), &v);
      if (consumed == 0) {
        const char* first = text.data() + i;
        const auto [end, ec] = std::from_chars(first, text.data() + n, v);
        if (ec == std::errc()) consumed = static_cast<size_t>(end - first);
      }
    }
    if (consumed == 0) consumed = StrtofElement(text, i, &v);
    if (consumed == 0) {
      return Status::InvalidArgument("bad vector literal near '" +
                                     std::string(text.substr(i, 8)) + "'");
    }
    out.push_back(v);
    i += consumed;
    skip_ws();
    if (i < n && text[i] == ',') {
      ++i;
      skip_ws();
      if (i >= n || text[i] == ']') {
        return Status::InvalidArgument("trailing comma in vector literal");
      }
    }
  }
  if (!closed) return Status::InvalidArgument("unclosed '[' in vector literal");
  skip_ws();
  if (i != n) {
    return Status::InvalidArgument("trailing garbage in vector literal");
  }
  if (out.empty()) {
    return Status::InvalidArgument("empty vector literal");
  }
  return out;
}

Result<Statement> Parse(const std::string& input) {
  VECDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Cursor cur(std::move(tokens));

  Result<Statement> result = Status::InvalidArgument("empty statement");
  if (cur.MatchKeyword("CREATE")) {
    result = ParseCreate(cur);
  } else if (cur.MatchKeyword("INSERT")) {
    result = ParseInsert(cur);
  } else if (cur.MatchKeyword("SELECT")) {
    result = ParseSelect(cur, /*explain=*/false);
  } else if (cur.MatchKeyword("EXPLAIN")) {
    VECDB_RETURN_NOT_OK(cur.ExpectKeyword("SELECT"));
    result = ParseSelect(cur, /*explain=*/true);
  } else if (cur.MatchKeyword("DROP")) {
    result = ParseDrop(cur);
  } else if (cur.MatchKeyword("DELETE")) {
    result = ParseDelete(cur);
  } else if (cur.MatchKeyword("SHOW")) {
    result = ParseShow(cur);
  } else if (cur.MatchKeyword("CHECKPOINT")) {
    result = ParseCheckpoint();
  } else if (cur.MatchKeyword("SET")) {
    result = ParseSet(cur);
  } else if (cur.MatchKeyword("CANCEL")) {
    result = ParseCancel(cur);
  } else {
    return Status::InvalidArgument("unrecognized statement start: '" +
                                   cur.Peek().text + "'");
  }
  if (!result.ok()) return result;
  cur.Match(TokenType::kSemicolon);
  if (cur.Peek().type != TokenType::kEof) {
    return Status::InvalidArgument("trailing tokens after statement: '" +
                                   cur.Peek().text + "'");
  }
  return result;
}

}  // namespace vecdb::sql
