#include "sql/parser.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace vecdb::sql {
namespace {

/// The vector-literal parser as it was before it read elements in place
/// with from_chars, kept as the oracle for the differential test. It has
/// since learned the grammar's two later rejections: an unclosed '[' and a
/// trailing comma.
Result<std::vector<float>> StrtofParseVectorLiteral(const std::string& text) {
  std::vector<float> out;
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
    char* end = nullptr;
    const float v = std::strtof(text.c_str() + i, &end);
    if (end == text.c_str() + i) {
      return Status::InvalidArgument("bad vector literal near '" +
                                     text.substr(i, 8) + "'");
    }
    out.push_back(v);
    i = static_cast<size_t>(end - text.c_str());
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

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE items (id int, vec float[128]);")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt.create_table->table, "items");
  EXPECT_EQ(stmt.create_table->id_column, "id");
  EXPECT_EQ(stmt.create_table->vec_column, "vec");
  EXPECT_EQ(stmt.create_table->dim, 128u);
}

TEST(ParserTest, CreateTableRequiresDimension) {
  EXPECT_FALSE(Parse("CREATE TABLE t (id int, vec float[])").ok());
}

TEST(ParserTest, CreateTableBadColumnType) {
  EXPECT_FALSE(Parse("CREATE TABLE t (id float[3], vec float[3])").ok());
}

TEST(ParserTest, InsertSingleAndMultiRow) {
  auto stmt =
      Parse("INSERT INTO t VALUES (1, '0.1,0.2'), (2, '[0.3, 0.4]');")
          .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kInsert);
  ASSERT_EQ(stmt.insert->rows.size(), 2u);
  EXPECT_EQ(stmt.insert->rows[0].id, 1);
  ASSERT_EQ(stmt.insert->rows[0].vec.size(), 2u);
  EXPECT_FLOAT_EQ(stmt.insert->rows[0].vec[1], 0.2f);
  EXPECT_FLOAT_EQ(stmt.insert->rows[1].vec[0], 0.3f);
}

TEST(ParserTest, CreateIndexWithOptions) {
  auto stmt = Parse("CREATE INDEX idx ON t USING ivfflat (vec) "
                    "WITH (clusters=256, sample_ratio=0.01, engine='faiss')")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateIndex);
  EXPECT_EQ(stmt.create_index->index, "idx");
  EXPECT_EQ(stmt.create_index->method, "ivfflat");
  EXPECT_EQ(stmt.create_index->column, "vec");
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("clusters"), 256);
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("sample_ratio"), 0.01);
  EXPECT_EQ(stmt.create_index->engine, "faiss");
}

TEST(ParserTest, CreateIndexDefaultEngineIsPase) {
  auto stmt =
      Parse("CREATE INDEX idx ON t USING hnsw (vec) WITH (bnn=16)")
          .ValueOrDie();
  EXPECT_EQ(stmt.create_index->engine, "pase");
  EXPECT_DOUBLE_EQ(stmt.create_index->options.at("bnn"), 16);
}

TEST(ParserTest, SelectTopK) {
  auto stmt = Parse("SELECT id FROM t ORDER BY vec <-> '0.1,0.2,0.3' ASC "
                    "LIMIT 10;")
                  .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt.select->table, "t");
  EXPECT_EQ(stmt.select->select_column, "id");
  EXPECT_EQ(stmt.select->order_column, "vec");
  EXPECT_EQ(stmt.select->metric, Metric::kL2);
  ASSERT_EQ(stmt.select->query.size(), 3u);
  EXPECT_EQ(stmt.select->limit, 10u);
}

TEST(ParserTest, SelectWithOptionsAndStar) {
  auto stmt = Parse("SELECT * FROM t ORDER BY vec <-> '[1,2]' "
                    "OPTIONS (nprobe=50, efs=100) LIMIT 5")
                  .ValueOrDie();
  EXPECT_TRUE(stmt.select->select_distance);
  EXPECT_DOUBLE_EQ(stmt.select->options.at("nprobe"), 50);
  EXPECT_DOUBLE_EQ(stmt.select->options.at("efs"), 100);
}

TEST(ParserTest, SelectMetricOperators) {
  EXPECT_EQ(Parse("SELECT id FROM t ORDER BY v <#> '1' LIMIT 1")
                .ValueOrDie()
                .select->metric,
            Metric::kInnerProduct);
  EXPECT_EQ(Parse("SELECT id FROM t ORDER BY v <=> '1' LIMIT 1")
                .ValueOrDie()
                .select->metric,
            Metric::kCosine);
}

TEST(ParserTest, ExplainSelect) {
  auto stmt = Parse("EXPLAIN SELECT id FROM t ORDER BY v <-> '1' LIMIT 1")
                  .ValueOrDie();
  EXPECT_TRUE(stmt.select->explain);
}

TEST(ParserTest, SelectRequiresLimit) {
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v <-> '1'").ok());
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v <-> '1' LIMIT 0").ok());
}

TEST(ParserTest, SelectRequiresDistanceOp) {
  EXPECT_FALSE(Parse("SELECT id FROM t ORDER BY v LIMIT 1").ok());
}

TEST(ParserTest, DropStatements) {
  auto t = Parse("DROP TABLE items").ValueOrDie();
  EXPECT_EQ(t.kind, Statement::Kind::kDrop);
  EXPECT_FALSE(t.drop->is_index);
  EXPECT_EQ(t.drop->name, "items");
  auto i = Parse("DROP INDEX idx").ValueOrDie();
  EXPECT_TRUE(i.drop->is_index);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parse("DROP TABLE items extra").ok());
}

TEST(ParserTest, EmptyAndUnknownStatements) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("FROBNICATE everything").ok());
}

TEST(ParserTest, ShowMetrics) {
  auto stmt = Parse("SHOW METRICS;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kShow);
  EXPECT_FALSE(stmt.show->reset);

  auto reset = Parse("show metrics reset").ValueOrDie();
  ASSERT_EQ(reset.kind, Statement::Kind::kShow);
  EXPECT_TRUE(reset.show->reset);

  EXPECT_FALSE(Parse("SHOW").ok());
  EXPECT_FALSE(Parse("SHOW TABLES").ok());
  EXPECT_FALSE(Parse("SHOW METRICS please").ok());
}

TEST(ParserTest, ShowSessions) {
  auto stmt = Parse("SHOW SESSIONS;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kShow);
  EXPECT_EQ(stmt.show->what, ShowStmt::What::kSessions);
  EXPECT_FALSE(stmt.show->reset);

  auto lower = Parse("show sessions").ValueOrDie();
  EXPECT_EQ(lower.show->what, ShowStmt::What::kSessions);

  auto metrics = Parse("SHOW METRICS").ValueOrDie();
  EXPECT_EQ(metrics.show->what, ShowStmt::What::kMetrics);

  EXPECT_FALSE(Parse("SHOW SESSIONS RESET").ok());
  EXPECT_FALSE(Parse("SHOW SESSIONS extra").ok());
  auto bad = Parse("SHOW GARBAGE");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("METRICS or SESSIONS"),
            std::string::npos);
}

TEST(ParserTest, SetSessionOption) {
  auto stmt = Parse("SET statement_timeout_ms = 250;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kSet);
  EXPECT_EQ(stmt.set->name, "statement_timeout_ms");
  EXPECT_DOUBLE_EQ(stmt.set->value, 250.0);

  auto fractional = Parse("set nprobe = 1.5").ValueOrDie();
  EXPECT_EQ(fractional.set->name, "nprobe");
  EXPECT_DOUBLE_EQ(fractional.set->value, 1.5);

  EXPECT_FALSE(Parse("SET").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = ").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = banana").ok());
  EXPECT_FALSE(Parse("SET statement_timeout_ms = 5 extra").ok());
}

TEST(ParserTest, CancelSession) {
  auto stmt = Parse("CANCEL 7;").ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kCancel);
  EXPECT_EQ(stmt.cancel->session_id, 7u);

  EXPECT_FALSE(Parse("CANCEL").ok());
  EXPECT_FALSE(Parse("CANCEL t").ok());
  EXPECT_FALSE(Parse("CANCEL 7 8").ok());
  // Session ids are positive integers: zero, negatives, and fractions
  // must all be rejected, not truncated.
  auto zero = Parse("CANCEL 0");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("positive session id"),
            std::string::npos);
  EXPECT_FALSE(Parse("CANCEL -3").ok());
  EXPECT_FALSE(Parse("CANCEL 1.5").ok());
}

TEST(VectorLiteralTest, PlainAndBracketed) {
  auto a = ParseVectorLiteral("0.5, 1.5,2.5").ValueOrDie();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_FLOAT_EQ(a[2], 2.5f);
  auto b = ParseVectorLiteral("[ -1, 2e-1 ]").ValueOrDie();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_FLOAT_EQ(b[0], -1.f);
  EXPECT_FLOAT_EQ(b[1], 0.2f);
  auto c = ParseVectorLiteral("1 2 3").ValueOrDie();  // space-separated
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FLOAT_EQ(c[2], 3.f);
}

TEST(VectorLiteralTest, Malformed) {
  EXPECT_FALSE(ParseVectorLiteral("").ok());
  EXPECT_FALSE(ParseVectorLiteral("a,b").ok());
  EXPECT_FALSE(ParseVectorLiteral("1,2]").ok());
  EXPECT_TRUE(ParseVectorLiteral("[1,2").status().IsInvalidArgument());
  EXPECT_TRUE(ParseVectorLiteral("[").status().IsInvalidArgument());
  EXPECT_TRUE(ParseVectorLiteral("1,").status().IsInvalidArgument());
  EXPECT_TRUE(ParseVectorLiteral("1, ").status().IsInvalidArgument());
  EXPECT_TRUE(ParseVectorLiteral("[1,]").status().IsInvalidArgument());
}

TEST(VectorLiteralTest, MatchesStrtofParserBitForBit) {
  std::mt19937_64 rng(20240611);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  auto random_float = [&] {
    uint32_t bits = static_cast<uint32_t>(rng());
    switch (pick(4)) {
      case 0:  // denormal, sign random
        bits &= 0x807fffffu;
        break;
      case 1:  // ordinary magnitudes, like embeddings
        bits = (bits & 0x807fffffu) | ((110u + pick(30)) << 23);
        break;
      default:  // any finite bit pattern
        if ((bits & 0x7f800000u) == 0x7f800000u) bits &= 0xbfffffffu;
    }
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  };
  auto element = [&]() -> std::string {
    char buf[64];
    switch (pick(10)) {
      case 0: case 1: case 2: case 3: {  // shortest round-trip form
        auto res = std::to_chars(buf, buf + sizeof(buf), random_float());
        return std::string(buf, res.ptr);
      }
      case 4:
        std::snprintf(buf, sizeof(buf), "%.9g",
                      static_cast<double>(random_float()));
        return buf;
      case 5:
        std::snprintf(buf, sizeof(buf), "%.*e", static_cast<int>(pick(12)),
                      static_cast<double>(random_float()));
        return buf;
      case 6:
        std::snprintf(buf, sizeof(buf), "%a",
                      static_cast<double>(random_float()));
        return buf;
      case 7: {
        static const char* const kPrefixes[] = {"+", "\n", "\r", "\f", "\v",
                                                "-", "+-", " \n"};
        auto res = std::to_chars(buf, buf + sizeof(buf), random_float());
        return kPrefixes[pick(8)] + std::string(buf, res.ptr);
      }
      case 8: {
        static const char* const kSpecial[] = {
            "inf",    "-inf",    "+inf",     "INF",     "infinity",
            "-Infinity", "nan",  "-nan",     "NaN",     "nan(123)",
            "nan()",  "1e39",    "-1e39",    "1e-50",   "-1e-50",
            "1e-45",  "1e-46",   "7e-46",    "1e400",   "3.4028235e38",
            "3.4028236e38", "0",  "-0",      "+0",      "0.0",
            "-0.0",   "0e999",   "1e",       "1e+",     "1.",
            ".5",     "-.5",     "0x",       "0x1p",    "0X1.8P1",
            "00012",  "1.2.3",   "1e5e3",    "1234567890123456789012345",
            "0.000000000000000000000000000000000000000000001401298464324817"};
        return kSpecial[pick(sizeof(kSpecial) / sizeof(kSpecial[0]))];
      }
      default: {
        static const char* const kGarbage[] = {"a", "--1", ".", "-.", "]",
                                               "[", "", "x1", "1x", "e5"};
        return kGarbage[pick(sizeof(kGarbage) / sizeof(kGarbage[0]))];
      }
    }
  };
  static const char* const kSeparators[] = {",", ", ", " ,", " ", "\t",
                                            ",\t", ",,", " , "};
  size_t accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const bool bracketed = pick(2) == 0;
    std::string text = pick(4) == 0 ? " " : "";
    if (bracketed) text += "[";
    const size_t count = 1 + pick(6);
    for (size_t e = 0; e < count; ++e) {
      if (e > 0) text += kSeparators[pick(8)];
      text += element();
    }
    if (pick(5) == 0) text += ",";
    if (bracketed && pick(8) != 0) text += pick(3) == 0 ? " ]" : "]";
    if (pick(20) == 0) text += " x";

    auto expected = StrtofParseVectorLiteral(text);
    // A view into a longer buffer: the parser must not read past its end.
    const std::string padded = text + "7e5";
    auto actual =
        ParseVectorLiteral(std::string_view(padded).substr(0, text.size()));
    ASSERT_EQ(expected.ok(), actual.ok()) << '"' << text << '"';
    if (!expected.ok()) continue;
    ++accepted;
    ASSERT_EQ(expected->size(), actual->size()) << '"' << text << '"';
    ASSERT_EQ(std::memcmp(expected->data(), actual->data(),
                          expected->size() * sizeof(float)),
              0)
        << '"' << text << '"';
  }
  // The corpus exercises both sides of the accept/reject line.
  EXPECT_GT(accepted, 2000u);
  EXPECT_LT(accepted, 18000u);
}

// ParseFloatFast against from_chars<float> on one input: when the fast
// path accepts, the same bits and the same length. Returns whether it
// accepted.
bool FastPathAgrees(const std::string& text) {
  float fast = 0.f;
  const size_t consumed = ParseFloatFast(text, &fast);
  if (consumed == 0) return false;
  float want = 0.f;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), want);
  EXPECT_EQ(ec, std::errc()) << '"' << text << '"';
  EXPECT_EQ(consumed, static_cast<size_t>(end - text.data()))
      << '"' << text << '"';
  EXPECT_EQ(std::memcmp(&fast, &want, sizeof(float)), 0)
      << '"' << text << "\" fast " << fast << " from_chars " << want;
  return true;
}

TEST(VectorLiteralTest, FastPathMatchesFromCharsOnRandomFloats) {
  std::mt19937_64 rng(20261019);
  size_t accepted = 0;
  constexpr int kInputs = 1'000'000;
  for (int trial = 0; trial < kInputs; ++trial) {
    uint32_t bits = static_cast<uint32_t>(rng());
    if (trial % 2 == 0) {  // ordinary magnitudes, like embeddings
      bits = (bits & 0x807fffffu) | ((100u + rng() % 40) << 23);
    } else if ((bits & 0x7f800000u) == 0x7f800000u) {
      bits &= 0xbfffffffu;  // any finite bit pattern
    }
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    char buf[96];
    const int form = trial % 3;
    if (form == 0) {
      const auto res = std::to_chars(buf, buf + sizeof(buf), f);
      *res.ptr = '\0';
    } else if (form == 1) {
      std::snprintf(buf, sizeof(buf), "%.*g", 1 + static_cast<int>(rng() % 12),
                    static_cast<double>(f));
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", static_cast<int>(rng() % 10),
                    static_cast<double>(f));
    }
    accepted += FastPathAgrees(buf) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Most embedding-like inputs take the fast path.
  EXPECT_GT(accepted, static_cast<size_t>(kInputs) / 3);
}

TEST(VectorLiteralTest, FastPathHandPickedCases) {
  struct Case {
    const char* text;
    size_t consumed;  // 0: the fast path must decline
  };
  const Case kCases[] = {
      {"0.5", 3}, {".5", 2}, {"5.", 2}, {"-.5", 3}, {"-0", 2}, {"0", 1},
      {"-0.0e5", 6}, {"0e999999999999", 14}, {"1e", 1}, {"1e+", 1},
      {"1e-", 1}, {"1E5", 3}, {"1.e5", 4}, {"2.5e-3,", 6}, {"7]", 1},
      {"00012", 5}, {"1.2.3", 3}, {"1e5e3", 3}, {"1e22", 4},
      {"0.1234567", 9}, {"-123.456e-7", 11},
      // Exact float midpoints, where rounding twice could err: declined.
      {"16777217", 0}, {"16777219", 0}, {"-16777217", 0},
      {"33554434", 0}, {"1.6777217e7", 0},
      // Outside the normal float range: FLT_MAX's neighborhood rounds
      // through from_chars, FLT_MIN and subnormals have |q| > 22.
      {"3.4028236e38", 0}, {"3.4028235e38", 0}, {"1e39", 0},
      {"1.17549435e-38", 0}, {"1e-45", 0}, {"1.4e-45", 0},
      // Beyond the exact operands: 20+ significant digits, w > 2^53, or
      // |q| > 22.
      {"12345678901234567890", 0}, {"1.2345678901234567890", 0},
      {"9007199254740993", 0}, {"1e23", 0},
      {"0.00000000000000000000001", 0},
      // Not this grammar: no digit at all, or a form only strtof reads.
      {".", 0}, {"-", 0}, {"-.", 0}, {"e5", 0}, {"+1", 0}, {"inf", 0},
      {"nan", 0}, {"", 0},
  };
  for (const Case& c : kCases) {
    float v = 0.f;
    EXPECT_EQ(ParseFloatFast(c.text, &v), c.consumed) << '"' << c.text << '"';
    if (c.consumed > 0) {
      EXPECT_TRUE(FastPathAgrees(c.text)) << c.text;
    }
  }
  float v = 1.f;
  ASSERT_EQ(ParseFloatFast("-0", &v), 2u);
  EXPECT_TRUE(std::signbit(v));
  // "0x1p3" is hex to strtof; the literal parser never offers it to the
  // fast path, which would read only the "0".
  EXPECT_EQ(ParseVectorLiteral("[0x1p3]").ValueOrDie(),
            std::vector<float>({8.f}));
  // 2^53 itself is exact; the next integer is not.
  EXPECT_TRUE(FastPathAgrees("9007199254740992"));
}

TEST(ParserTest, IntegerPositionsAreExact) {
  auto insert = Parse("INSERT INTO t VALUES (9007199254740993, '1', "
                      "-9223372036854775808)")
                    .ValueOrDie();
  EXPECT_EQ(insert.insert->rows[0].id, 9007199254740993);
  EXPECT_EQ(insert.insert->rows[0].attrs[0],
            std::numeric_limits<int64_t>::min());

  auto in = Parse("SELECT id FROM t WHERE a IN (9007199254740993, -4) "
                  "ORDER BY v <-> '1' LIMIT 3")
                .ValueOrDie();
  EXPECT_EQ(in.select->limit, 3u);
  EXPECT_EQ(Parse("CREATE TABLE t (id int, v float[4294967295])")
                .ValueOrDie()
                .create_table->dim,
            4294967295u);
}

TEST(ParserTest, NonIntegralOrOutOfRangeIntegersRejected) {
  for (const char* sql : {
           "INSERT INTO t VALUES (5.9, '1')",
           "INSERT INTO t VALUES (1e30, '1')",
           "INSERT INTO t VALUES (5.0, '1')",
           "INSERT INTO t VALUES (9223372036854775808, '1')",
           "INSERT INTO t VALUES (1, '1', 2.5)",
           "INSERT INTO t VALUES (1, '1', -9223372036854775809)",
           "SELECT id FROM t WHERE a < 2.5 ORDER BY v <-> '1' LIMIT 1",
           "SELECT id FROM t WHERE a IN (1, 2e0) ORDER BY v <-> '1' LIMIT 1",
           "DELETE FROM t WHERE id = 1e30",
           "SELECT id FROM t ORDER BY v <-> '1' LIMIT 2.5",
           "SELECT id FROM t ORDER BY v <-> '1' LIMIT 1e30",
           "CREATE TABLE t (id int, v float[2.5])",
           "CREATE TABLE t (id int, v float[1e3])",
           "CREATE TABLE t (id int, v float[4294967296])",
           "CREATE TABLE t (id int, v float[-1])",
       }) {
    auto result = Parse(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << sql;
  }
  // Numeric WITH/OPTIONS/SET values stay doubles.
  EXPECT_DOUBLE_EQ(Parse("SELECT id FROM t ORDER BY v <-> '1' "
                         "OPTIONS (nprobe=2.5) LIMIT 1")
                       .ValueOrDie()
                       .select->options.at("nprobe"),
                   2.5);
}

}  // namespace
}  // namespace vecdb::sql
