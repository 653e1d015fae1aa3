#include "sql/lexer.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace vecdb::sql {
namespace {

TEST(LexerTest, KeywordsAreCaseInsensitiveAndUppercased) {
  auto tokens = Tokenize("select FROM Order").ValueOrDie();
  ASSERT_EQ(tokens.size(), 4u);  // + EOF
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "FROM");
  EXPECT_EQ(tokens[2].text, "ORDER");
  EXPECT_EQ(tokens[3].type, TokenType::kEof);
}

TEST(LexerTest, IdentifiersFoldToLowercase) {
  auto tokens = Tokenize("MyTable my_col").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "mytable");
  EXPECT_EQ(tokens[1].text, "my_col");
}

TEST(LexerTest, NumbersIncludingNegativeAndScientific) {
  auto tokens = Tokenize("10 -3.5 0.01 2e3").ValueOrDie();
  EXPECT_DOUBLE_EQ(tokens[0].number, 10);
  EXPECT_DOUBLE_EQ(tokens[1].number, -3.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.01);
  EXPECT_DOUBLE_EQ(tokens[3].number, 2000);
}

TEST(LexerTest, StringLiteralsWithEscapedQuote) {
  auto tokens = Tokenize("'0.1,0.2' 'it''s'").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "0.1,0.2");
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, EscapedQuotesInsideAndAtTheEdges) {
  auto tokens = Tokenize("'''' '' 'a''b''''c' '''x''' 'tail'").ValueOrDie();
  ASSERT_EQ(tokens.size(), 6u);  // + EOF
  EXPECT_EQ(tokens[0].text, "'");
  EXPECT_EQ(tokens[1].text, "");
  EXPECT_EQ(tokens[2].text, "a'b''c");
  EXPECT_EQ(tokens[3].text, "'x'");
  EXPECT_EQ(tokens[4].text, "tail");
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tokens[i].type, TokenType::kString);
  }
  EXPECT_EQ(tokens[2].pos, 8u);
}

TEST(LexerTest, LiteralUnterminatedAtEndOfInputFails) {
  // An escaped quote right before the end leaves the literal open.
  for (const char* input :
       {"'", "'abc''", "SELECT 'a''", "x 'a'' ''", "'0.1,0.2"}) {
    auto result = Tokenize(input);
    ASSERT_FALSE(result.ok()) << input;
    EXPECT_NE(result.status().message().find("unterminated"),
              std::string::npos)
        << input;
  }
}

TEST(LexerTest, LiteralScanMatchesCharByCharUnescape) {
  // Reference: the literal rules applied one character at a time; returns
  // one past the closing quote, or npos if the literal never closes.
  auto unescape = [](const std::string& input, std::string* text) {
    for (size_t j = 1; j < input.size(); ++j) {
      if (input[j] != '\'') {
        text->push_back(input[j]);
      } else if (j + 1 < input.size() && input[j + 1] == '\'') {
        text->push_back('\'');
        ++j;
      } else {
        return j + 1;
      }
    }
    return std::string::npos;
  };
  std::mt19937 rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    std::string input = "'";
    const int len = static_cast<int>(rng() % 12);
    for (int i = 0; i < len; ++i) input.push_back("a',1 "[rng() % 5]);
    std::string expected;
    const size_t end = unescape(input, &expected);
    // Lex only the literal, followed by one known token.
    auto tokens = Tokenize(
        end == std::string::npos ? input : input.substr(0, end) + " x");
    ASSERT_EQ(tokens.ok(), end != std::string::npos) << input;
    if (!tokens.ok()) continue;
    ASSERT_EQ((*tokens)[0].type, TokenType::kString) << input;
    EXPECT_EQ((*tokens)[0].text, expected) << input;
    EXPECT_EQ((*tokens)[1].text, "x") << input;
  }
}

TEST(LexerTest, DistanceOperators) {
  auto tokens = Tokenize("<-> <#> <=>").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kDistanceOp);
  EXPECT_EQ(tokens[0].text, "<->");
  EXPECT_EQ(tokens[1].text, "<#>");
  EXPECT_EQ(tokens[2].text, "<=>");
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = Tokenize("< <= > >= <> !=").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kLt);
  EXPECT_EQ(tokens[1].type, TokenType::kLe);
  EXPECT_EQ(tokens[2].type, TokenType::kGt);
  EXPECT_EQ(tokens[3].type, TokenType::kGe);
  EXPECT_EQ(tokens[4].type, TokenType::kNe);
  EXPECT_EQ(tokens[5].type, TokenType::kNe);
}

TEST(LexerTest, DistanceOpsWinOverComparisons) {
  // "a <-> b" must lex as a distance operator, not kLt followed by junk.
  auto tokens = Tokenize("a <-> b <= c").ValueOrDie();
  EXPECT_EQ(tokens[1].type, TokenType::kDistanceOp);
  EXPECT_EQ(tokens[3].type, TokenType::kLe);
}

TEST(LexerTest, Punctuation) {
  auto tokens = Tokenize("( ) [ ] , ; = *").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kLParen);
  EXPECT_EQ(tokens[1].type, TokenType::kRParen);
  EXPECT_EQ(tokens[2].type, TokenType::kLBracket);
  EXPECT_EQ(tokens[3].type, TokenType::kRBracket);
  EXPECT_EQ(tokens[4].type, TokenType::kComma);
  EXPECT_EQ(tokens[5].type, TokenType::kSemicolon);
  EXPECT_EQ(tokens[6].type, TokenType::kEquals);
  EXPECT_EQ(tokens[7].type, TokenType::kStar);
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

TEST(LexerTest, PositionsRecorded) {
  auto tokens = Tokenize("ab  cd").ValueOrDie();
  EXPECT_EQ(tokens[0].pos, 0u);
  EXPECT_EQ(tokens[1].pos, 4u);
}

}  // namespace
}  // namespace vecdb::sql
