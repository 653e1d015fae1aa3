#include "sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <unordered_set>

namespace vecdb::sql {

bool IsKeyword(const std::string& word) {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "FROM",   "ORDER",  "BY",     "LIMIT",  "CREATE", "TABLE",
      "INDEX",  "ON",     "USING",  "WITH",   "INSERT", "INTO",   "VALUES",
      "INT",    "BIGINT", "FLOAT",  "ASC",    "DESC",   "DROP",   "OPTIONS",
      "AS",     "WHERE",  "EXPLAIN", "DELETE", "SHOW",  "METRICS", "RESET",
      "AND",    "OR",     "IN",     "CHECKPOINT", "SESSIONS", "CANCEL",
      "SET"};
  return kKeywords.count(word) != 0;
}

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  auto make = [&](TokenType type, std::string text, size_t pos) {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.pos = pos;
    out.push_back(std::move(t));
  };

  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) !=
                           0 ||
                       input[j] == '_')) {
        ++j;
      }
      std::string word = input.substr(i, j - i);
      std::string upper = word;
      std::transform(upper.begin(), upper.end(), upper.begin(),
                     [](unsigned char ch) { return std::toupper(ch); });
      if (IsKeyword(upper)) {
        make(TokenType::kKeyword, upper, start);
      } else {
        std::transform(word.begin(), word.end(), word.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        make(TokenType::kIdentifier, word, start);
      }
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])) != 0) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])) != 0)) {
      size_t j = i;
      if (input[j] == '-') ++j;
      while (j < n && (std::isdigit(static_cast<unsigned char>(input[j])) !=
                           0 ||
                       input[j] == '.' || input[j] == 'e' ||
                       input[j] == 'E' ||
                       ((input[j] == '+' || input[j] == '-') && j > i &&
                        (input[j - 1] == 'e' || input[j - 1] == 'E')))) {
        ++j;
      }
      Token t;
      t.type = TokenType::kNumber;
      t.text = input.substr(i, j - i);
      // from_chars is correctly rounded like strtod; only a range error
      // (strtod's ±HUGE_VAL or denormal/0) goes back to strtod for its value.
      if (std::from_chars(input.data() + i, input.data() + j, t.number).ec !=
          std::errc()) {
        t.number = std::strtod(t.text.c_str(), nullptr);
      }
      t.pos = start;
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '\'') {
      // Copy the literal a quote-free segment at a time; '' is one quote.
      std::string text;
      size_t j = i + 1;
      for (;;) {
        const size_t quote = input.find('\'', j);
        if (quote == std::string::npos) {
          return Status::InvalidArgument(
              "unterminated string literal at byte " + std::to_string(start));
        }
        text.append(input, j, quote - j);
        if (quote + 1 < n && input[quote + 1] == '\'') {
          text.push_back('\'');
          j = quote + 2;
          continue;
        }
        j = quote + 1;
        break;
      }
      make(TokenType::kString, std::move(text), start);
      i = j;
      continue;
    }
    if (c == '<') {
      // <->, <#>, <=> distance operators take precedence over the two-char
      // comparison operators <= and <>.
      if (i + 2 < n && input[i + 2] == '>' &&
          (input[i + 1] == '-' || input[i + 1] == '#' ||
           input[i + 1] == '=')) {
        make(TokenType::kDistanceOp, input.substr(i, 3), start);
        i += 3;
        continue;
      }
      if (i + 1 < n && input[i + 1] == '=') {
        make(TokenType::kLe, "<=", start);
        i += 2;
        continue;
      }
      if (i + 1 < n && input[i + 1] == '>') {
        make(TokenType::kNe, "<>", start);
        i += 2;
        continue;
      }
      make(TokenType::kLt, "<", start);
      ++i;
      continue;
    }
    if (c == '>') {
      if (i + 1 < n && input[i + 1] == '=') {
        make(TokenType::kGe, ">=", start);
        i += 2;
        continue;
      }
      make(TokenType::kGt, ">", start);
      ++i;
      continue;
    }
    if (c == '!') {
      if (i + 1 < n && input[i + 1] == '=') {
        make(TokenType::kNe, "!=", start);
        i += 2;
        continue;
      }
      return Status::InvalidArgument("unexpected '!' at byte " +
                                     std::to_string(start));
    }
    switch (c) {
      case '(':
        make(TokenType::kLParen, "(", start);
        break;
      case ')':
        make(TokenType::kRParen, ")", start);
        break;
      case '[':
        make(TokenType::kLBracket, "[", start);
        break;
      case ']':
        make(TokenType::kRBracket, "]", start);
        break;
      case ',':
        make(TokenType::kComma, ",", start);
        break;
      case ';':
        make(TokenType::kSemicolon, ";", start);
        break;
      case '=':
        make(TokenType::kEquals, "=", start);
        break;
      case '*':
        make(TokenType::kStar, "*", start);
        break;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at byte " +
                                       std::to_string(start));
    }
    ++i;
  }
  make(TokenType::kEof, "", n);
  return out;
}

}  // namespace vecdb::sql
