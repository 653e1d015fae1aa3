// Recursive-descent parser for the vecdb SQL dialect.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "sql/ast.h"

namespace vecdb::sql {

/// Parses one statement (an optional trailing ';' is accepted).
Result<Statement> Parse(const std::string& input);

/// Parses a vector literal: "0.1,0.2,0.3" or "[0.1, 0.2, 0.3]". Each
/// element is read as strtof reads it in the C locale, bit for bit.
Result<std::vector<float>> ParseVectorLiteral(std::string_view text);

/// ParseVectorLiteral's exact fast path for one element at the start of
/// `text`: [-]digits[.digits][(e|E)[+-]digits], an exponent only with a
/// digit after it (so "1e" stops before the 'e', as from_chars does). It
/// takes the significand w (at most 19 digits, w ≤ 2^53) and
/// the decimal exponent q (|q| ≤ 22), computes w·10^q or w / 10^−q in
/// double (one correctly rounded operation on exact operands) and rounds
/// that to float. It declines (returns 0) on any other form, when the
/// double lies outside the normal float range, or when it is exactly a
/// float rounding midpoint, where rounding twice could differ from
/// rounding once. Otherwise it returns the bytes consumed, and the value
/// and length equal std::from_chars<float>'s bit for bit.
size_t ParseFloatFast(std::string_view text, float* value);

}  // namespace vecdb::sql
