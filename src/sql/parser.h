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

}  // namespace vecdb::sql
