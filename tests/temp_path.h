// Per-process temp paths for the test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace vecdb {

/// `name` under ::testing::TempDir(), prefixed with the pid, so overlapping
/// runs of one test binary (say, from two build trees) never share files.
inline std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace vecdb
