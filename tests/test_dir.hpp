// A scratch directory per running test: named after the test (suite and
// name) and this process, so tests that gtest_discover_tests runs as
// separate processes under `ctest -j` never share one.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace harmonia::testing_support {

inline std::filesystem::path unique_test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string{"harmonia_"} + info->test_suite_name() + "_" +
                     info->name() + "_" + std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace harmonia::testing_support
