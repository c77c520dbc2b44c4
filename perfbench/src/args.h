// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Strict command-line parsing for zbench. Every malformed argument is a
// usage error: an unknown flag or workload, a missing value, a repeated
// flag, and a seed or duration that is not a plain decimal number or is
// zero. (strtoul would turn "abc" into 0 and run a trivial benchmark
// that "passes".)

#ifndef ZBENCH_ARGS_H_
#define ZBENCH_ARGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zbench {

/// Every workload zbench runs. BENCHMARK.json lists the ones whose
/// numbers repeat from run to run (see README.md).
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "query-warm", "query-cold", "serve-read", "serve-mixed", "knn-clusters"};
  return kNames;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
  /// Directory for build outputs, temporary DB files and trace dumps.
  std::string work_dir = ".bench_build";
};

/// Parses a positive decimal integer no larger than `max`: digits only,
/// no sign, no whitespace, no leading "0x". Returns false otherwise.
bool ParsePositive(const std::string& text, uint64_t max, uint64_t* out);

/// Parses `--workload W --seed N --seconds S --trace 0|1
/// [--work-dir D]` (flags in any order, each exactly once except the
/// optional --work-dir). On failure returns false and sets `*error`.
bool ParseArgs(const std::vector<std::string>& argv, Args* out,
               std::string* error);

/// One-line usage text.
std::string Usage();

}  // namespace zbench

#endif  // ZBENCH_ARGS_H_
