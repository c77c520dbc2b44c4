// Copyright (c) zdb authors. Licensed under the MIT license.

#include "args.h"

#include <algorithm>
#include <limits>
#include <map>

namespace zbench {

bool ParsePositive(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (v == 0 || v > max) return false;
  *out = v;
  return true;
}

std::string Usage() {
  std::string names;
  for (const auto& n : WorkloadNames()) {
    names += names.empty() ? n : "|" + n;
  }
  return "usage: zbench --workload " + names +
         " --seed N --seconds S --trace 0|1 [--work-dir DIR]";
}

bool ParseArgs(const std::vector<std::string>& argv, Args* out,
               std::string* error) {
  std::map<std::string, std::string> flags;
  for (size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--work-dir") {
      *error = "unknown argument '" + flag + "'";
      return false;
    }
    if (i + 1 >= argv.size()) {
      *error = flag + " needs a value";
      return false;
    }
    if (!flags.emplace(flag, argv[i + 1]).second) {
      *error = flag + " given twice";
      return false;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(required) == 0) {
      *error = std::string("missing ") + required;
      return false;
    }
  }

  Args a;
  a.workload = flags["--workload"];
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    *error = "unknown workload '" + a.workload + "'";
    return false;
  }
  if (!ParsePositive(flags["--seed"], std::numeric_limits<uint64_t>::max(),
                     &a.seed)) {
    *error = "--seed must be a positive decimal integer, got '" +
             flags["--seed"] + "'";
    return false;
  }
  uint64_t seconds = 0;
  if (!ParsePositive(flags["--seconds"], 3600, &seconds)) {
    *error = "--seconds must be a decimal integer in [1, 3600], got '" +
             flags["--seconds"] + "'";
    return false;
  }
  a.seconds = static_cast<uint32_t>(seconds);
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") {
    *error = "--trace must be 0 or 1, got '" + trace + "'";
    return false;
  }
  a.trace = trace == "1";
  if (flags.count("--work-dir") != 0) {
    a.work_dir = flags["--work-dir"];
    if (a.work_dir.empty()) {
      *error = "--work-dir must not be empty";
      return false;
    }
  }
  *out = a;
  return true;
}

}  // namespace zbench
