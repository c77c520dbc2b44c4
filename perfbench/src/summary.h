// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Order statistics and the result record zbench prints.
//
// Tail latency: a p99 is reported only when at least 1000 samples back
// it; with fewer, the reported tail is the highest percentile that
// still has 10 samples beyond it (nearest rank). With 2000 or more
// samples the run is cut into up to five slices of consecutive samples,
// each holding at least 1000, and the reported p99 is the median of the
// slices' p99s: one burst of interference from outside the benchmark
// then moves one slice, not the result. The percentile used, the sample
// count and the slice count go into the run's detail lines.

#ifndef ZBENCH_SUMMARY_H_
#define ZBENCH_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zbench {

/// Median (mean of the two middle values for even n); 0 for no samples.
double Median(std::vector<double> v);

struct Tail {
  double value = 0.0;       ///< the latency at `percentile`
  double percentile = 0.0;  ///< 99 when supported, lower otherwise
  size_t samples = 0;
  size_t slices = 1;
};

/// The highest supported tail percentile, capped at p99 (see file
/// comment). Fewer than 11 samples report the maximum.
Tail HighTail(std::vector<double> v);

/// One latency sample: when the operation completed (seconds, any
/// fixed origin) and how long it took (microseconds).
struct Sample {
  double at = 0.0;
  double us = 0.0;
};

/// The sliced tail of the file comment.
Tail SlicedTail(std::vector<Sample> samples);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict, the op counts and the metrics in
/// print order, plus free-form detail lines printed before the result.
struct Outcome {
  bool correct = true;
  std::string error;  ///< first mismatch or failure, if any
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records the median under `prefix`_p50_us and the sliced tail under
  /// `prefix`_p99_us (the tail's actual percentile goes to details).
  void AddLatency(const std::string& prefix,
                  const std::vector<Sample>& samples);
  /// Records only the median, as `name`.
  void AddMedian(const std::string& name, const std::vector<Sample>& samples);
  void Fail(const std::string& message) {
    if (correct) error = message;
    correct = false;
  }
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Outcome& o);

/// Formats a double with every significant digit (round-trips).
std::string FormatDouble(double v);

/// Escapes a string for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace zbench

#endif  // ZBENCH_SUMMARY_H_
