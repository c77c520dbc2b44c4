// Copyright (c) zdb authors. Licensed under the MIT license.

#include "summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace zbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

Tail HighTail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t idx = 0;
  if (n >= 1000) {
    idx = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  } else if (n > 10) {
    idx = n - 11;  // exactly 10 samples beyond
  } else {
    idx = n - 1;
  }
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

Tail SlicedTail(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  const size_t n = samples.size();
  const size_t k = std::clamp<size_t>(n / 1000, 1, 5);
  std::vector<Tail> tails;
  for (size_t i = 0; i < k; ++i) {
    std::vector<double> slice;
    for (size_t j = n * i / k; j < n * (i + 1) / k; ++j) {
      slice.push_back(samples[j].us);
    }
    tails.push_back(HighTail(std::move(slice)));
  }
  std::vector<double> values;
  for (const Tail& t : tails) values.push_back(t.value);
  Tail out = tails.front();
  out.value = Median(values);
  out.samples = n;
  out.slices = k;
  return out;
}

void Outcome::AddLatency(const std::string& prefix,
                         const std::vector<Sample>& samples) {
  std::vector<double> us;
  for (const Sample& s : samples) us.push_back(s.us);
  Add(prefix + "_p50_us", Median(us), "us");
  const Tail t = SlicedTail(samples);
  Add(prefix + "_p99_us", t.value, "us");
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: %zu samples, tail at p%.2f, median of %zu slices",
                prefix.c_str(), t.samples, t.percentile, t.slices);
  details.push_back(line);
}

void Outcome::AddMedian(const std::string& name,
                        const std::vector<Sample>& samples) {
  std::vector<double> us;
  for (const Sample& s : samples) us.push_back(s.us);
  Add(name, Median(us), "us");
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string ResultJson(const Outcome& o) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(m.name);
    out += "\": {\"value\": ";
    out += FormatDouble(m.value);
    out += ", \"unit\": \"";
    out += JsonEscape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace zbench
