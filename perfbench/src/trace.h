// Copyright (c) zdb authors. Licensed under the MIT license.
//
// In-memory span recorder for zbench's traced runs. A span is one call
// into a layer, timed from the benchmark's own code: name, start, end,
// parent span and the id of the request it belongs to. Each worker
// thread records into its own SpanBuffer (no locking on the hot path);
// buffers stay in memory until the run ends, when the tracer
// summarizes them and writes them out once.
//
// Self time of a span is its duration minus the durations of its
// direct children. Spans on one thread nest strictly (they come from
// scoped timers around synchronous calls), so children never overlap
// and the subtraction is exact.

#ifndef ZBENCH_TRACE_H_
#define ZBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace zbench {

/// Monotonic clock reading in nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = nullptr;  ///< static string naming the layer call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;         ///< index in the same buffer, -1 = root
  uint64_t request = 0;

  double duration_us() const { return (end_ns - start_ns) / 1000.0; }
};

/// One thread's spans. Not thread-safe: owned by a single thread while
/// recording, read by the tracer after that thread has been joined.
class SpanBuffer {
 public:
  /// Spans beyond this many are dropped (and counted) to bound memory.
  static constexpr size_t kMaxSpans = 1u << 22;

  /// Opens a span nested under the innermost open one; returns its
  /// index, or -1 if the buffer is full.
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Self time of every span, parallel to spans().
  std::vector<double> SelfTimesUs() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t dropped_ = 0;
};

/// Times one call. A null buffer makes it a no-op, so untraced runs
/// share the code path at the cost of one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Per-name summary over all buffers.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double p50_us = 0.0;       ///< median duration
  double self_p50_us = 0.0;  ///< median self time
  double self_total_ms = 0.0;
};

class Tracer {
 public:
  /// A new buffer owned by the tracer; hand one to each thread.
  SpanBuffer* NewBuffer();

  /// Summaries by span name, in first-seen order.
  std::vector<SpanSummary> Summarize() const;

  /// Durations (us) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes every span as CSV (thread,index,name,start_ns,end_ns,
  /// parent,request,self_us). Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  uint64_t span_count() const;
  uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace zbench

#endif  // ZBENCH_TRACE_H_
