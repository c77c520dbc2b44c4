// Copyright (c) zdb authors. Licensed under the MIT license.

#include "trace.h"

#include <chrono>
#include <cstdio>
#include <map>

#include "summary.h"

namespace zbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanBuffer::Begin(const char* name, uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanBuffer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> SpanBuffer::SelfTimesUs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_us();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_us();
  }
  return self;
}

SpanBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return buffers_.back().get();
}

std::vector<SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const auto& buf : buffers_) {
    const std::vector<double> self = buf->SelfTimesUs();
    for (size_t i = 0; i < buf->spans().size(); ++i) {
      const Span& s = buf->spans()[i];
      auto [it, inserted] = by_name.try_emplace(s.name);
      if (inserted) order.push_back(s.name);
      it->second.first.push_back(s.duration_us());
      it->second.second.push_back(self[i]);
    }
  }
  std::vector<SpanSummary> out;
  for (const std::string& name : order) {
    const auto& [durations, selfs] = by_name[name];
    SpanSummary sum;
    sum.name = name;
    sum.count = durations.size();
    sum.p50_us = Median(durations);
    sum.self_p50_us = Median(selfs);
    for (double v : selfs) sum.self_total_ms += v / 1000.0;
    out.push_back(sum);
  }
  return out;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans()) {
      if (name == s.name) out.push_back(s.duration_us());
    }
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,request,self_us\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const SpanBuffer& buf = *buffers_[t];
    const std::vector<double> self = buf.SelfTimesUs();
    for (size_t i = 0; i < buf.spans().size(); ++i) {
      const Span& s = buf.spans()[i];
      std::fprintf(f, "%zu,%zu,%s,%lld,%lld,%d,%llu,%.3f\n", t, i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request), self[i]);
    }
  }
  return std::fclose(f) == 0;
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->spans().size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->dropped();
  return n;
}

}  // namespace zbench
