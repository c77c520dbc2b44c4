// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Tests of zbench's own harness: strict argument parsing, the oracle
// checker's ability to reject wrong answers, percentiles, and the span
// recorder's self-time arithmetic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "args.h"
#include "oracle.h"
#include "summary.h"
#include "trace.h"

namespace zbench {
namespace {

std::vector<std::string> Argv(const std::string& workload,
                              const std::string& seed,
                              const std::string& seconds,
                              const std::string& trace) {
  return {"--workload", workload, "--seed", seed,
          "--seconds",  seconds,  "--trace", trace};
}

TEST(Args, AcceptsEveryWorkload) {
  for (const std::string& w : WorkloadNames()) {
    Args a;
    std::string err;
    ASSERT_TRUE(ParseArgs(Argv(w, "42", "8", "1"), &a, &err)) << err;
    EXPECT_EQ(a.workload, w);
    EXPECT_EQ(a.seed, 42u);
    EXPECT_EQ(a.seconds, 8u);
    EXPECT_TRUE(a.trace);
    EXPECT_EQ(a.work_dir, ".bench_build");
  }
}

TEST(Args, FlagsInAnyOrderAndWorkDir) {
  Args a;
  std::string err;
  ASSERT_TRUE(ParseArgs({"--trace", "0", "--seconds", "3", "--work-dir", "w",
                         "--seed", "18446744073709551615", "--workload",
                         "serve-mixed"},
                        &a, &err))
      << err;
  EXPECT_EQ(a.seed, 18446744073709551615ull);
  EXPECT_FALSE(a.trace);
  EXPECT_EQ(a.work_dir, "w");
}

TEST(Args, RejectsMalformedInput) {
  const std::vector<std::vector<std::string>> bad = {
      Argv("query-hot", "1", "8", "0"),      // unknown workload
      Argv("", "1", "8", "0"),               // empty workload
      Argv("query-warm", "abc", "8", "0"),   // strtoul would give 0
      Argv("query-warm", "0", "8", "0"),     // zero seed
      Argv("query-warm", "-1", "8", "0"),    // sign
      Argv("query-warm", "+1", "8", "0"),
      Argv("query-warm", " 1", "8", "0"),    // whitespace
      Argv("query-warm", "1x", "8", "0"),    // trailing garbage
      Argv("query-warm", "0x10", "8", "0"),  // hex
      Argv("query-warm", "18446744073709551616", "8", "0"),  // overflow
      Argv("query-warm", "1", "0", "0"),     // zero duration
      Argv("query-warm", "1", "ten", "0"),
      Argv("query-warm", "1", "3601", "0"),  // beyond the cap
      Argv("query-warm", "1", "8", "2"),     // trace is 0 or 1
      Argv("query-warm", "1", "8", "yes"),
      {"--workload", "query-warm", "--seed", "1", "--seconds", "8"},
      {"--workload", "query-warm", "--seed", "1", "--seconds", "8",
       "--trace"},  // missing value
      {"--workload", "query-warm", "--seed", "1", "--seconds", "8",
       "--trace", "0", "--seed", "2"},  // repeated
      {"--workload", "query-warm", "--seed", "1", "--seconds", "8",
       "--trace", "0", "--threads", "4"},  // unknown flag
      {"query-warm", "1", "8", "0"},        // positional
      {"--workload", "query-warm", "--seed", "1", "--seconds", "8",
       "--trace", "0", "--work-dir", ""},
  };
  for (const auto& argv : bad) {
    Args a;
    std::string err;
    std::string joined;
    for (const auto& s : argv) joined += "[" + s + "]";
    EXPECT_FALSE(ParseArgs(argv, &a, &err)) << joined;
    EXPECT_FALSE(err.empty()) << joined;
  }
}

TEST(Args, ParsePositive) {
  uint64_t v = 0;
  EXPECT_TRUE(ParsePositive("60", 60, &v));
  EXPECT_EQ(v, 60u);
  EXPECT_FALSE(ParsePositive("61", 60, &v));
  EXPECT_FALSE(ParsePositive("", 60, &v));
  EXPECT_FALSE(ParsePositive("0", 60, &v));
  EXPECT_FALSE(ParsePositive("00", 60, &v));
}

TEST(Oracle, CheckerSelfTestPasses) { EXPECT_EQ(CheckerSelfTest(), ""); }

TEST(Oracle, SweepMatchesFullScan) {
  // Objects of very different widths, so the sweep's early exits are
  // exercised against a plain loop over everything.
  Oracle o;
  std::vector<Rect> rects;
  uint64_t x = 12345;
  auto next = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (ObjectId i = 0; i < 2000; ++i) {
    const double cx = next(), cy = next();
    const double w = (i % 50 == 0) ? 0.2 * next() : 0.01 * next();
    const double h = 0.01 * next();
    rects.push_back(Rect{cx, cy, cx + w, cy + h});
    o.Add(i, rects.back(), i % 3);
    if (i % 7 == 0) {
      ASSERT_TRUE(o.Kill(i, 2));
    }
  }
  o.Seal();
  for (int q = 0; q < 200; ++q) {
    const uint64_t epoch = q % 4;
    const double cx = next(), cy = next();
    const Rect w{cx, cy, cx + 0.05, cy + 0.05};
    const Point p{cx, cy};
    std::vector<ObjectId> want_w, want_p;
    std::vector<double> dists;
    for (ObjectId i = 0; i < rects.size(); ++i) {
      if (!o.Alive(i, epoch)) continue;
      if (rects[i].Intersects(w)) want_w.push_back(i);
      if (rects[i].Contains(p)) want_p.push_back(i);
      dists.push_back(rects[i].DistanceTo(p));
    }
    std::sort(dists.begin(), dists.end());
    dists.resize(std::min<size_t>(8, dists.size()));
    EXPECT_EQ(o.Window(w, epoch), want_w);
    EXPECT_EQ(o.PointHits(p, epoch), want_p);
    EXPECT_EQ(o.KnnDistances(p, 8, epoch), dists);
  }
}

TEST(Summary, HighTailUsesP99OnlyWithEnoughSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  Tail t = HighTail(v);
  EXPECT_DOUBLE_EQ(t.value, 1980);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  v.resize(200);  // 1..200: 10 samples beyond 190
  t = HighTail(v);
  EXPECT_DOUBLE_EQ(t.value, 190);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2, 4}), 2.5);
}

TEST(Summary, SlicedTailIgnoresOneBurst) {
  // 5000 samples of 100 us in completion order, except that the second
  // slice holds a burst of 200 slow ones.
  std::vector<Sample> s;
  for (int i = 0; i < 5000; ++i) {
    const bool burst = i >= 1000 && i < 1200;
    s.push_back({static_cast<double>(i), burst ? 10000.0 : 100.0});
  }
  EXPECT_DOUBLE_EQ(HighTail([&] {
                     std::vector<double> v;
                     for (const auto& x : s) v.push_back(x.us);
                     return v;
                   }()).value,
                   10000.0);
  const Tail t = SlicedTail(s);
  EXPECT_EQ(t.slices, 5u);
  EXPECT_EQ(t.samples, 5000u);
  EXPECT_DOUBLE_EQ(t.value, 100.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  // Below 2000 samples there is one slice: the plain tail.
  s.resize(1500);
  EXPECT_EQ(SlicedTail(s).slices, 1u);
  EXPECT_DOUBLE_EQ(SlicedTail(s).value, 10000.0);
}

TEST(Summary, ResultJsonHasExactlyTheContractKeys) {
  Outcome o;
  o.attempted = 3;
  o.Add("qps", 12.5, "ops/s");
  EXPECT_EQ(ResultJson(o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"ops/s\"}}}");
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  Tracer tracer;
  SpanBuffer* buf = tracer.NewBuffer();
  {
    ScopedSpan root(buf, "root", 7);
    { ScopedSpan a(buf, "child", 7); }
    {
      ScopedSpan b(buf, "child", 7);
      { ScopedSpan c(buf, "grandchild", 7); }
    }
  }
  ASSERT_EQ(buf->spans().size(), 4u);
  EXPECT_EQ(buf->spans()[0].parent, -1);
  EXPECT_EQ(buf->spans()[1].parent, 0);
  EXPECT_EQ(buf->spans()[2].parent, 0);
  EXPECT_EQ(buf->spans()[3].parent, 2);
  for (const Span& s : buf->spans()) EXPECT_EQ(s.request, 7u);
  const std::vector<double> self = buf->SelfTimesUs();
  const auto& s = buf->spans();
  EXPECT_NEAR(self[0], s[0].duration_us() - s[1].duration_us() -
                           s[2].duration_us(), 1e-9);
  EXPECT_NEAR(self[2], s[2].duration_us() - s[3].duration_us(), 1e-9);
  EXPECT_NEAR(self[3], s[3].duration_us(), 1e-9);
  EXPECT_EQ(tracer.DurationsUs("child").size(), 2u);
  EXPECT_EQ(tracer.span_count(), 4u);

  ScopedSpan off(nullptr, "untraced", 1);  // a null buffer records nothing
}

}  // namespace
}  // namespace zbench
