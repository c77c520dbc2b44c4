// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zbench — zdb's benchmark. One run measures one workload for a fixed
// time, checks every answer against a brute-force oracle, and prints
// one JSON result as its last line of standard output:
//
//   zbench --workload query-warm --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md beside this directory's CMakeLists.txt). Earlier lines
// record the environment and per-run details. A wrong answer prints
// "correct": false and exits 1; a usage error exits 2 without a result.

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "oracle.h"
#include "summary.h"
#include "workload.h"

#ifndef ZBENCH_BUILD_TYPE
#define ZBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ZBENCH_COMPILER
#define ZBENCH_COMPILER "unknown"
#endif

namespace zbench {
namespace {

/// A run must end well inside the 180 s a run may take; past this the
/// watchdog removes the run's files and exits without a result.
constexpr int kWatchdogSeconds = 170;

/// Ends the process if the run hangs (a server that never replies would
/// otherwise block a client forever).
class Watchdog {
 public:
  explicit Watchdog(std::string tmp_dir)
      : tmp_dir_(std::move(tmp_dir)), thread_([this] { Run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                     [this] { return done_; })) {
      return;
    }
    std::fprintf(stderr, "zbench: run exceeded %d s, aborting\n",
                 kWatchdogSeconds);
    std::error_code ec;
    std::filesystem::remove_all(tmp_dir_, ec);
    std::_Exit(3);
  }

  std::string tmp_dir_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it uses
};

std::string EnvJson(const Args& a) {
  const char* commit = std::getenv("ZBENCH_GIT_COMMIT");
  std::string out = "{\"env\": {";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" + JsonEscape(ZBENCH_BUILD_TYPE) + "\"";
  out += ", \"compiler\": \"" + JsonEscape(ZBENCH_COMPILER) + "\"";
  out += ", \"commit\": \"" +
         JsonEscape(commit != nullptr && *commit != '\0' ? commit : "unknown") +
         "\"";
  out += ", \"workload\": \"" + JsonEscape(a.workload) + "\"";
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"seconds\": " + std::to_string(a.seconds);
  out += std::string(", \"trace\": ") + (a.trace ? "1" : "0");
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(std::vector<std::string>(argv + 1, argv + argc), &args,
                 &error)) {
    std::fprintf(stderr, "zbench: %s\n%s\n", error.c_str(), Usage().c_str());
    return 2;
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "zbench: refusing to measure an unoptimized build (%s)\n",
               ZBENCH_BUILD_TYPE);
  return 2;
#endif
  std::printf("%s\n", EnvJson(args).c_str());
  std::fflush(stdout);

  const std::string self_test = CheckerSelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "zbench: oracle self-test failed: %s\n",
                 self_test.c_str());
    return 1;
  }

  const std::filesystem::path tmp_base =
      std::filesystem::path(args.work_dir) / "tmp";
  std::error_code ec;
  std::filesystem::create_directories(tmp_base, ec);
  std::string tmpl = (tmp_base / "run-XXXXXX").string();
  if (ec || ::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "zbench: cannot create a temporary directory in %s\n",
                 tmp_base.c_str());
    return 1;
  }

  RunContext ctx;
  ctx.args = args;
  ctx.tmp_dir = tmpl;
  ctx.trace_path = (std::filesystem::path(args.work_dir) /
                    ("trace-" + args.workload + ".csv"))
                       .string();
  Outcome out;
  {
    Watchdog watchdog(ctx.tmp_dir);
    if (args.workload == "serve-read" || args.workload == "serve-mixed") {
      RunServed(ctx, &out);
    } else {
      RunClosedLoop(ctx, &out);
    }
  }
  std::filesystem::remove_all(ctx.tmp_dir, ec);

  if (args.trace && out.correct) {
    out.details.push_back("spans written to " + ctx.trace_path);
  }
  for (const std::string& line : out.details) {
    std::printf("# %s\n", line.c_str());
  }
  if (!out.correct) {
    std::fprintf(stderr, "zbench: WRONG ANSWER: %s\n", out.error.c_str());
  }
  if (out.attempted == 0) out.attempted = 1;  // a run always tries
  std::printf("%s\n", ResultJson(out).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace zbench

int main(int argc, char** argv) { return zbench::Main(argc, argv); }
