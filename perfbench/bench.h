// Shared types of the benchmark runner (histpc_perfbench).
//
// The runner runs one workload and writes its raw measurements — set-up
// times, per-op wall times, failures, quality figures and per-layer counts —
// to one JSON file; run.py turns them into the reported metrics. Each
// workload drives HistPC only through the public API of its modules.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "util/json.h"

namespace histpc::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for stores, caches and logs
  std::string specs_dir;  ///< large_spmd: generated specs and manifests
  int nproc = 1;          ///< hardware threads; bounds serve_mixed's threads
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// One closed-loop op or one served request.
struct OpSample {
  double ms = 0.0;
  bool traced = false;
};

struct Report {
  std::vector<double> setup_seconds;
  std::vector<OpSample> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_notes;  ///< the first few, for the log
  /// Virtual seconds until every reference bottleneck was found, per op
  /// (-1: some were never found).
  std::vector<double> find_virtual_s;
  std::uint64_t recall_found = 0;
  std::uint64_t recall_expected = 0;
  /// Per-layer counts and sums, keyed by metric name.
  util::Json counters = util::Json::object();
  /// Workload-specific raw data (serve_mixed: the rate ladder).
  util::Json extra = util::Json::object();
  /// Peak resident set at the end of the measured part (the checks that
  /// follow it are not the program's footprint); < 0: at exit.
  double peak_rss_mb = -1.0;

  void fail(const std::string& why) {
    ++failed;
    if (failure_notes.size() < 20) failure_notes.push_back(why);
  }
  void add(const std::string& counter, double value) {
    util::Json& c = counters[counter];
    c = (c.is_number() ? c.as_double() : 0.0) + value;
  }
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Remove and re-create a directory.
void fresh_dir(const std::string& path);
/// This process's peak resident set so far, in MiB.
double peak_rss_mb();

void run_tuning_loop(const Options& options, SpanRecorder& spans, Report& report);
void run_large_spmd(const Options& options, SpanRecorder& spans, Report& report);
void run_serve_mixed(const Options& options, SpanRecorder& spans, Report& report);

}  // namespace histpc::perfbench
