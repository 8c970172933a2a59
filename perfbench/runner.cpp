// histpc_perfbench: runs one benchmark workload and writes its raw
// measurements as JSON.
//
//   histpc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work DIR --out FILE [--specs DIR]
//
// With --trace 1 the spans go to DIR/spans.jsonl. run.py is the user-facing
// entry point; it builds this binary, calls it and prints the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "telemetry/perf_record.h"
#include "util/log.h"

namespace histpc::perfbench {

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string required(const std::map<std::string, std::string>& args, const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

util::Json to_json(const Options& options, const Report& report) {
  util::Json out = util::Json::object();
  out["workload"] = options.workload;
  out["seed"] = static_cast<double>(options.seed);
  out["trace"] = options.trace;
  util::Json setups = util::Json::array();
  for (double s : report.setup_seconds) setups.push_back(s);
  out["setup_seconds"] = std::move(setups);
  util::Json ops = util::Json::array();
  for (const OpSample& op : report.ops) {
    util::Json o = util::Json::array();
    o.push_back(op.ms);
    o.push_back(op.traced);
    ops.push_back(std::move(o));
  }
  out["ops"] = std::move(ops);
  out["attempted"] = static_cast<double>(report.attempted);
  out["failed"] = static_cast<double>(report.failed);
  util::Json notes = util::Json::array();
  for (const std::string& n : report.failure_notes) notes.push_back(n);
  out["failure_notes"] = std::move(notes);
  util::Json find = util::Json::array();
  for (double t : report.find_virtual_s) find.push_back(t);
  out["find_virtual_s"] = std::move(find);
  out["recall_found"] = static_cast<double>(report.recall_found);
  out["recall_expected"] = static_cast<double>(report.recall_expected);
  out["counters"] = report.counters;
  out["extra"] = report.extra;
  out["peak_rss_mb"] = report.peak_rss_mb >= 0 ? report.peak_rss_mb : peak_rss_mb();
  out["build"] = telemetry::build_id();
#if defined(__clang__)
  out["compiler"] = __VERSION__;
#else
  out["compiler"] = "gcc " __VERSION__;
#endif
  return out;
}

}  // namespace
}  // namespace histpc::perfbench

int main(int argc, char** argv) {
  using namespace histpc;
  using namespace histpc::perfbench;
  try {
    const auto args = parse_args(argc, argv);
    Options options;
    options.workload = required(args, "workload");
    options.seed = std::stoull(required(args, "seed"));
    options.seconds = std::stod(required(args, "seconds"));
    options.trace = required(args, "trace") == "1";
    options.work_dir = required(args, "work");
    const std::string out_path = required(args, "out");
    if (auto it = args.find("specs"); it != args.end()) options.specs_dir = it->second;
    options.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

    // Store heal passes and trace-cache misses log at Info; keep the
    // benchmark's output to its own lines.
    util::set_log_level(util::LogLevel::Warn);

    SpanRecorder spans(options.trace);
    Report report;
    if (options.workload == "tuning_loop") {
      run_tuning_loop(options, spans, report);
    } else if (options.workload == "large_spmd") {
      run_large_spmd(options, spans, report);
    } else if (options.workload == "serve_mixed") {
      run_serve_mixed(options, spans, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    if (spans.enabled()) spans.write_jsonl(options.work_dir + "/spans.jsonl");
    util::write_file(out_path, to_json(options, report).dump() + "\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "histpc_perfbench: %s\n", e.what());
    return 1;
  }
}
