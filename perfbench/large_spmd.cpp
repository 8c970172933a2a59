// large_spmd: `histpc run --workload SPEC` on generated specs of tens of
// ranks and dozens of functions, one client, closed loop.
//
// run.py writes the specs and their manifests of injected bottlenecks
// (specgen.py) before the runner starts. Each op loads one spec, builds
// the program, simulates it, builds the session's view and runs the
// undirected diagnosis — the CLI's --workload path, which bypasses the
// trace cache and the experiment store. The ops cycle through the specs.
#include <cmath>
#include <filesystem>
#include <optional>

#include "apps/workload_spec.h"
#include "bench.h"
#include "core/session.h"
#include "serve/session_pool.h"
#include "simmpi/simulator.h"

namespace histpc::perfbench {

namespace {

struct Spec {
  std::string path;
  std::vector<pc::BottleneckReport> injected;
  std::string reference;  ///< the diagnosis every op of this spec must repeat
};

struct Outcome {
  pc::DiagnosisResult result;
  std::size_t ops = 0;
  std::size_t intervals = 0;
};

/// One op: the CLI's `run --workload` path, each module call in a span.
Outcome diagnose_spec(const std::string& path, SpanRecorder& spans, int root, std::int64_t op) {
  Outcome out;
  apps::Workload workload;
  {
    ScopedSpan s(spans, "apps.build", root, op);
    workload = apps::load_workload(path);
  }
  simmpi::ExecutionTrace trace;
  {
    ScopedSpan s(spans, "simmpi.simulate", root, op);
    trace = simmpi::Simulator(workload.network).run(workload.program);
  }
  for (const auto& proc : workload.program.procs) out.ops += proc.ops.size();
  out.intervals = trace.total_intervals();
  std::optional<core::DiagnosisSession> session;
  {
    ScopedSpan s(spans, "metrics.view_build", root, op);
    session.emplace(std::move(trace), pc::PcConfig{}, workload.name);
  }
  ScopedSpan s(spans, "pc.search", root, op);
  out.result = session->diagnose();
  return out;
}

std::string result_key(const pc::DiagnosisResult& result) {
  return serve::diagnose_result_json("", result, "").dump();
}

std::vector<Spec> load_specs(const std::string& dir) {
  std::vector<Spec> specs;
  for (int i = 0;; ++i) {
    const std::string spec_path = dir + "/spec_" + std::to_string(i) + ".json";
    const std::string manifest_path = dir + "/manifest_" + std::to_string(i) + ".json";
    if (!std::filesystem::exists(spec_path)) break;
    Spec spec;
    spec.path = spec_path;
    const util::Json manifest = util::Json::parse(util::read_file(manifest_path));
    for (const util::Json& inj : manifest.at("injected").as_array()) {
      pc::BottleneckReport b;
      b.hypothesis = inj.at("hypothesis").as_string();
      b.focus = inj.at("focus").as_string();
      spec.injected.push_back(std::move(b));
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) throw std::runtime_error("no specs in " + dir);
  return specs;
}

}  // namespace

void run_large_spmd(const Options& options, SpanRecorder& spans, Report& report) {
  // Set-up: read the manifests and diagnose each spec once, which gives
  // the diagnosis every later op of that spec must reproduce.
  std::vector<Spec> specs;
  SpanRecorder untraced(false);
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    specs = load_specs(options.specs_dir);
    for (Spec& spec : specs)
      spec.reference = result_key(diagnose_spec(spec.path, untraced, -1, -1).result);
    report.setup_seconds.push_back(ms_since(t0) / 1e3);
  }

  double traced_ops = 0;
  const auto start = Clock::now();
  for (std::int64_t op = 0; ms_since(start) < options.seconds * 1e3; ++op) {
    const Spec& spec = specs[static_cast<std::size_t>(op) % specs.size()];
    const bool traced = options.trace && op % 2 == 1;
    SpanRecorder& rec = traced ? spans : untraced;
    ++report.attempted;
    try {
      const auto t0 = Clock::now();
      const int root = traced ? rec.begin("op", -1, op) : -1;
      const Outcome out = diagnose_spec(spec.path, rec, root, op);
      rec.end(root);
      report.ops.push_back(OpSample{ms_since(t0), traced});

      if (result_key(out.result) != spec.reference)
        report.fail("large_spmd: " + spec.path + " gave a different diagnosis than before");
      std::size_t found = 0;
      for (const auto& inj : spec.injected)
        for (const auto& b : out.result.bottlenecks)
          if (b.hypothesis == inj.hypothesis && b.focus == inj.focus) {
            ++found;
            break;
          }
      report.recall_found += found;
      report.recall_expected += spec.injected.size();
      const double t_find = out.result.time_to_find(spec.injected, 100.0);
      report.find_virtual_s.push_back(std::isfinite(t_find) ? t_find : -1.0);
      if (traced) {
        traced_ops += 1;
        report.add("simmpi.ops", static_cast<double>(out.ops));
        report.add("metrics.intervals", static_cast<double>(out.intervals));
        report.add("pc.pairs_tested", static_cast<double>(out.result.stats.pairs_tested));
        report.add("pc.pairs_pruned", static_cast<double>(out.result.stats.pruned_candidates));
        report.add("pc.conclusions_true",
                   static_cast<double>(out.result.telemetry.conclusions_true));
      }
    } catch (const std::exception& e) {
      report.fail(std::string("large_spmd: ") + e.what());
    }
  }
  report.add("ops.traced", traced_ops);
}

}  // namespace histpc::perfbench
