// tuning_loop: the paper's diagnose -> store -> harvest -> diagnose cycle,
// one client, closed loop.
//
// Each op is what `histpc run APP --store DIR` does with historical
// directives: build a DiagnosisSession with the trace cache on; open the
// store and harvest directives from the app family's latest run, mapped
// onto this run's resources; run the directed diagnosis; save the record;
// append a perf record. The op sequence runs in blocks of fixed make-up:
// every (app, duration) pair kBlockVisits times, the first visit of each
// block to a fresh configuration (a new node base: a trace-cache miss),
// the others to an earlier configuration of the pair (a hit). The seed
// orders each block and picks the configuration each revisit goes to. So
// the mix of apps, durations and hits, and with it the tail of the op
// times, is the same for every seed and however many ops fit in the run.
//
// Traced ops build the session from the same public calls the session
// constructor makes, in the same order, each in its own span; what the
// core.session span holds beyond them is reported as core.unattributed.
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "bench.h"
#include "core/session.h"
#include "history/analysis.h"
#include "history/generator.h"
#include "history/mapper.h"
#include "history/store.h"
#include "serve/session_pool.h"
#include "simmpi/simulator.h"
#include "simmpi/trace_cache.h"
#include "telemetry/perf_record.h"
#include "util/rng.h"

namespace histpc::perfbench {

namespace {

const char* const kApps[] = {"poisson_a", "poisson_b", "poisson_c", "poisson_d", "ocean"};
constexpr int kNumApps = 5;
const double kDurations[] = {1200.0, 1500.0};
constexpr int kNumDurations = 2;
/// Visits per (app, duration) pair in one block of ops; one of them is to
/// a fresh configuration (a trace-cache miss), so misses are 1/4 of ops.
constexpr int kBlockVisits = 4;
/// Records in the store before the first op.
constexpr int kSeedRecords = 300;
/// history::significant_bottlenecks cutoff for the reference set (as in
/// the Table 1 bench).
constexpr double kReferenceMinFraction = 0.22;

struct AppConfig {
  std::string app;
  double duration = 1500.0;
  int node_base = 1;

  std::string key() const {
    return app + "/" + std::to_string(duration) + "/" + std::to_string(node_base);
  }
  apps::AppParams params() const {
    apps::AppParams p;
    p.target_duration = duration;
    p.node_base = node_base;
    return p;
  }
};

/// One block of ops: (app, duration) slots in a seeded order.
std::vector<std::pair<int, int>> next_block(util::Rng& rng) {
  std::vector<std::pair<int, int>> block;
  for (int a = 0; a < kNumApps; ++a)
    for (int d = 0; d < kNumDurations; ++d)
      for (int v = 0; v < kBlockVisits; ++v) block.emplace_back(a, d);
  for (std::size_t i = block.size() - 1; i > 0; --i)
    std::swap(block[i], block[rng.next_below(i + 1)]);
  return block;
}

std::string family_of(const std::string& app) {
  const auto pos = app.rfind('_');
  return pos == std::string::npos ? app : app.substr(0, pos);
}

std::string version_of(const std::string& app) {
  const auto pos = app.rfind('_');
  if (pos == std::string::npos || pos + 2 != app.size()) return "1";
  return std::string(1, static_cast<char>(app.back() - 'a' + 'A'));
}

struct Paths {
  std::string store;
  std::string cache;
};

/// In the empty directory `dir`: a store with kSeedRecords earlier runs
/// (copies of one undirected diagnosis per app) and an empty trace cache.
Paths set_up(const std::string& dir) {
  Paths paths{dir + "/store", dir + "/trace-cache"};
  std::filesystem::create_directories(paths.cache);
  history::ExperimentStore store(paths.store);
  std::vector<history::ExperimentRecord> base;
  for (const char* app : kApps) {
    AppConfig config{app};
    core::DiagnosisSession session(app, config.params());
    base.push_back(session.make_record(session.diagnose(), version_of(app)));
  }
  for (int i = 0; i < kSeedRecords; ++i) {
    history::ExperimentRecord record = base[static_cast<std::size_t>(i % kNumApps)];
    record.scenario = "history-" + std::to_string(i);
    store.save(std::move(record));
  }
  return paths;
}

/// The session built step by step, each step in a span (traced ops).
std::unique_ptr<core::DiagnosisSession> traced_session(const AppConfig& config,
                                                       const pc::PcConfig& pc_config,
                                                       SpanRecorder& spans, int parent,
                                                       std::int64_t op, Report& report,
                                                       bool* hit) {
  ScopedSpan session_span(spans, "core.session", parent, op);
  const int p = session_span.id();
  simmpi::SimProgram program;
  {
    ScopedSpan s(spans, "apps.build", p, op);
    program = apps::build_app(config.app, config.params());
  }
  const simmpi::NetworkModel net = apps::network_for(config.app);
  simmpi::TraceCache cache({pc_config.trace_cache_dir, pc_config.trace_cache_max_bytes});
  simmpi::TraceKey key;
  {
    ScopedSpan s(spans, "simmpi.key", p, op);
    key = simmpi::trace_content_key(program, net);
  }
  std::optional<simmpi::ExecutionTrace> trace;
  {
    ScopedSpan s(spans, "simmpi.cache_load", p, op);
    trace = cache.load(key);
  }
  *hit = trace.has_value();
  if (!trace) {
    {
      ScopedSpan s(spans, "simmpi.simulate", p, op);
      trace = simmpi::Simulator(net).run(program);
    }
    ScopedSpan s(spans, "simmpi.cache_store", p, op);
    cache.store(key, *trace);
  }
  std::size_t ops = 0;
  for (const auto& proc : program.procs) ops += proc.ops.size();
  report.add("simmpi.ops", static_cast<double>(ops));
  ScopedSpan s(spans, "metrics.view_build", p, op);
  return std::make_unique<core::DiagnosisSession>(std::move(*trace), pc_config, config.app);
}

}  // namespace

void run_tuning_loop(const Options& options, SpanRecorder& spans, Report& report) {
  Paths paths;
  const std::string dir = options.work_dir + "/tuning";
  for (int i = 0; i < kSetups; ++i) {
    fresh_dir(dir);  // untimed: removing the last repetition's files is not set-up
    const auto t0 = Clock::now();
    paths = set_up(dir);
    report.setup_seconds.push_back(ms_since(t0) / 1e3);
  }

  util::Rng rng(options.seed);
  std::vector<std::pair<int, int>> block;
  std::size_t slot = 0;
  std::map<std::pair<int, int>, std::vector<AppConfig>> seen;  ///< per (app, duration)
  std::set<std::pair<int, int>> fresh_in_block;
  int fresh_count = 0;
  std::map<std::string, std::vector<pc::BottleneckReport>> base_by_config;
  std::map<std::string, std::size_t> result_by_input;  ///< input -> diagnosis hash
  double hits = 0, misses = 0, traced_ops = 0;
  SpanRecorder untraced(false);

  const auto start = Clock::now();
  for (std::int64_t op = 0; ms_since(start) < options.seconds * 1e3; ++op) {
    if (slot == block.size()) {
      block = next_block(rng);
      slot = 0;
      fresh_in_block.clear();
    }
    const std::pair<int, int> pair = block[slot++];
    std::vector<AppConfig>& earlier = seen[pair];
    AppConfig config;
    if (fresh_in_block.insert(pair).second) {
      config.app = kApps[pair.first];
      config.duration = kDurations[pair.second];
      config.node_base = 100 + fresh_count++;
      earlier.push_back(config);
    } else {
      config = earlier[rng.next_below(earlier.size())];
    }
    const bool traced = options.trace && op % 2 == 1;
    const std::string family = family_of(config.app);
    const std::string version = version_of(config.app);
    ++report.attempted;
    try {
      pc::PcConfig pc_config;
      pc_config.trace_cache_dir = paths.cache;
      SpanRecorder& rec = traced ? spans : untraced;
      bool hit = false;
      const auto t0 = Clock::now();
      const int root = traced ? rec.begin("op", -1, op) : -1;

      // 1. The session, with the trace cache on.
      std::unique_ptr<core::DiagnosisSession> session;
      if (traced) {
        session = traced_session(config, pc_config, rec, root, op, report, &hit);
      } else {
        session = std::make_unique<core::DiagnosisSession>(config.app, config.params(), pc_config);
        hit = session->registry().counter("trace_cache.hit") > 0;
      }
      // 2. Directives from the family's latest run, mapped onto this run.
      pc::DirectiveSet directives;
      std::optional<history::ExperimentStore> store;
      std::optional<history::ExperimentRecord> previous;
      {
        ScopedSpan s(rec, "history.harvest", root, op);
        store.emplace(paths.store);
        history::StoreQuery query;
        query.app = family;
        previous = store->latest(query);
        if (!previous) throw std::runtime_error("no earlier run of " + family + " in the store");
        directives = history::DirectiveGenerator().from_record(*previous);
      }
      {
        ScopedSpan s(rec, "history.map", root, op);
        directives.maps =
            history::suggest_mappings(previous->resources, session->view().resources());
      }
      // 3. The directed diagnosis.
      pc::DiagnosisResult result;
      {
        ScopedSpan s(rec, "pc.search", root, op);
        result = session->diagnose(directives);
      }
      // 4. Record and save.
      {
        ScopedSpan s(rec, "history.save", root, op);
        store->save(session->make_record(result, version));
      }
      // 5. The perf record.
      {
        ScopedSpan s(rec, "telemetry.perflog_append", root, op);
        telemetry::PerfLog log(telemetry::PerfLog::path_in_store(paths.store, session->app_name()));
        log.append(session->make_perf_record(version));
      }
      rec.end(root);
      report.ops.push_back(OpSample{ms_since(t0), traced});

      // Checks and quality figures, outside the timed op.
      (hit ? hits : misses) += 1;
      const std::string input = config.key() + "\n" + directives.serialize();
      const std::size_t diagnosis =
          std::hash<std::string>()(serve::diagnose_result_json(config.app, result, "").dump());
      if (auto [it, inserted] = result_by_input.emplace(input, diagnosis);
          !inserted && it->second != diagnosis)
        report.fail("tuning_loop: a repeated input gave a different diagnosis (" +
                    config.key() + ")");
      auto base = base_by_config.find(config.key());
      if (base == base_by_config.end())
        base = base_by_config.emplace(config.key(), session->diagnose().bottlenecks).first;
      const auto reference = history::significant_bottlenecks(
          history::filter_pruned(base->second, directives, session->view().resources()),
          kReferenceMinFraction);
      const double t_find = result.time_to_find(reference, 100.0);
      report.find_virtual_s.push_back(std::isfinite(t_find) ? t_find : -1.0);
      for (const auto& ref : reference) {
        ++report.recall_expected;
        for (const auto& b : result.bottlenecks)
          if (b.hypothesis == ref.hypothesis && b.focus == ref.focus) {
            ++report.recall_found;
            break;
          }
      }
      if (traced) {
        traced_ops += 1;
        report.add("metrics.intervals", static_cast<double>(session->trace().total_intervals()));
        report.add("pc.pairs_tested", static_cast<double>(result.stats.pairs_tested));
        report.add("pc.pairs_pruned", static_cast<double>(result.stats.pruned_candidates));
        report.add("pc.conclusions_true", static_cast<double>(result.telemetry.conclusions_true));
      }
    } catch (const std::exception& e) {
      report.fail(std::string("tuning_loop: ") + e.what());
    }
  }
  report.add("ops.traced", traced_ops);
  report.add("simmpi.cache_hits", hits);
  report.add("simmpi.cache_misses", misses);
  report.add("history.store_runs",
             static_cast<double>(history::ExperimentStore(paths.store).summaries().size()));
}

}  // namespace histpc::perfbench
