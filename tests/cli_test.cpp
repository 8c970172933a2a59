#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "apps/apps.h"
#include "cli/args.h"
#include "cli/commands.h"
#include "history/store.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "telemetry/event.h"
#include "telemetry/perf_record.h"
#include "util/json.h"
#include "util/log.h"
#include "util/strings.h"

namespace histpc::cli {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------- args

TEST(Args, ParsesPositionalsOptionsAndFlags) {
  Args args = Args::parse({"poisson_c", "--duration", "300", "--shg", "extra"},
                          {"duration"}, {"shg"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positional(0, "app"), "poisson_c");
  EXPECT_EQ(args.positional(1, "extra"), "extra");
  EXPECT_TRUE(args.has_flag("shg"));
  EXPECT_DOUBLE_EQ(args.option_or("duration", 0.0), 300.0);
  EXPECT_EQ(args.option_or("missing", std::string("dflt")), "dflt");
  EXPECT_EQ(args.option_or("missing", 7), 7);
}

TEST(Args, ErrorsAreSpecific) {
  EXPECT_THROW(Args::parse({"--unknown"}, {}, {}), ArgsError);
  EXPECT_THROW(Args::parse({"--duration"}, {"duration"}, {}), ArgsError);
  Args args = Args::parse({"--duration", "abc"}, {"duration"}, {});
  EXPECT_THROW(args.option_or("duration", 0.0), ArgsError);
  EXPECT_THROW(args.option_or("duration", 0), ArgsError);
  EXPECT_THROW(args.positional(5, "thing"), ArgsError);
}

TEST(Args, RejectsTrailingGarbageInNumbers) {
  // "8x" silently parsed as 8 once; strict parsing must reject anything
  // short of a full numeric token.
  Args args = Args::parse({"--duration", "300x", "--window", "5x", "--bins", "1e2"},
                          {"duration", "window", "bins"}, {});
  EXPECT_THROW(args.option_or("duration", 0.0), ArgsError);
  EXPECT_THROW(args.option_or("window", 0), ArgsError);
  // "1e2" is a fine double but not an integer.
  EXPECT_DOUBLE_EQ(args.option_or("bins", 0.0), 100.0);
  EXPECT_THROW(args.option_or("bins", 0), ArgsError);
}

// --------------------------------------------------------------- commands

class CliTest : public testing::Test {
 protected:
  // Per-test store directory: ctest runs each case as its own process in
  // parallel, so a shared path would let one constructor wipe another
  // test's store mid-run.
  CliTest()
      : store_dir_(testing::TempDir() + "/histpc_cli_store_" +
                   testing::UnitTest::GetInstance()->current_test_info()->name()) {
    fs::remove_all(store_dir_);
  }
  ~CliTest() override { fs::remove_all(store_dir_); }

  std::string run(const std::string& command, std::vector<std::string> tokens) {
    std::ostringstream out;
    EXPECT_EQ(run_command(command, tokens, out), 0) << command;
    return out.str();
  }

  std::string store_dir_;
};

TEST_F(CliTest, AppsListsRegistry) {
  const std::string out = run("apps", {});
  EXPECT_NE(out.find("poisson_c"), std::string::npos);
  EXPECT_NE(out.find("ocean"), std::string::npos);
  EXPECT_NE(out.find("seismic"), std::string::npos);
}

TEST_F(CliTest, ReportSummarizesTrace) {
  const std::string out = run("report", {"tester", "--duration", "50"});
  EXPECT_NE(out.find("rank 0"), std::string::npos);
  EXPECT_NE(out.find("whole-program fractions"), std::string::npos);
}

TEST_F(CliTest, RunStoresAndListShows) {
  const std::string out = run("run", {"poisson_c", "--duration", "300", "--store",
                                      store_dir_, "--version", "C"});
  EXPECT_NE(out.find("bottlenecks:"), std::string::npos);
  EXPECT_NE(out.find("stored experiment record 'poisson_C_1'"), std::string::npos);

  const std::string listing = run("list", {"--store", store_dir_});
  EXPECT_NE(listing.find("poisson_C_1"), std::string::npos);

  const std::string shown = run("show", {"poisson_C_1", "--store", store_dir_});
  EXPECT_NE(shown.find("version C"), std::string::npos);
  EXPECT_NE(shown.find("ExcessiveSyncWaitingTime"), std::string::npos);
}

TEST_F(CliTest, ListSkipsCorruptRecords) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  // A record damaged on disk (or a foreign .json dropped in the store
  // directory) must not abort the listing — it is skipped with a warning.
  util::write_file(store_dir_ + "/poisson_C_9.json", "{truncated");
  util::set_log_sink([](util::LogLevel, const std::string&) {});
  const std::string listing = run("list", {"--store", store_dir_});
  util::set_log_sink({});
  EXPECT_NE(listing.find("poisson_C_1"), std::string::npos);
  EXPECT_EQ(listing.find("poisson_C_9"), std::string::npos);
}

TEST_F(CliTest, HarvestRoundTripsThroughRunDirectives) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  const std::string dir_file = store_dir_ + "/directives.txt";
  const std::string harvested =
      run("harvest", {"poisson_C_1", "--store", store_dir_, "--out", dir_file});
  EXPECT_NE(harvested.find("priorities"), std::string::npos);
  ASSERT_TRUE(fs::exists(dir_file));
  const std::string directed =
      run("run", {"poisson_c", "--duration", "300", "--directives", dir_file});
  EXPECT_NE(directed.find("bottlenecks:"), std::string::npos);
}

TEST_F(CliTest, HarvestToStdoutRespectsOptionFlags) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  const std::string text = run(
      "harvest", {"poisson_C_1", "--store", store_dir_, "--no-priorities", "--thresholds"});
  EXPECT_EQ(text.find("priority "), std::string::npos);
  EXPECT_NE(text.find("threshold "), std::string::npos);
  EXPECT_NE(text.find("prune "), std::string::npos);
}

TEST_F(CliTest, MapAndDiffBetweenStoredRuns) {
  run("run", {"poisson_a", "--duration", "300", "--store", store_dir_, "--version", "A"});
  run("run", {"poisson_b", "--duration", "300", "--store", store_dir_, "--version", "B"});
  const std::string maps =
      run("map", {"poisson_A_1", "poisson_B_1", "--store", store_dir_});
  EXPECT_NE(maps.find("map /Code/oned.f /Code/onednb.f"), std::string::npos);
  const std::string diff =
      run("diff", {"poisson_A_1", "poisson_B_1", "--store", store_dir_});
  EXPECT_NE(diff.find("oned.f [1]"), std::string::npos);
  EXPECT_NE(diff.find("onednb.f [2]"), std::string::npos);
}

TEST_F(CliTest, VariantsRunsTheTable1Bundle) {
  const std::string out = run("variants", {"bubba", "--duration", "150", "--threads", "2"});
  EXPECT_NE(out.find("No Directives"), std::string::npos);
  EXPECT_NE(out.find("Priorities & All Prunes"), std::string::npos);
  EXPECT_NE(out.find("worker thread(s)"), std::string::npos);
  EXPECT_NE(out.find("pairs tested"), std::string::npos);
}

TEST_F(CliTest, SaveAndDiagnoseTrace) {
  const std::string trace_file = store_dir_ + "/trace.json";
  fs::create_directories(store_dir_);
  run("run", {"bubba", "--duration", "300", "--save-trace", trace_file});
  ASSERT_TRUE(fs::exists(trace_file));
  const std::string out = run("diagnose-trace", {trace_file});
  EXPECT_NE(out.find("CPUbound"), std::string::npos);
}

TEST_F(CliTest, RunPostmortemAndExtended) {
  const std::string out =
      run("run", {"poisson_c", "--duration", "300", "--postmortem", "--extended"});
  EXPECT_NE(out.find("postmortem evaluation"), std::string::npos);
  EXPECT_NE(out.find("ExcessiveMessageWaitingTime"), std::string::npos);
}

TEST_F(CliTest, TraceCacheMissesThenHits) {
  const std::string cache_dir = store_dir_ + "/trace-cache";
  const std::string cold =
      run("run", {"poisson_c", "--duration", "300", "--trace-cache", cache_dir});
  EXPECT_NE(cold.find("trace cache: miss (" + cache_dir + ")"), std::string::npos);

  std::size_t snapshots = 0;
  for (const auto& de : fs::directory_iterator(cache_dir))
    snapshots += de.path().extension() == ".htb";
  EXPECT_EQ(snapshots, 1u);

  const std::string warm =
      run("run", {"poisson_c", "--duration", "300", "--trace-cache", cache_dir});
  EXPECT_NE(warm.find("trace cache: hit (" + cache_dir + ")"), std::string::npos);
  // Identical diagnosis either way (everything after the cache-status line).
  const auto after_cache = [](const std::string& s) {
    return s.substr(s.find('\n', s.find("trace cache:")) + 1);
  };
  EXPECT_EQ(after_cache(cold), after_cache(warm));
}

TEST_F(CliTest, NoTraceCacheSwitchesTheCacheOff) {
  const std::string out =
      run("run", {"poisson_c", "--duration", "300", "--no-trace-cache"});
  EXPECT_EQ(out.find("trace cache:"), std::string::npos);
  EXPECT_NE(out.find("bottlenecks:"), std::string::npos);
}

TEST_F(CliTest, TraceCacheQuarantinesCorruptSnapshotsAndStillDiagnoses) {
  const std::string cache_dir = store_dir_ + "/trace-cache";
  run("run", {"poisson_c", "--duration", "300", "--trace-cache", cache_dir});
  for (const auto& de : fs::directory_iterator(cache_dir))
    if (de.path().extension() == ".htb")
      util::write_file(de.path().string(), "definitely not a snapshot");

  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& line) {
    if (level == util::LogLevel::Warn) warnings.push_back(line);
  });
  const std::string out =
      run("run", {"poisson_c", "--duration", "300", "--trace-cache", cache_dir});
  util::set_log_sink({});

  // The corrupt file is sidelined, the run falls back to simulation, and
  // the diagnosis still completes.
  EXPECT_NE(out.find("trace cache: miss"), std::string::npos);
  EXPECT_NE(out.find("bottlenecks:"), std::string::npos);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("quarantining corrupt trace snapshot"), std::string::npos);
  bool quarantined = false;
  for (const auto& de : fs::directory_iterator(cache_dir))
    quarantined |= de.path().extension() == ".quarantined";
  EXPECT_TRUE(quarantined);
}

TEST_F(CliTest, VariantsUsesTheTraceCache) {
  const std::string cache_dir = store_dir_ + "/trace-cache";
  run("variants", {"bubba", "--duration", "150", "--trace-cache", cache_dir});
  const std::string warm =
      run("variants", {"bubba", "--duration", "150", "--trace-cache", cache_dir});
  EXPECT_NE(warm.find("trace cache: hit"), std::string::npos);
}

TEST_F(CliTest, DotExportWritesFile) {
  // --dot renders the SHG of the search `run` reported, not of a second
  // search: the file equals to_dot() of one standalone consultant run over
  // the same trace with the same config.
  const std::string dot_file = store_dir_ + "/shg.dot";
  fs::create_directories(store_dir_);
  run("run", {"bubba", "--duration", "300", "--threshold", "0.15", "--dot", dot_file});
  ASSERT_TRUE(fs::exists(dot_file));
  const std::string dot = histpc::util::read_file(dot_file);
  EXPECT_NE(dot.find("digraph shg"), std::string::npos);

  apps::AppParams params;
  params.target_duration = 300.0;
  const simmpi::ExecutionTrace trace = apps::run_app("bubba", params);
  const metrics::TraceView view(trace);
  pc::PcConfig config;
  config.threshold_override = 0.15;
  pc::PerformanceConsultant consultant(view, config);
  consultant.run();
  EXPECT_EQ(dot, consultant.shg().to_dot());
}

TEST_F(CliTest, ErrorsSurfaceAsExceptions) {
  std::ostringstream out;
  EXPECT_THROW(run_command("bogus", {}, out), ArgsError);
  EXPECT_THROW(run_command("show", {"missing_run", "--store", store_dir_}, out), ArgsError);
  EXPECT_THROW(run_command("run", {}, out), ArgsError);
}

TEST_F(CliTest, HarvestMultipleRunsAndCombine) {
  run("run", {"poisson_a", "--duration", "300", "--store", store_dir_, "--version", "A"});
  run("run", {"poisson_b", "--duration", "300", "--store", store_dir_, "--version", "B"});
  const std::string pooled =
      run("harvest", {"poisson_A_1", "poisson_B_1", "--store", store_dir_});
  EXPECT_NE(pooled.find("priority "), std::string::npos);
  const std::string intersect = run(
      "harvest",
      {"poisson_A_1", "poisson_B_1", "--store", store_dir_, "--combine", "intersect"});
  const std::string uni = run(
      "harvest", {"poisson_A_1", "poisson_B_1", "--store", store_dir_, "--combine", "union"});
  // The union is never smaller than the intersection.
  auto count = [](const std::string& text) {
    std::size_t n = 0, pos = 0;
    while ((pos = text.find("priority ", pos)) != std::string::npos) {
      ++n;
      pos += 9;
    }
    return n;
  };
  EXPECT_GE(count(uni), count(intersect));
  std::ostringstream sink;
  EXPECT_THROW(run_command("harvest", {"poisson_A_1", "--store", store_dir_, "--combine",
                                       "intersect"},
                           sink),
               ArgsError);
  EXPECT_THROW(run_command("harvest", {"poisson_A_1", "poisson_B_1", "--store", store_dir_,
                                       "--combine", "bogus"},
                           sink),
               ArgsError);
}

TEST_F(CliTest, HarvestWeightedAndSimilarTo) {
  for (int i = 0; i < 3; ++i)
    run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});

  const std::string weighted =
      run("harvest", {"poisson_C_1", "poisson_C_2", "poisson_C_3", "--store", store_dir_,
                      "--combine", "weighted", "--half-life", "2"});
  EXPECT_NE(weighted.find("priority "), std::string::npos);

  // --similar-to pulls in stored runs automatically and reports each pick.
  const std::string similar =
      run("harvest", {"--store", store_dir_, "--similar-to", "poisson_C_3", "--combine",
                      "weighted", "--max-runs", "2"});
  EXPECT_NE(similar.find("# similar run poisson_C_1"), std::string::npos);
  EXPECT_NE(similar.find("# similar run poisson_C_2"), std::string::npos);
  EXPECT_EQ(similar.find("# similar run poisson_C_3"), std::string::npos);  // the reference

  std::ostringstream sink;
  EXPECT_THROW(run_command("harvest", {"--store", store_dir_, "--similar-to", "poisson_C_3",
                                       "--min-similarity", "1.5x"},
                           sink),
               ArgsError);
}

TEST_F(CliTest, MigrateConvertsLegacyJsonStore) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  // Demote the record to a legacy JSON-only store.
  const std::string json = store_dir_ + "/legacy_C_1.json";
  auto record = history::ExperimentStore(store_dir_).load("poisson_C_1");
  ASSERT_TRUE(record.has_value());
  record->run_id = "legacy_C_1";
  util::write_file(json, record->to_json().dump(2));

  const std::string out = run("migrate", {"--store", store_dir_});
  EXPECT_NE(out.find("migrated 1 legacy JSON record(s)"), std::string::npos);
  EXPECT_TRUE(fs::exists(store_dir_ + "/legacy_C_1.histexp"));

  const std::string again = run("migrate", {"--store", store_dir_});
  EXPECT_NE(again.find("migrated 0"), std::string::npos);
}

TEST_F(CliTest, MigrateJobsIsDeterministic) {
  // --jobs N only parallelizes the parse/encode work; the summary line and
  // resulting store are identical for every thread count.
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  auto record = history::ExperimentStore(store_dir_).load("poisson_C_1");
  ASSERT_TRUE(record.has_value());
  for (int i = 1; i <= 4; ++i) {
    record->run_id = "legacy_C_" + std::to_string(i);
    util::write_file(store_dir_ + "/" + record->run_id + ".json", record->to_json().dump(2));
  }

  const std::string out = run("migrate", {"--store", store_dir_, "--jobs", "4"});
  EXPECT_NE(out.find("migrated 4 legacy JSON record(s)"), std::string::npos);
  for (int i = 1; i <= 4; ++i)
    EXPECT_TRUE(fs::exists(store_dir_ + "/legacy_C_" + std::to_string(i) + ".histexp"));
  EXPECT_NE(run("migrate", {"--store", store_dir_, "--jobs", "4"}).find("migrated 0"),
            std::string::npos);

  std::ostringstream sink;
  EXPECT_THROW(run_command("migrate", {"--store", store_dir_, "--jobs", "-1"}, sink),
               ArgsError);
}

TEST_F(CliTest, ListFiltersByStoredFields) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C",
              "--scenario", "strong"});
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "D",
              "--scenario", "weak"});

  const std::string all = run("list", {"--store", store_dir_});
  EXPECT_NE(all.find("poisson_C_1"), std::string::npos);
  EXPECT_NE(all.find("poisson_D_1"), std::string::npos);
  EXPECT_NE(all.find("strong"), std::string::npos);

  const std::string weak_only =
      run("list", {"--store", store_dir_, "--scenario", "weak"});
  EXPECT_EQ(weak_only.find("poisson_C_1"), std::string::npos);
  EXPECT_NE(weak_only.find("poisson_D_1"), std::string::npos);

  const std::string none = run("list", {"--store", store_dir_, "--version", "Z"});
  EXPECT_NE(none.find("(no records)"), std::string::npos);
}

TEST_F(CliTest, ReportBinsRendersHistogram) {
  const std::string out = run("report", {"seismic", "--duration", "120", "--bins", "20"});
  EXPECT_NE(out.find("time histogram (20 bins"), std::string::npos);
  // Three metric rows of 20 digits each.
  for (const char* label : {"cpu ", "sync", "io  "})
    EXPECT_NE(out.find(label), std::string::npos);
}

TEST_F(CliTest, CompareRendersMovement) {
  run("run", {"poisson_a", "--duration", "300", "--store", store_dir_, "--version", "A"});
  run("run", {"poisson_b", "--duration", "300", "--store", store_dir_, "--version", "B"});
  const std::string out =
      run("compare", {"poisson_A_1", "poisson_B_1", "--store", store_dir_});
  EXPECT_NE(out.find("comparison: poisson_A_1 -> poisson_B_1"), std::string::npos);
  EXPECT_NE(out.find("biggest movers"), std::string::npos);
}

TEST_F(CliTest, ShowReportRendersMarkdown) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  const std::string report =
      run("show", {"poisson_C_1", "--store", store_dir_, "--report"});
  EXPECT_NE(report.find("# Tuning report"), std::string::npos);
  EXPECT_NE(report.find("Hot spots by view"), std::string::npos);
}

TEST_F(CliTest, RunsJsonWorkloadSpec) {
  fs::create_directories(store_dir_);
  const std::string wl_file = store_dir_ + "/wl.json";
  histpc::util::write_file(wl_file, R"({
    "name": "clisolver",
    "ranks": 2,
    "iterations": 400,
    "body": [
      { "op": "compute", "seconds": 0.5, "factors": [1.0, 0.3],
        "function": "solve", "module": "solver.c" },
      { "op": "barrier" }
    ]
  })");
  const std::string out = run("run", {"--workload", wl_file, "--store", store_dir_,
                                      "--version", "1"});
  EXPECT_NE(out.find("running clisolver"), std::string::npos);
  EXPECT_NE(out.find("ExcessiveSyncWaitingTime"), std::string::npos);
  EXPECT_NE(out.find("stored experiment record 'clisolver_1_1'"), std::string::npos);
  const std::string report = run("report", {"--workload", wl_file});
  EXPECT_NE(report.find("whole-program fractions"), std::string::npos);
}

TEST_F(CliTest, RunRecordsChromeTelemetryTrace) {
  fs::create_directories(store_dir_);
  const std::string trace_file = store_dir_ + "/search.trace.json";
  const std::string out =
      run("run", {"poisson_a", "--duration", "400", "--trace", trace_file,
                  "--trace-format", "chrome"});
  EXPECT_NE(out.find("telemetry events to " + trace_file), std::string::npos);

  // The export must parse with the in-repo JSON reader and carry at least
  // one instant event per decision type the search exercised.
  const util::Json doc = util::Json::parse(util::read_file(trace_file));
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const std::vector<telemetry::Event> events = telemetry::from_chrome_trace(doc);
  std::size_t counts[std::size(telemetry::kAllEventKinds)] = {};
  for (const auto& e : events) ++counts[static_cast<std::size_t>(e.kind)];
  using telemetry::EventKind;
  for (EventKind kind : {EventKind::Instrument, EventKind::ConcludeTrue,
                         EventKind::ConcludeFalse, EventKind::Refine,
                         EventKind::ProbeInsert, EventKind::ProbeRemove,
                         EventKind::PhaseBegin, EventKind::PhaseEnd})
    EXPECT_GT(counts[static_cast<std::size_t>(kind)], 0u)
        << telemetry::event_kind_name(kind);

  const std::string report = run("trace-report", {trace_file});
  EXPECT_NE(report.find("by hypothesis:"), std::string::npos);
  EXPECT_NE(report.find("CPUbound"), std::string::npos);
  EXPECT_NE(report.find("probe inserts:"), std::string::npos);
}

TEST_F(CliTest, TraceRoundTripsThroughDiagnoseTrace) {
  fs::create_directories(store_dir_);
  const std::string sim_trace = store_dir_ + "/exec.json";
  run("run", {"poisson_a", "--duration", "300", "--save-trace", sim_trace});
  const std::string tele_trace = store_dir_ + "/search.jsonl";
  const std::string out = run("diagnose-trace", {sim_trace, "--trace", tele_trace});
  EXPECT_NE(out.find("telemetry events to " + tele_trace), std::string::npos);
  const std::vector<telemetry::Event> events = telemetry::load_trace_file(tele_trace);
  EXPECT_FALSE(events.empty());
  const std::string report = run("trace-report", {tele_trace});
  EXPECT_NE(report.find("peak active cost:"), std::string::npos);
}

TEST_F(CliTest, TraceReportDiagnosesEmptyAndCorruptFiles) {
  fs::create_directories(store_dir_);
  // An empty trace is a user mistake worth a pointed message, not a silent
  // zero-count report — and scripts need the non-zero exit.
  const std::string empty_file = store_dir_ + "/empty.jsonl";
  util::write_file(empty_file, "");
  std::ostringstream out;
  EXPECT_EQ(run_command("trace-report", {empty_file}, out), 1);
  EXPECT_NE(out.str().find("the trace is empty"), std::string::npos) << out.str();

  const std::string corrupt_file = store_dir_ + "/corrupt.jsonl";
  util::write_file(corrupt_file, "this is not an event\n");
  std::ostringstream out2;
  EXPECT_EQ(run_command("trace-report", {corrupt_file}, out2), 1);
  EXPECT_NE(out2.str().find("not a readable telemetry trace"), std::string::npos)
      << out2.str();
  EXPECT_NE(out2.str().find(corrupt_file), std::string::npos);
}

TEST_F(CliTest, TraceReportShowsPhaseLapExtrema) {
  fs::create_directories(store_dir_);
  const std::string trace_file = store_dir_ + "/search.jsonl";
  run("run", {"poisson_a", "--duration", "400", "--trace", trace_file});
  const std::string report = run("trace-report", {trace_file});
  EXPECT_NE(report.find("min lap"), std::string::npos);
  EXPECT_NE(report.find("max lap"), std::string::npos);
}

TEST_F(CliTest, RunAppendsPerfRecordAndPerfReportRendersIt) {
  const std::string out = run("run", {"poisson_c", "--duration", "300", "--store",
                                      store_dir_, "--version", "C"});
  EXPECT_NE(out.find("appended perf record to"), std::string::npos);
  ASSERT_TRUE(fs::exists(store_dir_ + "/perf-log/poisson_c.jsonl"));

  const std::string report =
      run("perf-report", {"--app", "poisson_c", "--store", store_dir_});
  EXPECT_NE(report.find("app:        poisson_c (version C, kind diagnose)"),
            std::string::npos)
      << report;
  // The session phases and the consultant's own timers both made it in.
  EXPECT_NE(report.find("session.diagnose"), std::string::npos);
  EXPECT_NE(report.find("pc.advance"), std::string::npos);
  EXPECT_NE(report.find("p50"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
}

TEST_F(CliTest, PerfReportJsonAndTableQuantilesAreBitIdentical) {
  run("run", {"poisson_c", "--duration", "300", "--store", store_dir_, "--version", "C"});
  const std::string table =
      run("perf-report", {"--app", "poisson_c", "--store", store_dir_});
  const std::string json_text =
      run("perf-report", {"--app", "poisson_c", "--store", store_dir_, "--json"});

  // Both outputs derive from the same Histogram::quantile doubles; the
  // table cell must be exactly fmt_seconds of the JSON value, for every
  // timer and every reported quantile.
  const util::Json rec = util::Json::parse(json_text);
  const auto& hists = rec.at("telemetry").at("histograms").as_object();
  std::size_t checked = 0;
  for (const auto& [name, h] : hists) {
    for (const char* q : {"p50", "p90", "p99"}) {
      EXPECT_NE(table.find(util::fmt_seconds(h.at(q).as_double())), std::string::npos)
          << name << " " << q;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(CliTest, PerfDiffDetectsInjectedSlowdownAndExitsNonZero) {
  fs::create_directories(store_dir_);
  // Synthetic history: five baseline records of ~2 ms laps, then a current
  // log whose latest record runs the same timer at 4 ms (the injected 2x
  // slowdown from the acceptance criteria).
  auto make_record = [](double lap) {
    telemetry::PerfRecord rec;
    rec.app = "synthetic";
    rec.kind = "diagnose";
    rec.machine = "host";
    rec.build = "build1";
    for (int i = 0; i < 8; ++i) rec.registry.add_seconds("hot.path", lap * (1.0 + 0.01 * i));
    return rec;
  };
  const std::string baseline_path = store_dir_ + "/baseline.jsonl";
  telemetry::PerfLog baseline(baseline_path);
  for (int i = 0; i < 5; ++i) baseline.append(make_record(2e-3 * (1.0 + 0.02 * (i - 2))));

  const std::string slow_path = store_dir_ + "/slow.jsonl";
  telemetry::PerfLog(slow_path).append(make_record(4e-3));
  std::ostringstream slow_out;
  EXPECT_EQ(run_command("perf-diff",
                        {"--log", slow_path, "--baseline", baseline_path}, slow_out),
            1);
  // Both the mean and the histogram median of the slowed timer regress.
  EXPECT_NE(slow_out.str().find("REGRESSED"), std::string::npos) << slow_out.str();
  EXPECT_NE(slow_out.str().find("2 regressed"), std::string::npos) << slow_out.str();

  // Unmodified code (same ~2 ms laps) passes with exit 0.
  const std::string ok_path = store_dir_ + "/ok.jsonl";
  telemetry::PerfLog(ok_path).append(make_record(2e-3));
  const std::string ok_out =
      run("perf-diff", {"--log", ok_path, "--baseline", baseline_path});
  EXPECT_EQ(ok_out.find("REGRESSED"), std::string::npos) << ok_out;
  EXPECT_NE(ok_out.find("0 regressed"), std::string::npos);

  // --json agrees on the verdict and exit code.
  std::ostringstream json_out;
  EXPECT_EQ(run_command("perf-diff",
                        {"--log", slow_path, "--baseline", baseline_path, "--json"},
                        json_out),
            1);
  EXPECT_GT(util::Json::parse(json_out.str()).at("regressions").as_int(), 0);
}

TEST_F(CliTest, PerfDiffWithoutHistoryExitsTwo) {
  fs::create_directories(store_dir_);
  // Missing log entirely: nothing to compare.
  std::ostringstream out;
  EXPECT_EQ(run_command("perf-diff", {"--log", store_dir_ + "/nope.jsonl"}, out), 2);
  EXPECT_NE(out.str().find("no perf records"), std::string::npos);

  // One record but no earlier runs and no --baseline: still nothing.
  const std::string lone_path = store_dir_ + "/lone.jsonl";
  telemetry::PerfRecord rec;
  rec.app = "synthetic";
  rec.registry.add_seconds("t", 1e-3);
  telemetry::PerfLog(lone_path).append(rec);
  std::ostringstream out2;
  EXPECT_EQ(run_command("perf-diff", {"--log", lone_path}, out2), 2);
  EXPECT_NE(out2.str().find("no baseline records"), std::string::npos);

  // perf-report on an empty log also signals "nothing here" with 2.
  std::ostringstream out3;
  EXPECT_EQ(run_command("perf-report", {"--log", store_dir_ + "/nope.jsonl"}, out3), 2);
}

TEST_F(CliTest, PerfDiffWindowZeroIsNothingToCompare) {
  fs::create_directories(store_dir_);
  const std::string log_path = store_dir_ + "/perf.jsonl";
  telemetry::PerfRecord rec;
  rec.app = "synthetic";
  rec.registry.add_seconds("t", 1e-3);
  telemetry::PerfLog log(log_path);
  log.append(rec);
  log.append(rec);

  // --window 0 selects no baseline records: exit 2, never "all clear" (the
  // old behaviour clamped 0 to 1 and reported a healthy diff).
  std::ostringstream out;
  EXPECT_EQ(run_command("perf-diff", {"--log", log_path, "--window", "0"}, out), 2);
  EXPECT_NE(out.str().find("nothing to compare"), std::string::npos);

  std::ostringstream sink;
  EXPECT_THROW(run_command("perf-diff", {"--log", log_path, "--window", "-1"}, sink),
               ArgsError);
  EXPECT_THROW(run_command("perf-diff", {"--log", log_path, "--window", "5x"}, sink),
               ArgsError);
}

TEST(CliUsage, MentionsEveryCommand) {
  const std::string u = usage();
  for (const char* cmd :
       {"apps", "report", "run", "list", "show", "harvest", "map", "diff", "diagnose-trace",
        "trace-report", "perf-report", "perf-diff", "migrate", "serve", "bench-client"})
    EXPECT_NE(u.find(cmd), std::string::npos) << cmd;
}

}  // namespace
}  // namespace histpc::cli
