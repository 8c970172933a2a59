// Frozen diagnoses: every case below runs one Performance Consultant
// search and compares its observable output, exactly, with a committed
// JSON file under tests/data/golden_diagnoses/. A file holds
//
//  * "diagnosis": serve::diagnose_result_json — bottlenecks, stats, the
//    deterministic telemetry counters and the Figure-2 SHG rendering;
//  * "record": history::make_record(...).to_json() — the node snapshot
//    and code usage — minus "machine" (it names the host) and
//    "resources" (it comes from the trace, not from the search).
//
// Doubles are written with %.17g, so a parsed file round-trips every bit
// and the comparison is exact. On a mismatch the test names the case and
// the first differing key, and writes the actual output to
// golden_actual/<case>.json under the working directory; copying that file
// over the committed one re-freezes a case after an intended change.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/variant_runner.h"
#include "history/experiment.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "pc/directives.h"
#include "serve/session_pool.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "util/json.h"
#include "util/rng.h"

namespace histpc {
namespace {

using pc::DiagnosisResult;
using pc::DirectiveSet;
using pc::PcConfig;
using simmpi::FunctionScope;
using simmpi::Recorder;
using util::Json;

// ------------------------------------------------ seeded random workloads

/// Randomized bottleneck workload: `ranks` ranks where the upper half
/// waits on messages from the lower half inside "exchange"; rng varies
/// the rank count, compute asymmetry, message tag, and an optional extra
/// hot function so different seeds exercise different SHG shapes.
simmpi::ExecutionTrace random_trace(util::Rng& rng) {
  const int pairs = 1 + static_cast<int>(rng.next_below(2));  // 2 or 4 ranks
  const int ranks = 2 * pairs;
  const int tag = 3 + static_cast<int>(rng.next_below(5));
  const double fast = 0.1 + 0.1 * static_cast<double>(rng.next_below(3));
  const bool extra_func = rng.next_below(2) == 0;
  const int iters = 900;
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(ranks, "node", "app"));
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < iters; ++i) {
      {
        FunctionScope f(r, "work", "work.c");
        r.compute(r.rank() >= pairs ? fast : 1.0);
      }
      if (extra_func) {
        FunctionScope f(r, "checkpoint", "io.c");
        r.compute(0.05);
      }
      {
        FunctionScope f(r, "exchange", "comm.c");
        if (r.rank() >= pairs) {
          r.recv(r.rank() - pairs, tag);
        } else {
          r.send(r.rank() + pairs, tag, 64);
        }
        r.barrier();
      }
    }
  });
  simmpi::NetworkModel net;
  net.latency = 1e-4;
  return simmpi::Simulator(net).run(b.build());
}

/// Random directive sets spanning every directive kind: subtree prunes
/// (hierarchy and mid-tree), pair prunes, priorities (including foci the
/// trace cannot refine into), and threshold overrides.
DirectiveSet random_directives(util::Rng& rng) {
  std::string text;
  if (rng.next_below(2) == 0) text += "prune * /Machine\n";
  if (rng.next_below(2) == 0) text += "prune CPUbound /SyncObject\n";
  if (rng.next_below(2) == 0) text += "prune ExcessiveSyncWaitingTime /Code/work.c\n";
  if (rng.next_below(2) == 0) text += "prune * /Process\n";
  if (rng.next_below(2) == 0)
    text += "prunepair CPUbound </Code/comm.c,/Machine,/Process,/SyncObject>\n";
  if (rng.next_below(2) == 0)
    text +=
        "priority ExcessiveSyncWaitingTime "
        "</Code/comm.c,/Machine,/Process,/SyncObject> high\n";
  if (rng.next_below(2) == 0)
    text += "priority CPUbound </Code/work.c,/Machine,/Process,/SyncObject> high\n";
  if (rng.next_below(2) == 0)
    text += "priority CPUbound </Code,/Machine,/Process,/SyncObject> low\n";
  if (rng.next_below(2) == 0) text += "threshold ExcessiveSyncWaitingTime 0.15\n";
  if (rng.next_below(2) == 0) text += "threshold * 0.25\n";
  return DirectiveSet::parse(text);
}

// ------------------------------------------------------------- the cases

/// Simulated application runs, shared by every case over the same app.
const metrics::TraceView& app_view(const std::string& app) {
  static std::map<std::string, std::unique_ptr<core::DiagnosisSession>> sessions;
  auto& s = sessions[app];
  if (!s) {
    apps::AppParams params;
    params.target_duration = 800.0;
    s = std::make_unique<core::DiagnosisSession>(app, params);
  }
  return s->view();
}

/// Record-level app label: the family name, as DiagnosisSession records it.
std::string family_of(const std::string& app) {
  std::string family = app;
  if (auto pos = family.rfind('_'); pos != std::string::npos && pos + 2 == family.size())
    family.resize(pos);
  return family;
}

std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const std::string& app : apps::app_names()) names.push_back("app_" + app);
  for (int i = 0; i < 6; ++i) names.push_back("table1_" + std::to_string(i));
  for (const char* t : {"05", "10", "20", "30"}) names.push_back(std::string("threshold_0_") + t);
  for (const char* app : {"ocean", "taskfarm"}) {
    names.push_back(std::string("discovery_") + app);
    names.push_back(std::string("extended_") + app);
  }
  for (int seed = 1; seed <= 12; ++seed) names.push_back("random_" + std::to_string(seed));
  return names;
}

/// Run the named case's search and collect everything its golden file
/// freezes.
Json run_case(const std::string& name) {
  auto suffix = [&](const char* prefix) -> std::optional<std::string> {
    if (name.rfind(prefix, 0) != 0) return std::nullopt;
    return name.substr(std::string_view(prefix).size());
  };
  std::string app = name;
  PcConfig config;
  DirectiveSet directives;
  std::unique_ptr<simmpi::ExecutionTrace> trace;
  std::unique_ptr<metrics::TraceView> random_view;
  if (auto a = suffix("app_")) {
    app = *a;
  } else if (auto v = suffix("table1_")) {
    // The six table-1 variants harvest their directives from the
    // undirected diagnosis of the same run.
    app = "poisson_c";
    const metrics::TraceView& view = app_view(app);
    const DiagnosisResult base = pc::PerformanceConsultant(view, PcConfig{}).run();
    const auto variant =
        core::table1_variants(history::make_record("poisson", "C", view, base, 0.20))
            .at(std::stoul(*v));
    config = variant.config;
    directives = variant.directives;
  } else if (auto t = suffix("threshold_0_")) {
    app = "poisson_c";
    config.threshold_override = std::stod("0." + *t);
  } else if (auto d = suffix("discovery_")) {
    app = *d;
    config.respect_discovery_times = true;
  } else if (auto e = suffix("extended_")) {
    app = *e;
    config.hypotheses = pc::HypothesisSet::standard_extended();
    if (app == "taskfarm")
      // Directives over both scoped hypotheses; taskfarm has no
      // collectives, so every ExcessiveCollectiveWaitingTime probe narrows
      // to a SyncObject part the db lacks.
      directives = DirectiveSet::parse(
          "prune ExcessiveCollectiveWaitingTime /SyncObject/Collective\n"
          "prune ExcessiveMessageWaitingTime /SyncObject/Message/2\n"
          "priority ExcessiveMessageWaitingTime "
          "</Code,/Machine,/Process,/SyncObject/Message> high\n");
  } else if (auto seed = suffix("random_")) {
    util::Rng rng(std::stoull(*seed));
    trace = std::make_unique<simmpi::ExecutionTrace>(random_trace(rng));
    random_view = std::make_unique<metrics::TraceView>(*trace);
    directives = random_directives(rng);
  }
  const metrics::TraceView& view = random_view ? *random_view : app_view(app);

  pc::PerformanceConsultant consultant(view, config, directives);
  const DiagnosisResult result = consultant.run();
  const double threshold = config.threshold_override > 0 ? config.threshold_override : 0.20;
  const Json record = history::make_record(family_of(app), "1", view, result, threshold).to_json();
  Json kept = Json::object();
  for (const auto& [key, value] : record.as_object())
    if (key != "machine" && key != "resources") kept[key] = value;

  Json j = Json::object();
  j["diagnosis"] = serve::diagnose_result_json(app, result, consultant.shg().render());
  j["record"] = std::move(kept);
  return j;
}

// ------------------------------------------------------------- comparison

/// Every scalar of a JSON tree as (path, serialized value), in order.
void flatten(const Json& j, const std::string& path,
             std::vector<std::pair<std::string, std::string>>& out) {
  if (j.is_object()) {
    for (const auto& [key, value] : j.as_object()) flatten(value, path + "." + key, out);
  } else if (j.is_array()) {
    for (std::size_t i = 0; i < j.as_array().size(); ++i)
      flatten(j.as_array()[i], path + "[" + std::to_string(i) + "]", out);
  } else {
    out.emplace_back(path, j.dump());
  }
}

/// Path of the first differing scalar (or of the first extra one); empty
/// when the trees are equal.
std::string first_difference(const Json& want, const Json& got) {
  std::vector<std::pair<std::string, std::string>> w, g;
  flatten(want, "", w);
  flatten(got, "", g);
  for (std::size_t i = 0; i < w.size() || i < g.size(); ++i) {
    if (i == w.size()) return g[i].first + " (not in the golden file)";
    if (i == g.size()) return w[i].first + " (missing)";
    if (w[i] != g[i]) return w[i].first;
  }
  return {};
}

class GoldenDiagnoses : public testing::TestWithParam<std::string> {};

TEST_P(GoldenDiagnoses, MatchesFrozenOutput) {
  const std::string& name = GetParam();
  const Json got = run_case(name);
  const std::string path =
      std::string(HISTPC_TEST_DATA_DIR) + "/golden_diagnoses/" + name + ".json";
  std::ifstream in(path, std::ios::binary);
  std::string diff = "missing golden file " + path;
  if (in) {
    std::ostringstream text;
    text << in.rdbuf();
    diff = first_difference(Json::parse(text.str()), got);
    if (diff.empty()) return;
  }
  std::filesystem::create_directories("golden_actual");
  std::ofstream("golden_actual/" + name + ".json", std::ios::binary) << got.dump(2) << "\n";
  ADD_FAILURE() << "case " << name << ": first difference at " << diff
                << "; actual output written to golden_actual/" << name << ".json";
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenDiagnoses, testing::ValuesIn(case_names()),
                         [](const testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

/// With no event sink attached, the interned search builds canonical
/// focus names only when the result snapshot is materialized — exactly
/// one per distinct node focus, never for probe foci, pruned or deferred
/// candidates.
TEST(InternTelemetry, CountersOnlySearchBuildsOnlySnapshotNames) {
  util::Rng rng(99);
  const simmpi::ExecutionTrace trace = random_trace(rng);
  const metrics::TraceView view(trace);
  ASSERT_EQ(view.foci().names_built(), 0u);

  pc::PerformanceConsultant pc(view, PcConfig{});
  const DiagnosisResult result = pc.run();

  std::set<std::string> distinct_node_foci;
  for (const auto& node : result.nodes) distinct_node_foci.insert(node.focus);
  EXPECT_EQ(view.foci().names_built(), distinct_node_foci.size());
  EXPECT_GE(view.foci().size(), distinct_node_foci.size());
}

}  // namespace
}  // namespace histpc
