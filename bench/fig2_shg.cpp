// Figure 2 — A Performance Consultant search in progress, rendered as the
// Search History Graph list box: TopLevelHypothesis refined into the three
// hypotheses; ExcessiveSyncWaitingTime and ExcessiveIOBlockingTime test
// false, CPUbound tests true and is refined; the modules bubba.C,
// channel.C, anneal.C, outchan.C and graph.C test false while partition.C
// and the machine node goat test true and are refined.
#include "bench_common.h"

using namespace histpc;

int main() {
  bench::print_header("Figure 2: a Performance Consultant search in progress",
                      "Karavanic & Miller SC'99, Figure 2 (Section 2)");

  apps::AppParams params;
  params.target_duration = 1200.0;
  core::DiagnosisSession session("bubba", params);
  std::string shg;
  const pc::DiagnosisResult result =
      session.diagnose({}, [&](const pc::SearchHistoryGraph& g) { shg = g.render(); });

  std::printf("%s\n", shg.c_str());
  std::printf("search: %zu pairs tested, %zu true\n\n", result.stats.pairs_tested,
              result.stats.bottlenecks);
  std::printf(
      "expected shape (paper Figure 2): ExcessiveSyncWaitingTime and\n"
      "ExcessiveIOBlockingTime false; CPUbound true and refined; bubba.C,\n"
      "channel.C, anneal.C, outchan.C, graph.C false; goat and partition.C\n"
      "true and refined further.\n");
  return 0;
}
