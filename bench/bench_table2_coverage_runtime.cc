// Table 2 — Transformation coverage and runtime: our approach vs Auto-Join,
// under n-gram row matching (top panel) and golden row matching (bottom
// panel).
//
// Reported per dataset (means over its table pairs; times are totals):
//   Top Cov.   coverage of the single best transformation
//   Coverage   coverage of the covering set
//   #Trans.    size of the covering set
//   Time       discovery wall time (ours) / Auto-Join wall time
// Auto-Join columns show the union of per-subset transformations, mirroring
// the paper ("for a covering set, we took all transformations returned").
// Paper shape: our coverage ~1.00 everywhere, Auto-Join <= 0.45 with runtimes
// 3-4 orders of magnitude larger (often hitting the time cap).

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace tj {
namespace {

void RunPanel(const std::vector<BenchDataset>& suite, MatchingMode matching,
              ThreadPool* pool, const char* title) {
  std::printf("-- %s --\n", title);
  TablePrinter table({"Dataset", "TopCov", "(AJ)", "Coverage", "(AJ)",
                      "#Trans", "(AJ)", "Time", "(AJ Time)"});
  for (const BenchDataset& dataset : suite) {
    std::vector<double> top;
    std::vector<double> cover;
    std::vector<double> ntrans;
    double seconds = 0.0;
    std::vector<double> aj_top;
    std::vector<double> aj_cover;
    std::vector<double> aj_ntrans;
    double aj_seconds = 0.0;
    bool aj_any_capped = false;
    const std::vector<DiscoveryEval> ours_all =
        EvaluateDiscoveryAll(dataset, matching, pool);
    for (const DiscoveryEval& ours : ours_all) {
      top.push_back(ours.top_coverage);
      cover.push_back(ours.cover_coverage);
      ntrans.push_back(static_cast<double>(ours.num_transformations));
      seconds += ours.seconds;
    }
    for (const TablePair& pair : dataset.tables) {
      const AutoJoinEval aj = EvaluateAutoJoin(pair, dataset, matching);
      aj_top.push_back(aj.top_coverage);
      aj_cover.push_back(aj.union_coverage);
      aj_ntrans.push_back(static_cast<double>(aj.num_transformations));
      aj_seconds += aj.seconds;
      aj_any_capped |= aj.capped;
    }
    table.AddRow(
        {dataset.name, FormatDouble(Mean(top), 2),
         StrPrintf("(%.2f)", Mean(aj_top)), FormatDouble(Mean(cover), 2),
         StrPrintf("(%.2f)", Mean(aj_cover)), FormatDouble(Mean(ntrans), 2),
         StrPrintf("(%.2f)", Mean(aj_ntrans)), FormatSeconds(seconds),
         StrPrintf("(%s%s)", FormatSeconds(aj_seconds).c_str(),
                   aj_any_capped ? ", capped" : "")});
  }
  table.Print();
  std::printf("\n");
}

void Run() {
  std::printf("== Table 2: Coverage and runtime, ours vs Auto-Join ==\n");
  std::printf(
      "(Auto-Join runs under a per-table budget of enumerated units; "
      "'capped' marks\nruns that spent it, the analogue of the paper's "
      "650,000s cap.)\n\n");
  const SuiteOptions options = SuiteOptionsFromEnv();
  const std::vector<BenchDataset> suite = BuildSuite(options);
  ThreadPool pool(options.num_threads);
  RunPanel(suite, MatchingMode::kNgram, &pool, "N-gram row matching");
  RunPanel(suite, MatchingMode::kGolden, &pool, "Golden row matching");
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
