// Table 3 — End-to-end join performance (P/R/F1): our transform-then-join
// vs Auto-FuzzyJoin vs Auto-Join.
//
// Our engine and Auto-Join learn on n-gram-matched pairs, apply the
// discovered transformations with the dataset's minimum join support to the
// whole source column, and equi-join the transformed values; AFJ joins by
// auto-programmed similarity alone. Paper shape: ours wins on F1 everywhere;
// Auto-Join has high precision but poor recall on noisy data; AFJ has no
// transformations and struggles with duplicate-heavy sources.

#include <cstdio>
#include <vector>

#include "baselines/autojoin.h"
#include "baselines/fuzzyjoin.h"
#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tj {
namespace {

PrfMetrics RunAutoJoinJoin(const TablePair& pair, const BenchDataset& config) {
  const std::vector<ExamplePair> rows =
      LearningPairs(pair, config, MatchingMode::kNgram);
  AutoJoinOptions options;
  options.time_budget_seconds = config.autojoin_budget_seconds;
  AutoJoinResult result = RunAutoJoin(rows, options);
  const std::vector<RowPair> joined =
      ApplyAndEquiJoin(pair.SourceColumn(), pair.TargetColumn(), result.store,
                       result.units, result.found);
  return EvaluatePairs(joined, pair.golden);
}

void Run() {
  std::printf("== Table 3: End-to-end join (P / R / F1) ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  const std::vector<BenchDataset> suite = BuildSuite(suite_options);
  // One pool for the whole bench, shared by every pair's discovery.
  ThreadPool pool(suite_options.num_threads);
  TablePrinter table({"Dataset", "Ours P", "Ours R", "Ours F", "AFJ P",
                      "AFJ R", "AFJ F", "AJ P", "AJ R", "AJ F"});
  for (const BenchDataset& dataset : suite) {
    std::vector<double> ours_p, ours_r, ours_f;
    std::vector<double> afj_p, afj_r, afj_f;
    std::vector<double> aj_p, aj_r, aj_f;
    for (const TablePair& pair : dataset.tables) {
      JoinOptions options;
      options.matching = MatchingMode::kNgram;
      options.discovery = dataset.discovery;
      options.discovery.pool = &pool;
      options.min_join_support = dataset.join_support;
      options.sample_pairs = dataset.sample_pairs;
      const JoinResult ours = TransformJoin(pair, options);
      ours_p.push_back(ours.metrics.precision);
      ours_r.push_back(ours.metrics.recall);
      ours_f.push_back(ours.metrics.f1);

      const FuzzyJoinResult afj = RunAutoFuzzyJoin(
          pair.SourceColumn(), pair.TargetColumn(), FuzzyJoinOptions());
      const PrfMetrics afj_m = EvaluatePairs(afj.joined, pair.golden);
      afj_p.push_back(afj_m.precision);
      afj_r.push_back(afj_m.recall);
      afj_f.push_back(afj_m.f1);

      const PrfMetrics aj_m = RunAutoJoinJoin(pair, dataset);
      aj_p.push_back(aj_m.precision);
      aj_r.push_back(aj_m.recall);
      aj_f.push_back(aj_m.f1);
    }
    table.AddRow({dataset.name, FormatDouble(Mean(ours_p), 3),
                  FormatDouble(Mean(ours_r), 3), FormatDouble(Mean(ours_f), 3),
                  FormatDouble(Mean(afj_p), 3), FormatDouble(Mean(afj_r), 3),
                  FormatDouble(Mean(afj_f), 3), FormatDouble(Mean(aj_p), 3),
                  FormatDouble(Mean(aj_r), 3), FormatDouble(Mean(aj_f), 3)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
