// §5.3 — Performance under sampling: analytic discovery probabilities vs an
// empirical check.
//
// Analytic: for a transformation with coverage fraction q and sample size s,
//   P(discovered) = 1 - P0 - P1,  P0 = (1-q)^s,  P1 = s q (1-q)^(s-1)
// (at least two supporting rows must be sampled). Auto-Join instead needs a
// whole subset covered: P(subset covered) = q^s, so the expected number of
// subsets needed is 1/q^s. The paper's example: q = 0.05, s = 100 gives
// 0.96 for us; Auto-Join with s = 2 needs ~400 subsets.
//
// Empirical: Synth tables with 3 ground-truth rules; discovery runs on a
// random sample and we count how many rules the covering set recovers.

#include <cmath>
#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/discovery.h"
#include "datagen/synth.h"

namespace tj {
namespace {

double AnalyticDiscoveryProbability(double q, double s) {
  const double p0 = std::pow(1.0 - q, s);
  const double p1 = s * q * std::pow(1.0 - q, s - 1.0);
  return 1.0 - p0 - p1;
}

void RunAnalytic() {
  std::printf("-- Analytic: P(discover) = 1 - P0 - P1 --\n");
  TablePrinter table({"coverage q", "sample s", "P(ours)",
                      "AJ subsets for E=1 (s=2)"});
  for (double q : {0.05, 0.10, 0.25, 0.50}) {
    for (double s : {20.0, 50.0, 100.0}) {
      table.AddRow({FormatDouble(q, 2), FormatDouble(s, 0),
                    FormatDouble(AnalyticDiscoveryProbability(q, s), 3),
                    FormatDouble(1.0 / (q * q), 0)});
    }
  }
  table.Print();
  std::printf("(paper's example: q=0.05, s=100 -> 0.96; Auto-Join needs ~400 "
              "subsets)\n\n");
}

void RunEmpirical() {
  std::printf("-- Empirical: rules recovered from a sample (3 rules/table) "
              "--\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  ThreadPool pool(suite_options.num_threads);
  DiscoveryOptions discovery;
  discovery.pool = &pool;
  const auto base_rows = static_cast<size_t>(400 * suite_options.scale);
  const size_t total_rows = base_rows < 40 ? 40 : base_rows;
  TablePrinter table({"sample size", "rules covered (of 3)",
                      "sample coverage", "full coverage"});
  for (size_t sample : {20, 50, 100, 200}) {
    double rules_sum = 0.0;
    double sample_cov_sum = 0.0;
    double full_cov_sum = 0.0;
    const int trials = 3;
    for (int trial = 0; trial < trials; ++trial) {
      SynthOptions options = SynthN(total_rows, 31 + trial * 13);
      const SynthDataset ds = GenerateSynth(options);
      std::vector<ExamplePair> all = MakeExamplePairs(
          ds.pair.SourceColumn(), ds.pair.TargetColumn(),
          ds.pair.golden.pairs());
      // Uniform sample without replacement.
      Rng rng(0xabcdULL + trial);
      std::vector<uint32_t> idx(all.size());
      for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
      rng.Shuffle(&idx);
      idx.resize(std::min(sample, idx.size()));
      std::vector<ExamplePair> sampled;
      for (uint32_t i : idx) sampled.push_back(all[i]);

      const DiscoveryResult result =
          DiscoverTransformations(sampled, discovery);
      sample_cov_sum += result.CoverSetCoverageFraction();

      // Apply the discovered covering set to the full input: how many rows
      // and how many ground-truth rules does it explain?
      size_t covered = 0;
      std::vector<bool> rule_hit(ds.transformations.size(), false);
      for (size_t r = 0; r < all.size(); ++r) {
        for (const auto& ranked : result.cover.selected) {
          if (result.store.Get(ranked.id)
                  .Covers(all[r].source, all[r].target, result.units)) {
            ++covered;
            rule_hit[ds.row_rule[r]] = true;
            break;
          }
        }
      }
      full_cov_sum +=
          static_cast<double>(covered) / static_cast<double>(all.size());
      for (bool hit : rule_hit) rules_sum += hit ? 1.0 : 0.0;
    }
    table.AddRow({FormatDouble(static_cast<double>(sample), 0),
                  FormatDouble(rules_sum / trials, 2),
                  FormatDouble(sample_cov_sum / trials, 2),
                  FormatDouble(full_cov_sum / trials, 2)});
  }
  table.Print();
  std::printf("(shape: even small samples recover all rules and generalize "
              "to the full input)\n\n");
}

}  // namespace
}  // namespace tj

int main() {
  std::printf("== Section 5.3: Performance under sampling ==\n\n");
  tj::RunAnalytic();
  tj::RunEmpirical();
  return 0;
}
