// Regenerates Table 4: hyperedge prediction accuracy (ACC) and AUC for
// five classifiers under three feature sets (HM26, HM7, HC).
//
// Paper shape to verify: for every classifier HM26 >= HM7 > HC; using
// h-motif features beats the hand-crafted baseline throughout.
#include "bench/bench_util.h"
#include "gen/generators.h"
#include "ml/evaluate.h"
#include "ml/features.h"

int main() {
  using namespace mochy;
  bench::PrintHeader("Table 4: hyperedge prediction (ACC / AUC)");

  GeneratorConfig history_config =
      DefaultConfig(Domain::kCoauthorship, bench::BenchScale());
  history_config.seed = 100;
  const Hypergraph history = GenerateDomainHypergraph(history_config).value();
  GeneratorConfig future_config = history_config;
  future_config.seed = 200;
  future_config.num_edges = history_config.num_edges / 3;
  const Hypergraph future = GenerateDomainHypergraph(future_config).value();
  const std::vector<std::vector<NodeId>> candidates =
      PredictionCandidates(future);

  PredictionTaskOptions task_options;
  task_options.seed = 3;
  task_options.num_threads = 2;
  const PredictionTask task =
      BuildHyperedgePredictionTask(history, candidates, task_options).value();
  std::printf("history %zu edges; %zu real + %zu fake candidates\n",
              history.num_edges(), candidates.size(), candidates.size());

  const auto rows = EvaluatePredictionTask(task);
  if (!rows.ok()) return 1;

  std::printf("\n%-22s | %6s %6s %6s | %6s %6s %6s\n", "classifier",
              "HM26", "HM7", "HC", "HM26", "HM7", "HC");
  std::printf("%-22s | %20s | %20s\n", "", "ACC", "AUC");
  int hm_beats_hc = 0;
  for (const ClassifierScores& row : rows.value()) {
    const auto& acc = row.accuracy;
    const auto& auc = row.auc;
    std::printf("%-22s | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f\n",
                row.title, acc[0], acc[1], acc[2], auc[0], auc[1], auc[2]);
    if (auc[0] > auc[2] && auc[1] > auc[2]) ++hm_beats_hc;
  }
  std::printf("\nshape check: h-motif features beat HC for %d/5 classifiers "
              "(paper: 5/5)\n", hm_beats_hc);
  return 0;
}
