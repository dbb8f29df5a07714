// Hyperedge prediction with h-motif features (paper Section 4.4, Table 4).
//
// Trains five classifiers to separate real future hyperedges from
// fabricated ones, using HM26 (h-motif participation counts), HM7 (the 7
// highest-variance HM26 features), and HC (hand-crafted degree features).
// Reproduces the feature-set ordering HM26 >= HM7 > HC.
//
//   $ ./build/examples/hyperedge_prediction
#include <cstdio>

#include "gen/generators.h"
#include "ml/evaluate.h"
#include "ml/features.h"

int main() {
  using namespace mochy;

  // "History" = earlier co-authorship period; candidates = later period.
  GeneratorConfig history_config = DefaultConfig(Domain::kCoauthorship, 0.25);
  history_config.seed = 100;
  const Hypergraph history =
      GenerateDomainHypergraph(history_config).value();

  GeneratorConfig future_config = history_config;
  future_config.seed = 200;
  future_config.num_edges = history_config.num_edges / 3;
  const Hypergraph future = GenerateDomainHypergraph(future_config).value();
  const std::vector<std::vector<NodeId>> candidates =
      PredictionCandidates(future);
  std::printf("history: %zu edges; candidates: %zu real + %zu fake\n",
              history.num_edges(), candidates.size(), candidates.size());

  PredictionTaskOptions task_options;
  task_options.seed = 3;
  task_options.num_threads = 2;
  const PredictionTask task =
      BuildHyperedgePredictionTask(history, candidates, task_options).value();

  const auto rows = EvaluatePredictionTask(task);
  if (!rows.ok()) return 1;

  std::printf("\n%-22s %6s %6s %6s   %6s %6s %6s\n", "",
              "ACC", "ACC", "ACC", "AUC", "AUC", "AUC");
  std::printf("%-22s %6s %6s %6s   %6s %6s %6s\n", "classifier", "HM26",
              "HM7", "HC", "HM26", "HM7", "HC");
  for (const ClassifierScores& row : rows.value()) {
    const auto& acc = row.accuracy;
    const auto& auc = row.auc;
    std::printf("%-22s %6.3f %6.3f %6.3f   %6.3f %6.3f %6.3f\n", row.title,
                acc[0], acc[1], acc[2], auc[0], auc[1], auc[2]);
  }
  std::printf("\nHM7 uses h-motifs:");
  for (int idx : task.hm7_feature_indices) std::printf(" %d", idx + 1);
  std::printf("\n");
  return 0;
}
