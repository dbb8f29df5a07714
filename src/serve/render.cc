#include "serve/render.h"

#include <memory>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/features.h"
#include "ml/knn.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "serve/protocol.h"

namespace mochy {

namespace {

// Fixed evaluation protocol (examples/hyperedge_prediction.cpp, Table 4):
// 30% held out for testing, split seed 17. Baked in rather than exposed
// so a predict body is a pure function of (graphs, PredictionTaskOptions).
constexpr double kTestFraction = 0.3;
constexpr uint64_t kSplitSeed = 17;

}  // namespace

std::string RenderPerEdgeBody(const PerEdgeCounts& rows) {
  // Appends into one string: g++ 12 at -O3 reports a false -Wrestrict
  // inside chained std::string `+` here.
  std::string body = "rows ";
  body += std::to_string(rows.size());
  body += '\n';
  for (size_t e = 0; e < rows.size(); ++e) {
    body += "row ";
    body += std::to_string(e);
    for (const double count : rows[e]) {
      body += ' ';
      body += EncodeDouble(count);
    }
    body += '\n';
  }
  return body;
}

Result<std::string> RenderPredictBody(const Hypergraph& history,
                                      const Hypergraph& candidates,
                                      const PredictionTaskOptions& options) {
  if (history.num_nodes() < candidates.num_nodes()) {
    return Status::InvalidArgument(
        "candidate graph spans " + std::to_string(candidates.num_nodes()) +
        " nodes but history has only " + std::to_string(history.num_nodes()) +
        " — candidates must live in the history's node universe");
  }
  std::vector<std::vector<NodeId>> edges;
  for (EdgeId e = 0; e < candidates.num_edges(); ++e) {
    const auto span = candidates.edge(e);
    if (span.size() >= 2) edges.emplace_back(span.begin(), span.end());
  }
  if (edges.empty()) {
    return Status::InvalidArgument(
        "no usable candidates: every hyperedge has fewer than 2 members");
  }

  MOCHY_ASSIGN_OR_RETURN(PredictionTask task,
                         BuildHyperedgePredictionTask(history, edges, options));

  std::string body = "task history=";
  body += std::to_string(history.num_edges());
  body += " real=";
  body += std::to_string(edges.size());
  body += " fake=";
  body += std::to_string(edges.size());
  body += "\nhm7";
  for (const int index : task.hm7_feature_indices) {
    body += ' ';
    body += std::to_string(index + 1);  // report motif ids, not indices
  }
  body += '\n';

  struct Entry {
    const char* name;
    std::unique_ptr<Classifier> (*make)();
  };
  const Entry classifiers[] = {
      {"logistic",
       [] { return std::unique_ptr<Classifier>(new LogisticRegression()); }},
      {"forest",
       [] { return std::unique_ptr<Classifier>(new RandomForest()); }},
      {"tree",
       [] { return std::unique_ptr<Classifier>(new DecisionTree()); }},
      {"knn",
       [] { return std::unique_ptr<Classifier>(new KNearestNeighbors()); }},
      {"mlp",
       [] { return std::unique_ptr<Classifier>(new MlpClassifier()); }},
  };
  const struct {
    const char* name;
    const Dataset* data;
  } sets[] = {{"hm26", &task.hm26}, {"hm7", &task.hm7}, {"hc", &task.hc}};

  for (const Entry& entry : classifiers) {
    for (const auto& set : sets) {
      Dataset train, test;
      MOCHY_RETURN_IF_ERROR(
          TrainTestSplit(*set.data, kTestFraction, kSplitSeed, &train, &test));
      auto clf = entry.make();
      MOCHY_RETURN_IF_ERROR(clf->Fit(train));
      const std::vector<double> scores = clf->PredictAll(test);
      body += "model ";
      body += entry.name;
      body += ' ';
      body += set.name;
      body += " acc=";
      body += EncodeDouble(Accuracy(test.labels, scores));
      body += " auc=";
      body += EncodeDouble(AucScore(test.labels, scores));
      body += '\n';
    }
  }
  return body;
}

}  // namespace mochy
