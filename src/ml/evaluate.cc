#include "ml/evaluate.h"

#include <memory>

#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace mochy {

namespace {

constexpr double kTestFraction = 0.3;
constexpr uint64_t kSplitSeed = 17;

struct Entry {
  const char* name;
  const char* title;
  std::unique_ptr<Classifier> (*make)();
};

template <typename T>
std::unique_ptr<Classifier> Make() {
  return std::make_unique<T>();
}

constexpr Entry kClassifiers[] = {
    {"logistic", "Logistic Regression", Make<LogisticRegression>},
    {"forest", "Random Forest", Make<RandomForest>},
    {"tree", "Decision Tree", Make<DecisionTree>},
    {"knn", "K-Nearest Neighbors", Make<KNearestNeighbors>},
    {"mlp", "MLP Classifier", Make<MlpClassifier>},
};

}  // namespace

Result<std::vector<ClassifierScores>> EvaluatePredictionTask(
    const PredictionTask& task) {
  const Dataset* sets[] = {&task.hm26, &task.hm7, &task.hc};
  std::vector<ClassifierScores> rows;
  for (const Entry& entry : kClassifiers) {
    ClassifierScores row{entry.name, entry.title};
    for (size_t s = 0; s < kFeatureSetNames.size(); ++s) {
      Dataset train, test;
      MOCHY_RETURN_IF_ERROR(
          TrainTestSplit(*sets[s], kTestFraction, kSplitSeed, &train, &test));
      const std::unique_ptr<Classifier> clf = entry.make();
      MOCHY_RETURN_IF_ERROR(clf->Fit(train));
      const std::vector<double> scores = clf->PredictAll(test);
      row.accuracy[s] = Accuracy(test.labels, scores);
      row.auc[s] = AucScore(test.labels, scores);
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace mochy
