// The Table 4 evaluation: five classifiers on the three feature sets of
// a hyperedge prediction task (ml/features.h), scored by accuracy and
// AUC on a held-out split.
//
// The protocol is fixed — 30% of each feature set held out for testing,
// split seed 17, default-configured classifiers — so a report is a pure
// function of the task. The served/offline predict body
// (serve/render.h), bench/table4_prediction and
// examples/hyperedge_prediction all print this one evaluation.
#ifndef MOCHY_ML_EVALUATE_H_
#define MOCHY_ML_EVALUATE_H_

#include <array>
#include <vector>

#include "common/status.h"
#include "ml/features.h"

namespace mochy {

/// Short names of a PredictionTask's feature sets, in evaluation order.
inline constexpr std::array<const char*, 3> kFeatureSetNames = {"hm26", "hm7",
                                                                 "hc"};

/// One classifier's Table 4 row; the arrays follow kFeatureSetNames.
struct ClassifierScores {
  const char* name;   ///< short name: logistic, forest, tree, knn, mlp
  const char* title;  ///< display name, e.g. "Logistic Regression"
  std::array<double, 3> accuracy{};
  std::array<double, 3> auc{};
};

/// Fits each of the five classifiers (logistic regression, random forest,
/// decision tree, k-NN, MLP, in that order) on 70% of each feature set
/// and scores it on the other 30%. Fails with the first split or fit
/// error.
Result<std::vector<ClassifierScores>> EvaluatePredictionTask(
    const PredictionTask& task);

}  // namespace mochy

#endif  // MOCHY_ML_EVALUATE_H_
