// Hyperedge features for the Table 4 prediction task.
//
// Three feature sets per candidate hyperedge, exactly as in the paper:
//  - HM26: the number of each h-motif's instances containing the edge
//    (computed in a combined hypergraph of history + all candidates).
//  - HM7: the 7 HM26 features with the largest variance.
//  - HC: hand-crafted baseline — mean/max/min node degree, mean/max/min
//    node neighbor-count over the edge's members, plus the edge size.
#ifndef MOCHY_ML_FEATURES_H_
#define MOCHY_ML_FEATURES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "ml/dataset.h"
#include "motif/pattern.h"

namespace mochy {

struct PredictionTaskOptions {
  /// Fraction of members replaced when fabricating fake edges.
  double replace_fraction = 0.5;
  uint64_t seed = 1;
  /// Worker budget for the projection and the per-candidate HM26 rows;
  /// 0 means all cores (DefaultThreadCount()).
  size_t num_threads = 0;
};

/// One candidate classification task: the same rows/labels expressed under
/// the three feature sets (row i of each dataset is candidate i).
struct PredictionTask {
  Dataset hm26;
  Dataset hm7;
  Dataset hc;
  /// The HM26 feature indices (motif id - 1) retained by HM7.
  std::array<int, 7> hm7_feature_indices{};
};

/// Builds the task: for every candidate (a real hyperedge of the target
/// period), one fake counterpart is fabricated by member replacement, a
/// combined hypergraph (history + real + fake candidates) is formed, and
/// all three feature sets are extracted for real (label 1) and fake
/// (label 0) candidates.
Result<PredictionTask> BuildHyperedgePredictionTask(
    const Hypergraph& history,
    const std::vector<std::vector<NodeId>>& candidates,
    const PredictionTaskOptions& options = {});

/// HC features of each edge of `graph` (7 values per edge; see above).
std::vector<std::vector<double>> ComputeHandcraftedFeatures(
    const Hypergraph& graph);

}  // namespace mochy

#endif  // MOCHY_ML_FEATURES_H_
