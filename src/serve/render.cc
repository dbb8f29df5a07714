#include "serve/render.h"

#include <vector>

#include "ml/evaluate.h"
#include "ml/features.h"
#include "serve/protocol.h"

namespace mochy {

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
  const std::vector<std::vector<NodeId>> edges =
      PredictionCandidates(candidates);
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

  MOCHY_ASSIGN_OR_RETURN(const std::vector<ClassifierScores> rows,
                         EvaluatePredictionTask(task));
  for (const ClassifierScores& row : rows) {
    for (size_t s = 0; s < kFeatureSetNames.size(); ++s) {
      body += "model ";
      body += row.name;
      body += ' ';
      body += kFeatureSetNames[s];
      body += " acc=";
      body += EncodeDouble(row.accuracy[s]);
      body += " auc=";
      body += EncodeDouble(row.auc[s]);
      body += '\n';
    }
  }
  return body;
}

}  // namespace mochy
