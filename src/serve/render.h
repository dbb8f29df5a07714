/// \file
/// Renderers of the two multi-line query bodies: per-edge rows and the
/// Table-4 prediction report.
///
/// The query table (serve/query.h) computes the per-edge and predict
/// bodies through these functions, for the server and the offline CLI
/// alike, so the two print the same bytes by construction.
///
/// All numeric payloads are C99 hex-float literals (serve/protocol.h),
/// so a diff of an offline body against a served (cold or cached) body
/// is empty exactly when the underlying doubles are bit-identical.
#ifndef MOCHY_SERVE_RENDER_H_
#define MOCHY_SERVE_RENDER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "ml/features.h"
#include "motif/engine.h"

namespace mochy {

/// Renders a per-edge result (motif/engine.h CountPerEdge) as
///   rows <num_edges>
///   row <edge_id> <26 hex-float counts>
///   ...
/// one `row` line per hyperedge in id order. Rows are exact integer
/// counts and thread-count-invariant, so the body depends only on the
/// graph content.
std::string RenderPerEdgeBody(const PerEdgeCounts& rows);

/// Runs the full Table-4 pipeline — fabricate one fake per candidate,
/// extract HM26/HM7/HC features over history+candidates+fakes, train
/// the five reference classifiers on each feature set — and renders
///   task history=<H> real=<R> fake=<R>
///   hm7 <7 motif ids>
///   model <name> <set> acc=<hex> auc=<hex>   (5 names x 3 sets)
/// Candidates are `candidates`' hyperedges with at least two members
/// (smaller edges cannot be perturbed into fakes and are skipped).
/// The train/test split (30% held out, split seed 17) is fixed, so the
/// body is deterministic in (history, candidates, options): repeated
/// calls are byte-identical. options.num_threads never changes it
/// (feature rows are bit-identical at every thread count and the
/// classifiers are seed-deterministic), so cache keys omit it.
Result<std::string> RenderPredictBody(const Hypergraph& history,
                                      const Hypergraph& candidates,
                                      const PredictionTaskOptions& options = {});

}  // namespace mochy

#endif  // MOCHY_SERVE_RENDER_H_
