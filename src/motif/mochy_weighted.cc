#include "motif/mochy_weighted.h"

#include <algorithm>
#include <vector>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/rng.h"
#include "hypergraph/projection.h"
#include "motif/stamp_kernels.h"

namespace mochy {

Result<MochyWeightedResult> CountMotifsWeightedWedge(
    const Hypergraph& graph, const MochyWeightedOptions& options) {
  const size_t n = graph.num_nodes();
  if (options.num_samples == 0) {
    return Status::InvalidArgument("need at least one sample");
  }
  // Node weights C(d_v, 2): each unordered incident-edge pair at v is one
  // unit of wedge weight; summing over v counts every wedge omega times.
  std::vector<double> node_weight(n, 0.0);
  uint64_t total_weight = 0;
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t d = graph.degree(v);
    const uint64_t pairs = d * (d - 1) / 2;
    node_weight[v] = static_cast<double>(pairs);
    total_weight += pairs;
  }
  if (total_weight == 0) {
    return Status::FailedPrecondition(
        "hypergraph has no hyperwedges (no node with degree >= 2)");
  }
  MOCHY_ASSIGN_OR_RETURN(AliasTable table, AliasTable::Build(node_weight));

  MochyWeightedResult result;
  result.total_weight = total_weight;
  result.estimated_num_wedges = 0.0;

  Rng rng(options.seed);
  ScratchArena& arena = internal::ArenaFor(graph);
  NeighborhoodBuilder builder(graph.num_edges());
  std::vector<Neighbor> nbrs_i, nbrs_j;
  const double w_total = static_cast<double>(total_weight);
  const double r = static_cast<double>(options.num_samples);

  for (uint64_t sample = 0; sample < options.num_samples; ++sample) {
    // Draw the wedge proportional to omega.
    const NodeId v = static_cast<NodeId>(table.Sample(rng));
    const auto incident = graph.edges_of(v);
    const auto pick = rng.SampleDistinct(incident.size(), 2);
    EdgeId ei = incident[pick[0]];
    EdgeId ej = incident[pick[1]];
    if (ei > ej) std::swap(ei, ej);

    builder.ComputeUnsorted(graph, ei, &nbrs_i);
    builder.ComputeUnsorted(graph, ej, &nbrs_j);
    const uint64_t w_ij = graph.IntersectionSize(ei, ej);
    MOCHY_DCHECK(w_ij > 0);
    result.estimated_num_wedges += w_total / (static_cast<double>(w_ij) * r);

    // Horvitz-Thompson weight of each instance around this wedge. Every
    // instance of motif t adds the same constant, once per instance, so
    // the order the core visits them in cannot change a bit of the sum.
    const double inclusion = static_cast<double>(w_ij) / w_total;
    internal::ForEachWedgeTriple(
        graph, ei, ej, w_ij, nbrs_i, nbrs_j, arena,
        [&](EdgeId, EdgeId, int id) {
          if (id == 0) return;
          const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
          result.counts[id] += 1.0 / (inclusion * wedges_per_instance * r);
        });
  }
  return result;
}

}  // namespace mochy
