#include "motif/mochy_aplus.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// Applies the Theorem-4 rescaling: raw counts -> unbiased estimates.
MotifCounts RescaleWedgeEstimates(MotifCounts counts, uint64_t num_wedges,
                                  uint64_t num_samples) {
  const double wedges = static_cast<double>(num_wedges);
  const double r = static_cast<double>(num_samples);
  for (int id = 1; id <= kNumHMotifs; ++id) {
    const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
    counts[id] *= wedges / (wedges_per_instance * r);
  }
  return counts;
}

/// Maps the uniform wedge index `k` to its wedge (e_i within-suffix rank):
/// binary search of the wedge prefix sums. The `within`-th neighbor of
/// e_i with id > e_i — a suffix of the sorted neighborhood, identical to
/// ProjectedGraph::WedgeAt on the materialized structure — completes the
/// pick once the neighborhood is in hand.
std::pair<EdgeId, uint64_t> PickWedgeSource(const ProjectedDegrees& degrees,
                                            uint64_t k) {
  const auto it = std::upper_bound(degrees.wedge_prefix.begin(),
                                   degrees.wedge_prefix.end(), k);
  const size_t e = static_cast<size_t>(it - degrees.wedge_prefix.begin()) - 1;
  return {static_cast<EdgeId>(e), k - degrees.wedge_prefix[e]};
}

/// The `within`-th neighbor of `ei` with id > ei in the sorted
/// neighborhood `nbrs`.
const Neighbor& PickWedgeTarget(std::span<const Neighbor> nbrs, EdgeId ei,
                                uint64_t within) {
  const auto suffix = std::upper_bound(
      nbrs.begin(), nbrs.end(), ei,
      [](EdgeId lhs, const Neighbor& rhs) { return lhs < rhs.edge; });
  return *(suffix + static_cast<int64_t>(within));
}

Status CheckWedgeIndex(const Hypergraph& graph,
                       const ProjectedDegrees& degrees) {
  if (degrees.wedge_prefix.size() != graph.num_edges() + 1) {
    return Status::InvalidArgument(
        "wedge index does not match the hypergraph (prefix for " +
        std::to_string(degrees.wedge_prefix.size()) + " entries, graph has " +
        std::to_string(graph.num_edges()) + " edges)");
  }
  return Status::OK();
}

}  // namespace

MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const uint64_t wedges = projection.num_wedges();
  if (graph.num_edges() == 0 || wedges == 0 || options.num_samples == 0) {
    return {};
  }
  const internal::ProjectionSource source(graph, projection);
  const MotifClassifier classify;
  const MotifCounts raw = internal::SampleInstances(
      graph, wedges, options.num_samples, options.seed, options.num_threads,
      [&](size_t) {
        return [&](uint64_t k, ScratchArena& arena,
                   internal::MotifCensus& census) {
          const auto [ei, ej] = projection.WedgeAt(k);
          const uint64_t w_ij = projection.Weight(ei, ej);
          MOCHY_DCHECK(w_ij > 0);
          internal::WedgeCensus(source, classify, ei, ej, w_ij,
                                projection.neighbors(ei),
                                projection.neighbors(ej), arena, census);
        };
      });
  return RescaleWedgeEstimates(raw, wedges, options.num_samples);
}

Result<MotifCounts> CountMotifsWedgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAPlusOptions& options,
    LazyProjection::Stats* stats_out) {
  if (Status s = CheckWedgeIndex(graph, degrees); !s.ok()) return s;
  const uint64_t wedges = degrees.num_wedges;
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  if (graph.num_edges() == 0 || wedges == 0 || options.num_samples == 0) {
    return MotifCounts();
  }
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  const MotifClassifier classify;
  // Indexed by worker; at most one worker per sample.
  std::vector<LazyProjection::Stats> local_stats(
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads);
  const MotifCounts raw = internal::SampleInstances(
      graph, wedges, options.num_samples, options.seed, options.num_threads,
      [&](size_t worker) {
        // N(e_i) must survive the N(e_j) fetch: its own buffer.
        return [&, source = internal::LazySource(graph, size_of.data(), lazy,
                                              &local_stats[worker]),
                buffer = std::vector<Neighbor>()](
                   uint64_t k, ScratchArena& arena,
                   internal::MotifCensus& census) mutable {
          const auto [ei, within] = PickWedgeSource(degrees, k);
          const std::span<const Neighbor> nbrs_i = source.Fetch(ei, &buffer);
          const Neighbor picked = PickWedgeTarget(nbrs_i, ei, within);
          internal::WedgeCensus(source, classify, ei, picked.edge,
                                picked.weight, nbrs_i,
                                source.neighbors(picked.edge), arena, census);
        };
      });
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return RescaleWedgeEstimates(raw, wedges, options.num_samples);
}

}  // namespace mochy
