#include "motif/mochy_a.h"

#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// Each instance is counted once per sampled member hyperedge, i.e.
/// 3s/|E| times in expectation: rescale raw counts to unbiased estimates.
MotifCounts Rescale(MotifCounts raw, uint64_t num_edges, uint64_t samples) {
  raw *= static_cast<double>(num_edges) / (3.0 * static_cast<double>(samples));
  return raw;
}

}  // namespace

MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  if (m == 0 || options.num_samples == 0) return {};
  const internal::ProjectionSource source(graph, projection);
  const MotifClassifier classify;
  const uint64_t max_edge_size = internal::MaxEdgeSize(source.size_of);
  const MotifCounts raw = internal::SampleInstances(
      graph, m, options.num_samples, options.seed, options.num_threads,
      [&](size_t) {
        return [&, buckets = internal::OpenPairBuckets(max_edge_size)](
                   uint64_t e, ScratchArena& arena,
                   internal::MotifCensus& census) mutable {
          const EdgeId ei = static_cast<EdgeId>(e);
          internal::ContainingCensus(source, classify, ei,
                                     projection.neighbors(ei), buckets, arena,
                                     census);
        };
      });
  return Rescale(raw, m, options.num_samples);
}

Result<MotifCounts> CountMotifsEdgeSampleLazy(
    const Hypergraph& graph, ConcurrentLazyProjection& lazy,
    const MochyAOptions& options, LazyProjection::Stats* stats_out) {
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  const size_t m = graph.num_edges();
  if (m == 0 || options.num_samples == 0) return MotifCounts();
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  const MotifClassifier classify;
  const uint64_t max_edge_size = internal::MaxEdgeSize(size_of);
  // Indexed by worker; at most one worker per sample.
  std::vector<LazyProjection::Stats> local_stats(
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads);
  const MotifCounts raw = internal::SampleInstances(
      graph, m, options.num_samples, options.seed, options.num_threads,
      [&](size_t worker) {
        // N(e_i) must survive the inner N(e_j) fetches: its own buffer.
        return [&, source = internal::LazySource(graph, size_of.data(), lazy,
                                              &local_stats[worker]),
                buffer = std::vector<Neighbor>(),
                buckets = internal::OpenPairBuckets(max_edge_size)](
                   uint64_t e, ScratchArena& arena,
                   internal::MotifCensus& census) mutable {
          const EdgeId ei = static_cast<EdgeId>(e);
          internal::ContainingCensus(source, classify, ei,
                                     source.Fetch(ei, &buffer), buckets, arena,
                                     census);
        };
      });
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return Rescale(raw, m, options.num_samples);
}

}  // namespace mochy
