#include "motif/mochy_a.h"

#include <vector>

#include "common/logging.h"
#include "motif/sorted_draws.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// Each instance is counted once per sampled member hyperedge, i.e.
/// 3s/|E| times in expectation: rescale raw counts to unbiased estimates.
MotifCounts Rescale(MotifCounts raw, uint64_t num_edges, uint64_t samples) {
  raw *= static_cast<double>(num_edges) / (3.0 * static_cast<double>(samples));
  return raw;
}

/// The raw MoCHy-A census (slot 0 dropped) on the sorted-draw front end
/// (CountSortedDraws) over the hyperedges: each run's edge e is priced
/// edge_cost(e) and counted once by ContainingCensus, times its draws.
/// `source_of(worker)` is the worker's neighbor source (with Fetch), for
/// worker < num_threads (SamplerThreads).
template <typename SourceOf, typename EdgeCost>
MotifCounts CountSortedEdges(const Hypergraph& graph,
                             const MochyAOptions& options, size_t num_threads,
                             SourceOf&& source_of, EdgeCost&& edge_cost) {
  const MotifClassifier classify;
  std::vector<internal::OpenPairBuckets> buckets(
      num_threads, internal::OpenPairBuckets(graph.max_edge_size()));
  // N(e) must survive the inner N(e_j) fetches: its own buffer per worker.
  std::vector<std::vector<Neighbor>> hub_buffer(num_threads);
  return internal::CountSortedDraws(
      graph, options.seed, graph.num_edges(), options.num_samples,
      num_threads,
      [&](const internal::DrawRuns& runs) {
        for (size_t r = 0; r < runs.size(); ++r) {
          runs.cost[r] =
              internal::RunCost(edge_cost(static_cast<EdgeId>(runs.draw[r])));
        }
      },
      [&](size_t worker, const internal::DrawRuns& chunk, ScratchArena& arena,
          internal::MotifCensus& out) {
        auto& source = source_of(worker);
        internal::MotifCensus one;
        for (size_t r = 0; r < chunk.size(); ++r) {
          const EdgeId e = static_cast<EdgeId>(chunk.draw[r]);
          one.fill(0);
          internal::ContainingCensus(source, classify, e,
                                     source.Fetch(e, &hub_buffer[worker]),
                                     buckets[worker], arena, one);
          const int64_t times = static_cast<int64_t>(chunk.times[r]);
          for (int id = 0; id <= kNumHMotifs; ++id) out[id] += times * one[id];
        }
      });
}

}  // namespace

MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  if (m == 0 || options.num_samples == 0) return {};
  const internal::ProjectionSource source(graph, projection);
  const MotifCounts raw = CountSortedEdges(
      graph, options,
      internal::SamplerThreads(options.num_threads, options.num_samples),
      [&](size_t) -> const internal::ProjectionSource& { return source; },
      // |N(e)| to bucket N(e), plus Σ_{j∈N(e)} |N(e_j)| to scan.
      [&](EdgeId e) {
        uint64_t cost = projection.degree(e);
        for (const Neighbor& n : projection.neighbors(e)) {
          cost += projection.degree(n.edge);
        }
        return cost;
      });
  return Rescale(raw, m, options.num_samples);
}

Result<MotifCounts> CountMotifsEdgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAOptions& options,
    LazyProjection::Stats* stats_out) {
  if (Status s = internal::CheckWedgeIndex(graph, degrees); !s.ok()) {
    return s;
  }
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  const size_t m = graph.num_edges();
  if (m == 0 || options.num_samples == 0) return MotifCounts();
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  const size_t num_threads =
      internal::SamplerThreads(options.num_threads, options.num_samples);
  // Indexed by worker.
  std::vector<LazyProjection::Stats> local_stats(num_threads);
  std::vector<internal::LazySource> sources;
  sources.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    sources.emplace_back(graph, size_of.data(), lazy, &local_stats[w]);
  }
  // N(e_j) is unknown until N(e) is fetched: each of the |N(e)| is charged
  // the mean degree of a uniform wedge's endpoint.
  const uint64_t mean_wedge_degree = internal::MeanWedgeDegree(degrees.degree);
  const MotifCounts raw = CountSortedEdges(
      graph, options, num_threads,
      [&](size_t worker) -> internal::LazySource& { return sources[worker]; },
      [&](EdgeId e) { return degrees.degree[e] * mean_wedge_degree; });
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return Rescale(raw, m, options.num_samples);
}

}  // namespace mochy
