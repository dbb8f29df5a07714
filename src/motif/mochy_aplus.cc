#include "motif/mochy_aplus.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "motif/sorted_draws.h"
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

/// A located wedge (e_i, within-suffix rank) as one word, e_i in the high
/// half. Wedge indices order wedges by (e_i, within), so packing sorted
/// draws keeps them sorted.
uint64_t PackWedge(EdgeId ei, uint64_t within) {
  return (uint64_t{ei} << 32) | within;
}

/// The neighbors of `ei` with id > ei: a suffix of the sorted `nbrs`.
std::span<const Neighbor> UpperSuffix(std::span<const Neighbor> nbrs,
                                      EdgeId ei) {
  const auto it = std::upper_bound(
      nbrs.begin(), nbrs.end(), ei,
      [](EdgeId lhs, const Neighbor& rhs) { return lhs < rhs.edge; });
  return nbrs.subspan(static_cast<size_t>(it - nbrs.begin()));
}

/// The raw MoCHy-A+ census (slot 0 dropped), counted hub by hub on the
/// sorted-draw front end (CountSortedDraws) over the wedge indices. Each
/// run's wedge index is located by galloping from the previous run's hub
/// (GallopHub) and packed (PackWedge); its cost is wedge_cost(e_i, within)
/// ≈ |N_j|, plus hub_cost(e_i) = |N_i| for the first run of each e_i. A
/// worker fetches N(e_i) and prepares the WedgeCensus hub once per hub in
/// its chunk, and adds each run's wedge once, times its draws.
/// `source_of(worker)` is the worker's neighbor source (with Fetch), for
/// worker < num_threads (SamplerThreads).
template <typename SourceOf, typename HubCost, typename WedgeCost>
MotifCounts CountSortedWedges(const Hypergraph& graph,
                              std::span<const uint64_t> wedge_prefix,
                              const MochyAPlusOptions& options,
                              size_t num_threads, SourceOf&& source_of,
                              HubCost&& hub_cost, WedgeCost&& wedge_cost) {
  std::vector<internal::WedgeCensus> census(
      num_threads, internal::WedgeCensus(graph.max_edge_size()));
  // N(e_i) must survive the N(e_j) fetches: its own buffer per worker.
  std::vector<std::vector<Neighbor>> hub_buffer(num_threads);
  return internal::CountSortedDraws(
      graph, options.seed, wedge_prefix.back(), options.num_samples,
      num_threads,
      [&](const internal::DrawRuns& runs) {
        size_t hub = 0;
        EdgeId previous = kInvalidEdge;
        for (size_t r = 0; r < runs.size(); ++r) {
          hub = internal::GallopHub(wedge_prefix, hub, runs.draw[r]);
          const EdgeId ei = static_cast<EdgeId>(hub);
          const uint64_t within = runs.draw[r] - wedge_prefix[hub];
          runs.draw[r] = PackWedge(ei, within);
          runs.cost[r] = internal::RunCost(
              wedge_cost(ei, within) + (ei != previous ? hub_cost(ei) : 0));
          previous = ei;
        }
      },
      [&](size_t worker, const internal::DrawRuns& chunk, ScratchArena& arena,
          internal::MotifCensus& out) {
        auto& source = source_of(worker);
        internal::WedgeCensus& wedge_census = census[worker];
        EdgeId chunk_hub = kInvalidEdge;
        std::span<const Neighbor> upper;
        for (size_t r = 0; r < chunk.size(); ++r) {
          const EdgeId ei = static_cast<EdgeId>(chunk.draw[r] >> 32);
          const uint64_t within = chunk.draw[r] & UINT32_MAX;
          if (ei != chunk_hub) {
            const auto nbrs_i = source.Fetch(ei, &hub_buffer[worker]);
            wedge_census.PrepareHub(source, ei, arena);
            upper = UpperSuffix(nbrs_i, ei);
            chunk_hub = ei;
          }
          const Neighbor& picked = upper[within];
          wedge_census.AddWedge(source, picked.edge, picked.weight,
                                source.neighbors(picked.edge),
                                static_cast<int64_t>(chunk.times[r]), arena,
                                out);
        }
      });
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
  const MotifCounts raw = CountSortedWedges(
      graph, projection.wedge_prefix(), options,
      internal::SamplerThreads(options.num_threads, options.num_samples),
      [&](size_t) -> const internal::ProjectionSource& { return source; },
      [&](EdgeId ei) { return projection.degree(ei); },
      [&](EdgeId ei, uint64_t within) {
        return projection.degree(projection.upper_neighbors(ei)[within].edge);
      });
  return RescaleWedgeEstimates(raw, wedges, options.num_samples);
}

Result<MotifCounts> CountMotifsWedgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAPlusOptions& options,
    LazyProjection::Stats* stats_out) {
  if (Status s = internal::CheckWedgeIndex(graph, degrees); !s.ok()) {
    return s;
  }
  const uint64_t wedges = degrees.num_wedges;
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  if (graph.num_edges() == 0 || wedges == 0 || options.num_samples == 0) {
    return MotifCounts();
  }
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
  // N(e_j) is unknown until N(e_i) is fetched: a wedge is charged the
  // mean degree of a uniform wedge's endpoint.
  const uint64_t mean_wedge_degree = internal::MeanWedgeDegree(degrees.degree);
  const MotifCounts raw = CountSortedWedges(
      graph, degrees.wedge_prefix, options, num_threads,
      [&](size_t worker) -> internal::LazySource& { return sources[worker]; },
      [&](EdgeId ei) { return uint64_t{degrees.degree[ei]}; },
      [&](EdgeId, uint64_t) { return mean_wedge_degree; });
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return RescaleWedgeEstimates(raw, wedges, options.num_samples);
}

}  // namespace mochy
