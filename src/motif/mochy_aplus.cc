#include "motif/mochy_aplus.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
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

/// Workers of a run: options.num_threads (0 = DefaultThreadCount()), at
/// most one per sample.
size_t SamplerThreads(const MochyAPlusOptions& options) {
  const size_t threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  return static_cast<size_t>(std::min<uint64_t>(threads, options.num_samples));
}

/// Samples drawn, sorted and counted at a time: bounds the draw and cost
/// buffers at 768 KB whatever r is.
constexpr uint64_t kSampleBlock = 65536;

/// Maps the uniform wedge index `k` to its wedge (e_i, within-suffix rank)
/// by binary search of the wedge prefix sums. The `within`-th neighbor of
/// e_i with id > e_i completes the pick once N(e_i) is in hand.
std::pair<EdgeId, uint64_t> LocateWedge(std::span<const uint64_t> prefix,
                                        uint64_t k) {
  const auto it = std::upper_bound(prefix.begin(), prefix.end(), k);
  const size_t e = static_cast<size_t>(it - prefix.begin()) - 1;
  return {static_cast<EdgeId>(e), k - prefix[e]};
}

/// A located wedge (e_i, within) as one word, e_i in the high half. Wedge
/// indices order wedges by (e_i, within), so packing a sorted block keeps
/// it sorted and equal draws adjacent.
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

/// Draws samples [first, first + |block|) into `block` — sample n's wedge
/// index from Rng(seed).Fork(n), so the draw does not depend on the thread
/// count — and sorts them, which groups them by e_i (wedges are indexed
/// by (i, j)) and puts equal wedges next to each other.
void DrawSortedBlock(uint64_t seed, uint64_t wedges, uint64_t first,
                     size_t num_threads, std::span<uint64_t> block) {
  const Rng base(seed);
  ParallelBlocks(block.size(), num_threads,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t s = begin; s < end; ++s) {
                     Rng rng = base.Fork(first + s);
                     block[s] = rng.UniformInt(wedges);
                   }
                 });
  std::sort(block.begin(), block.end());
}

/// The raw MoCHy-A+ census (slot 0 dropped), counted hub by hub. Each block
/// of samples is drawn sorted, located once per distinct wedge (and packed,
/// PackWedge) and split across workers in chunks of near-equal cost:
/// wedge_cost(e_i, within) ≈ |N_j| per distinct wedge, plus hub_cost(e_i)
/// = |N_i| for the first wedge of each e_i, saturated at 32 bits. A worker
/// fetches N(e_i) and prepares the WedgeCensus hub once per group in its
/// chunk, and adds each distinct wedge once, times its number of draws.
/// `source_of(worker)` is the worker's neighbor source (with Fetch), for
/// worker < num_threads (SamplerThreads). The census is a sum of
/// integers, so it is identical for any thread count and any split.
template <typename SourceOf, typename HubCost, typename WedgeCost>
MotifCounts CountSortedSamples(const Hypergraph& graph,
                               std::span<const uint64_t> wedge_prefix,
                               const MochyAPlusOptions& options,
                               size_t num_threads, SourceOf&& source_of,
                               HubCost&& hub_cost, WedgeCost&& wedge_cost) {
  const uint64_t wedges = wedge_prefix.back();
  const uint64_t num_samples = options.num_samples;
  const size_t block_size =
      static_cast<size_t>(std::min(num_samples, kSampleBlock));
  std::vector<uint64_t> block(block_size);
  std::vector<uint32_t> cost(block_size);
  std::vector<internal::PaddedCensus> partial(num_threads);
  const uint64_t max_edge_size = graph.max_edge_size();
  std::vector<internal::WedgeCensus> census(
      num_threads, internal::WedgeCensus(max_edge_size));
  // N(e_i) must survive the N(e_j) fetches: its own buffer per worker.
  std::vector<std::vector<Neighbor>> hub_buffer(num_threads);

  for (uint64_t first = 0; first < num_samples; first += block_size) {
    const std::span<uint64_t> samples(
        block.data(), static_cast<size_t>(std::min<uint64_t>(
                          block_size, num_samples - first)));
    DrawSortedBlock(options.seed, wedges, first, num_threads, samples);
    EdgeId hub = kInvalidEdge;
    uint64_t previous = 0;  // samples[s - 1] before packing
    for (size_t s = 0; s < samples.size(); ++s) {
      const uint64_t k = samples[s];
      if (s > 0 && k == previous) {
        samples[s] = samples[s - 1];
        cost[s] = 0;
        continue;
      }
      previous = k;
      const auto [ei, within] = LocateWedge(wedge_prefix, k);
      samples[s] = PackWedge(ei, within);
      cost[s] = static_cast<uint32_t>(std::min<uint64_t>(
          wedge_cost(ei, within) + (ei != hub ? hub_cost(ei) : 0),
          UINT32_MAX));
      hub = ei;
    }
    ParallelWorkChunks(
        std::span<const uint32_t>(cost).first(samples.size()), num_threads,
        [&](size_t worker, size_t begin, size_t end) {
          ScratchArena& arena = internal::ArenaFor(graph);
          auto& source = source_of(worker);
          internal::WedgeCensus& wedge_census = census[worker];
          EdgeId chunk_hub = kInvalidEdge;
          std::span<const Neighbor> upper;
          for (size_t s = begin; s < end;) {
            const uint64_t wedge = samples[s];
            size_t run_end = s + 1;
            while (run_end < end && samples[run_end] == wedge) ++run_end;
            const EdgeId ei = static_cast<EdgeId>(wedge >> 32);
            const uint64_t within = wedge & UINT32_MAX;
            if (ei != chunk_hub) {
              const auto nbrs_i = source.Fetch(ei, &hub_buffer[worker]);
              wedge_census.PrepareHub(source, ei, arena);
              upper = UpperSuffix(nbrs_i, ei);
              chunk_hub = ei;
            }
            const Neighbor& picked = upper[within];
            wedge_census.AddWedge(source, picked.edge, picked.weight,
                                  source.neighbors(picked.edge),
                                  static_cast<int64_t>(run_end - s), arena,
                                  partial[worker].n);
            s = run_end;
          }
        });
  }
  return internal::SumCensus(partial);
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
  const MotifCounts raw = CountSortedSamples(
      graph, projection.wedge_prefix(), options, SamplerThreads(options),
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
  if (Status s = CheckWedgeIndex(graph, degrees); !s.ok()) return s;
  const uint64_t wedges = degrees.num_wedges;
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  if (graph.num_edges() == 0 || wedges == 0 || options.num_samples == 0) {
    return MotifCounts();
  }
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  const size_t num_threads = SamplerThreads(options);
  // Indexed by worker.
  std::vector<LazyProjection::Stats> local_stats(num_threads);
  std::vector<internal::LazySource> sources;
  sources.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    sources.emplace_back(graph, size_of.data(), lazy, &local_stats[w]);
  }
  // N(e_j) is unknown until N(e_i) is fetched: a wedge is charged the
  // mean degree of a uniform wedge's endpoint, Σ|N_e|² / Σ|N_e|.
  uint64_t sum_degree = 0;
  uint64_t sum_degree_sq = 0;
  for (const uint64_t d : degrees.degree) {
    sum_degree += d;
    sum_degree_sq += d * d;
  }
  const uint64_t mean_wedge_degree = sum_degree_sq / sum_degree;
  const MotifCounts raw = CountSortedSamples(
      graph, degrees.wedge_prefix, options, num_threads,
      [&](size_t worker) -> internal::LazySource& { return sources[worker]; },
      [&](EdgeId ei) { return uint64_t{degrees.degree[ei]}; },
      [&](EdgeId, uint64_t) { return mean_wedge_degree; });
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return RescaleWedgeEstimates(raw, wedges, options.num_samples);
}

}  // namespace mochy
