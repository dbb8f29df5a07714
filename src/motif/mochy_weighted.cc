#include "motif/mochy_weighted.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "hypergraph/projection.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// One drawn wedge, then its ω and its instances by class.
struct WedgeSample {
  EdgeId ei = 0;
  EdgeId ej = 0;
  uint64_t w_ij = 0;
  internal::MotifCensus census;
};

/// A worker's neighborhood scratch and census primitive.
struct WedgeWorker {
  explicit WedgeWorker(const Hypergraph& graph)
      : builder(graph.num_edges()), census(graph.max_edge_size()) {}
  NeighborhoodBuilder builder;
  std::vector<Neighbor> nbrs_j;
  internal::WedgeCensus census;
};

}  // namespace

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
  // At most one worker per pool thread (each holds an |E| counter) and
  // one per sample.
  const size_t block_size = static_cast<size_t>(
      std::min<uint64_t>(options.num_samples, kWeightedSampleBlock));
  result.num_threads = std::min(
      {options.num_threads == 0 ? DefaultThreadCount() : options.num_threads,
       DefaultThreadCount(), block_size});

  Rng rng(options.seed);
  std::vector<WedgeWorker> workers;
  workers.reserve(result.num_threads);
  for (size_t w = 0; w < result.num_threads; ++w) {
    workers.emplace_back(graph);
  }
  std::vector<WedgeSample> block(block_size);
  const std::vector<uint64_t> unit_cost(block_size, 1);
  const double w_total = static_cast<double>(total_weight);
  const double r = static_cast<double>(options.num_samples);

  for (uint64_t first = 0; first < options.num_samples; first += block_size) {
    const size_t count = static_cast<size_t>(
        std::min<uint64_t>(block_size, options.num_samples - first));
    // Draw the block's wedges proportional to omega, from the one
    // sequential stream: the samples do not depend on the thread count.
    for (size_t s = 0; s < count; ++s) {
      const NodeId v = static_cast<NodeId>(table.Sample(rng));
      const auto incident = graph.edges_of(v);
      const auto pick = rng.SampleDistinct(incident.size(), 2);
      EdgeId ei = incident[pick[0]];
      EdgeId ej = incident[pick[1]];
      if (ei > ej) std::swap(ei, ej);
      block[s].ei = ei;
      block[s].ej = ej;
    }

    // Each sample's ω and census on the pool.
    ParallelWorkChunks(
        std::span<const uint64_t>(unit_cost).first(count), result.num_threads,
        [&](size_t worker, size_t begin, size_t end) {
          ScratchArena& arena = internal::ArenaFor(graph);
          WedgeWorker& scratch = workers[worker];
          const PositionMasks& masks = arena.hub_masks;
          for (size_t s = begin; s < end; ++s) {
            WedgeSample& sample = block[s];
            // A group of one: hub e_i, whose masks give ω_ij, then its
            // single wedge.
            scratch.census.PrepareHub(graph, sample.ei, arena);
            sample.w_ij = masks.count(masks.slot(sample.ej));
            MOCHY_DCHECK(sample.w_ij > 0);
            scratch.builder.ComputeUnsorted(graph, sample.ej, &scratch.nbrs_j);
            sample.census.fill(0);
            scratch.census.AddWedge(graph, sample.ej, sample.w_ij,
                                    scratch.nbrs_j, 1, arena, sample.census);
          }
        });

    // Replay the Horvitz-Thompson sums in sample order: each instance of
    // motif t around sample s adds W / (ω_s · w[t] · r), one addition per
    // instance, exactly as a sequential per-instance loop would. Each
    // motif's sum is its own accumulator, so motifs replay in parallel.
    for (size_t s = 0; s < count; ++s) {
      result.estimated_num_wedges +=
          w_total / (static_cast<double>(block[s].w_ij) * r);
    }
    ParallelFor(kNumHMotifs, result.num_threads, [&](size_t slot) {
      const int id = static_cast<int>(slot) + 1;
      const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
      double sum = result.counts[id];
      for (size_t s = 0; s < count; ++s) {
        const int64_t instances = block[s].census[id];
        if (instances == 0) continue;
        const double inclusion = static_cast<double>(block[s].w_ij) / w_total;
        const double add = 1.0 / (inclusion * wedges_per_instance * r);
        for (int64_t i = 0; i < instances; ++i) sum += add;
      }
      result.counts[id] = sum;
    }, /*chunk=*/1);
  }
  return result;
}

}  // namespace mochy
