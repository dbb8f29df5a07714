#include "hypergraph/projection.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace mochy {

NeighborhoodBuilder::NeighborhoodBuilder(size_t num_edges)
    : count_(num_edges, 0) {
  touched_.reserve(256);
}

void NeighborhoodBuilder::Compute(const Hypergraph& graph, EdgeId e,
                                  std::vector<Neighbor>* out) {
  Sweep(graph, e);
  std::sort(touched_.begin(), touched_.end());
  Emit(out);
}

void NeighborhoodBuilder::ComputeUnsorted(const Hypergraph& graph, EdgeId e,
                                          std::vector<Neighbor>* out) {
  Sweep(graph, e);
  Emit(out);
}

void NeighborhoodBuilder::Sweep(const Hypergraph& graph, EdgeId e) {
  for (NodeId v : graph.edge(e)) {
    for (EdgeId other : graph.edges_of(v)) {
      if (other == e) continue;
      if (count_[other] == 0) touched_.push_back(other);
      ++count_[other];
    }
  }
}

void NeighborhoodBuilder::Emit(std::vector<Neighbor>* out) {
  out->clear();
  out->reserve(touched_.size());
  for (EdgeId other : touched_) {
    out->push_back(Neighbor{other, count_[other]});
    count_[other] = 0;
  }
  touched_.clear();
}

uint64_t NeighborhoodBuilder::SweepCost(const Hypergraph& graph, EdgeId e) {
  uint64_t cost = 0;
  for (NodeId v : graph.edge(e)) cost += graph.edges_of(v).size();
  return cost;
}

Result<ProjectedGraph> ProjectedGraph::Build(const Hypergraph& graph,
                                             size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const size_t m = graph.num_edges();
  ProjectedGraph out;
  out.offsets_.assign(m + 1, 0);
  out.suffix_start_.assign(m, 0);
  out.wedge_offsets_.assign(m + 1, 0);

  // Per-edge neighbor lists, computed in parallel blocks.
  std::vector<std::vector<Neighbor>> lists(m);
  ParallelBlocks(m, num_threads,
                 [&](size_t /*thread*/, size_t begin, size_t end) {
                   NeighborhoodBuilder builder(m);
                   for (size_t e = begin; e < end; ++e) {
                     builder.Compute(graph, static_cast<EdgeId>(e),
                                     &lists[e]);
                   }
                 });

  // Flatten into CSR and compute wedge bookkeeping.
  uint64_t total_adj = 0;
  for (size_t e = 0; e < m; ++e) total_adj += lists[e].size();
  out.adj_.reserve(total_adj);
  uint64_t wedges = 0;
  uint64_t total_weight = 0;
  for (size_t e = 0; e < m; ++e) {
    const auto& list = lists[e];
    // First neighbor with id > e: neighbors are sorted, so a suffix.
    size_t suffix = list.size();
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].edge > e) {
        suffix = i;
        break;
      }
    }
    out.suffix_start_[e] = static_cast<uint32_t>(suffix);
    const uint64_t wedges_here = list.size() - suffix;
    out.wedge_offsets_[e + 1] = out.wedge_offsets_[e] + wedges_here;
    wedges += wedges_here;
    out.adj_.insert(out.adj_.end(), list.begin(), list.end());
    out.offsets_[e + 1] = out.adj_.size();
    for (size_t i = suffix; i < list.size(); ++i) {
      total_weight += list[i].weight;
    }
    lists[e].clear();
    lists[e].shrink_to_fit();
  }
  out.num_wedges_ = wedges;
  out.total_weight_ = total_weight;

  // O(1) pair-weight probes for the MoCHy-E inner loop.
  out.weight_map_ = FlatMap64<uint32_t>(wedges);
  for (size_t e = 0; e < m; ++e) {
    const auto span = out.neighbors(static_cast<EdgeId>(e));
    for (size_t i = out.suffix_start_[e]; i < span.size(); ++i) {
      out.weight_map_.Put(PackPair(static_cast<EdgeId>(e), span[i].edge),
                          span[i].weight);
    }
  }
  return out;
}

uint64_t ProjectedGraph::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         adj_.size() * sizeof(Neighbor) +
         wedge_offsets_.size() * sizeof(uint64_t) +
         suffix_start_.size() * sizeof(uint32_t) + weight_map_.MemoryBytes();
}

std::pair<EdgeId, EdgeId> ProjectedGraph::WedgeAt(uint64_t k) const {
  MOCHY_DCHECK(k < num_wedges_);
  // Find the source edge via binary search over the wedge prefix sums.
  const auto it = std::upper_bound(wedge_offsets_.begin(),
                                   wedge_offsets_.end(), k);
  const size_t e = static_cast<size_t>(it - wedge_offsets_.begin()) - 1;
  const EdgeId ei = static_cast<EdgeId>(e);
  return {ei, upper_neighbors(ei)[k - wedge_offsets_[e]].edge};
}

ProjectedDegrees ComputeProjectedDegrees(const Hypergraph& graph,
                                         size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const size_t m = graph.num_edges();
  ProjectedDegrees result;
  result.degree.assign(m, 0);
  std::vector<uint64_t> wedges_here(m, 0);
  ParallelBlocks(
      m, num_threads, [&](size_t /*thread*/, size_t begin, size_t end) {
        std::vector<uint32_t> stamp(m, 0);
        std::vector<EdgeId> touched;
        for (size_t e = begin; e < end; ++e) {
          for (NodeId v : graph.edge(static_cast<EdgeId>(e))) {
            for (EdgeId other : graph.edges_of(v)) {
              if (other == e || stamp[other] != 0) continue;
              stamp[other] = 1;
              touched.push_back(other);
            }
          }
          result.degree[e] = static_cast<uint32_t>(touched.size());
          for (EdgeId other : touched) {
            if (other > e) ++wedges_here[e];
            stamp[other] = 0;
          }
          touched.clear();
        }
      });
  result.wedge_prefix.assign(m + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    result.wedge_prefix[e + 1] = result.wedge_prefix[e] + wedges_here[e];
  }
  result.num_wedges = result.wedge_prefix[m];
  return result;
}

uint64_t ProjectedDegrees::MemoryBytes() const {
  return degree.size() * sizeof(uint32_t) +
         wedge_prefix.size() * sizeof(uint64_t);
}

uint64_t EstimateProjectionBytes(const ProjectedDegrees& degrees) {
  const size_t m = degrees.degree.size();
  uint64_t adjacency = 0;
  for (uint32_t d : degrees.degree) adjacency += d;
  // Mirror FlatMap64's sizing: capacity is the first power of two keeping
  // the load factor <= 7/8 for |∧| entries, doubled by the constructor.
  uint64_t cap = 16;
  while (cap * 7 < degrees.num_wedges * 8) cap <<= 1;
  const uint64_t map_bytes = cap * 2 * (sizeof(uint64_t) + sizeof(uint32_t));
  return (m + 1) * sizeof(uint64_t) * 2 +  // offsets_ + wedge_offsets_
         m * sizeof(uint32_t) +            // suffix_start_
         adjacency * sizeof(Neighbor) + map_bytes;
}

}  // namespace mochy
