/// \file
/// Projected graph of a hypergraph (paper Section 2.1, Algorithm 1).
///
/// Hyperedges become vertices; two are adjacent iff they share a node,
/// with weight omega = |e_i ∩ e_j|. Every MoCHy variant runs on this
/// structure. It is CSR only: both adjacency directions are materialized
/// (neighbor lists per edge, sorted by neighbor id), and hyperwedges
/// {i, j} are indexable for uniform sampling (MoCHy-A+). There is no
/// pair-weight table: the counting kernels read ω from the neighbor lists
/// they already walk (scattered into stamp arrays, see
/// motif/stamp_kernels.h), and Weight(a, b) is a binary search for cold
/// callers.
///
/// Materializing all of this costs O(|E| + Σ_e |N_e|) memory
/// (MemoryBytes() reports it exactly, EstimateProjectionBytes() predicts
/// it from the wedge index alone); when that is too much for the machine,
/// the sampling algorithms can instead run on the budgeted lazy variant
/// in hypergraph/lazy_projection.h — see docs/MEMORY.md for the policy
/// contract.
#ifndef MOCHY_HYPERGRAPH_PROJECTION_H_
#define MOCHY_HYPERGRAPH_PROJECTION_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"

namespace mochy {

/// One adjacency in the projected graph.
struct Neighbor {
  EdgeId edge;      ///< the adjacent hyperedge id
  uint32_t weight;  ///< omega = size of the pairwise intersection
};

/// Reusable scratch for computing one hyperedge's exact weighted
/// neighborhood: a dense counter over edge ids plus the touched list, so
/// clearing costs O(#neighbors), not O(|E|). This is the per-edge step of
/// ProjectedGraph::Build, and the same sweep the lazy/memoized variant
/// (hypergraph/lazy_projection.h) runs on demand. Not thread-safe; give
/// each worker its own builder.
class NeighborhoodBuilder {
 public:
  /// Sizes the counter for `num_edges` hyperedges.
  explicit NeighborhoodBuilder(size_t num_edges);

  /// Computes N(e) with weights into `out`, sorted by edge id.
  void Compute(const Hypergraph& graph, EdgeId e, std::vector<Neighbor>* out);

  /// Compute() without the sort: N(e) in sweep order, for callers that
  /// only iterate it.
  void ComputeUnsorted(const Hypergraph& graph, EdgeId e,
                       std::vector<Neighbor>* out);

  /// Cost of Compute(graph, e): Σ_{v∈e} d(v) incidence entries swept.
  static uint64_t SweepCost(const Hypergraph& graph, EdgeId e);

 private:
  /// Counts e's neighbors into count_, listing them in touched_.
  void Sweep(const Hypergraph& graph, EdgeId e);
  /// Moves touched_ (with counts) into `out` and clears the scratch.
  void Emit(std::vector<Neighbor>* out);

  std::vector<uint32_t> count_;
  std::vector<EdgeId> touched_;
};

/// The materialized projected graph: CSR adjacency over hyperedges and the
/// hyperwedge index. Immutable once built; safe to share across threads.
class ProjectedGraph {
 public:
  /// An empty projection (no edges); assign a Build() result into it.
  ProjectedGraph() = default;

  /// Builds the projection of `graph` using `num_threads` workers
  /// (0 = DefaultThreadCount()).
  static Result<ProjectedGraph> Build(const Hypergraph& graph,
                                      size_t num_threads = 1);

  /// Number of vertices (= hyperedges of the source hypergraph).
  size_t num_edges() const { return offsets_.size() - 1; }

  /// N_{e}: adjacent hyperedges of `e` with weights, sorted by edge id.
  std::span<const Neighbor> neighbors(EdgeId e) const {
    return {adj_.data() + offsets_[e], adj_.data() + offsets_[e + 1]};
  }

  /// N⁺(e): the neighbors of `e` with id > e, the suffix of neighbors(e)
  /// that lists each hyperwedge once, from its smaller end.
  std::span<const Neighbor> upper_neighbors(EdgeId e) const {
    return neighbors(e).subspan(suffix_start_[e]);
  }

  /// |N_e| — degree of `e` in the projected graph.
  size_t degree(EdgeId e) const { return offsets_[e + 1] - offsets_[e]; }

  /// |∧| — total number of hyperwedges (unordered adjacent pairs).
  uint64_t num_wedges() const { return num_wedges_; }

  /// omega({a, b}); 0 when the edges are not adjacent or a == b. A binary
  /// search of neighbors(a), O(log |N_a|): for tests and cold callers, not
  /// for hot loops, which stamp a neighborhood instead.
  uint32_t Weight(EdgeId a, EdgeId b) const;

  /// The k-th hyperwedge, k in [0, num_wedges()), as e_i and the entry of
  /// e_j (with ω_ij) in N(e_i), i < j. Wedges are ordered by (i, then j);
  /// used for uniform wedge sampling.
  std::pair<EdgeId, Neighbor> WedgeAt(uint64_t k) const;
  /// Wedge prefix sums: wedges [wedge_prefix()[e], wedge_prefix()[e + 1])
  /// have e_i = e. Equal to ProjectedDegrees::wedge_prefix.
  std::span<const uint64_t> wedge_prefix() const { return wedge_offsets_; }

  /// Sum over all wedges of omega (useful for Lemma 1 cost accounting and
  /// for the weighted wedge sampler).
  uint64_t total_weight() const { return total_weight_; }

  /// Heap footprint in bytes of the materialized structure (CSR adjacency,
  /// offsets, wedge index). This is the number the engine's memory-bounded
  /// projection policy compares against its byte budget; see
  /// docs/MEMORY.md for the accounting model.
  uint64_t MemoryBytes() const;

 private:
  std::vector<uint64_t> offsets_ = {0};       // CSR offsets into adj_
  std::vector<Neighbor> adj_;                 // both directions
  std::vector<uint64_t> wedge_offsets_ = {0};  // prefix of #wedges (j > i)
  std::vector<uint32_t> suffix_start_;        // index in neighbors(e) of first j > e
  uint64_t num_wedges_ = 0;
  uint64_t total_weight_ = 0;
};

/// Computes only the projected-graph degree |N_e| of every hyperedge plus
/// |∧|, without materializing adjacency. Memory O(|E|); used for Table 2
/// statistics and by the on-the-fly variants. num_threads 0 means
/// DefaultThreadCount().
struct ProjectedDegrees {
  std::vector<uint32_t> degree;  ///< |N_e| per hyperedge
  uint64_t num_wedges = 0;       ///< |∧|
  /// wedge_prefix[e+1] - wedge_prefix[e] = #neighbors of e with id > e;
  /// prefix sums index the wedge set for uniform sampling without the
  /// materialized projection (on-the-fly MoCHy-A+).
  std::vector<uint64_t> wedge_prefix;

  /// Heap footprint in bytes of the wedge index itself.
  uint64_t MemoryBytes() const;
};
ProjectedDegrees ComputeProjectedDegrees(const Hypergraph& graph,
                                         size_t num_threads = 1);

/// Predicts ProjectedGraph::Build(graph).MemoryBytes() exactly from the
/// wedge index alone, in O(|E|), without materializing anything: Σ_e |N_e|
/// adjacency entries plus the per-edge offsets and wedge index. Used by
/// the engine's kAuto projection policy to pick lazy vs. materialized
/// against a byte budget.
uint64_t EstimateProjectionBytes(const ProjectedDegrees& degrees);

}  // namespace mochy

#endif  // MOCHY_HYPERGRAPH_PROJECTION_H_
