#include "motif/reference.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/alias_table.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mochy::reference {

namespace {

/// ω({a, b}) for every hyperwedge, keyed by PackPair: the O(1) pair-weight
/// probe these kernels were written against. The materialized projection
/// keeps no such table, so the oracle builds its own.
FlatMap64<uint32_t> PairWeights(const ProjectedGraph& projection) {
  FlatMap64<uint32_t> weights(projection.num_wedges());
  for (EdgeId e = 0; e < projection.num_edges(); ++e) {
    for (const Neighbor& n : projection.upper_neighbors(e)) {
      weights.Put(PackPair(e, n.edge), n.weight);
    }
  }
  return weights;
}

}  // namespace

MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads) {
  const size_t m = graph.num_edges();
  MOCHY_CHECK(projection.num_edges() == m)
      << "projection does not match hypergraph";
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const FlatMap64<uint32_t> weights = PairWeights(projection);

  std::vector<MotifCounts> partial(num_threads);
  // Work stealing over hubs, one atomic claim per hub: per-hub work is
  // |N_e|^2 and projected degrees are heavy-tailed, so static blocks would
  // balance poorly.
  std::atomic<size_t> next_hub{0};
  auto worker = [&](size_t thread) {
    MotifCounts& local = partial[thread];
    while (true) {
      const size_t i = next_hub.fetch_add(1, std::memory_order_relaxed);
      if (i >= m) return;
      const EdgeId ei = static_cast<EdgeId>(i);
      const auto nbrs = projection.neighbors(ei);
      const uint64_t size_i = graph.edge_size(ei);
      for (size_t a = 0; a < nbrs.size(); ++a) {
        const EdgeId ej = nbrs[a].edge;
        const uint64_t w_ij = nbrs[a].weight;
        const uint64_t size_j = graph.edge_size(ej);
        for (size_t b = a + 1; b < nbrs.size(); ++b) {
          const EdgeId ek = nbrs[b].edge;
          const uint64_t w_jk = weights.GetOr(PackPair(ej, ek), 0);
          // Count open instances at their unique hub; closed instances
          // only from the smallest hub id (Algorithm 2, line 4).
          if (w_jk != 0 && ei >= std::min(ej, ek)) continue;
          const uint64_t w_ik = nbrs[b].weight;
          const uint64_t size_k = graph.edge_size(ek);
          const uint64_t w_ijk =
              w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
          // Triples containing duplicated hyperedges correspond to no
          // h-motif (paper Figure 4) and yield id 0: skip them. They can
          // occur when duplicate removal is disabled (e.g. null models).
          const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                             w_jk, w_ik, w_ijk);
          if (id != 0) local[id] += 1.0;
        }
      }
    }
  };
  ParallelWorkers(num_threads, worker);

  MotifCounts total;
  for (const MotifCounts& part : partial) total += part;
  return total;
}

namespace {

/// Processes one sampled hyperedge e_i: visits every h-motif instance that
/// contains e_i and increments raw counts. `stamp` is an |E|-sized scratch
/// with stamp[e] = omega(e_i, e) for e in N(e_i), 0 elsewhere; `weights`
/// is PairWeights(projection).
void ProcessSampledEdge(const Hypergraph& graph,
                        const ProjectedGraph& projection,
                        const FlatMap64<uint32_t>& weights, EdgeId ei,
                        std::vector<uint32_t>& stamp, MotifCounts& raw) {
  const auto nbrs = projection.neighbors(ei);
  for (const Neighbor& n : nbrs) stamp[n.edge] = n.weight;
  const uint64_t size_i = graph.edge_size(ei);

  for (size_t a = 0; a < nbrs.size(); ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ij = nbrs[a].weight;
    const uint64_t size_j = graph.edge_size(ej);
    // Case 1: e_k also a neighbor of e_i. Enumerate unordered pairs once
    // (j < k by position, Algorithm 4 line 6).
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      const uint64_t w_ik = nbrs[b].weight;
      const uint64_t size_k = graph.edge_size(ek);
      const uint64_t w_jk = weights.GetOr(PackPair(ej, ek), 0);
      const uint64_t w_ijk =
          w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
      // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
      const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                         w_ik, w_ijk);
      if (id != 0) raw[id] += 1.0;
    }
    // Case 2: e_k in N(e_j) \ N(e_i) \ {e_i}: an open instance whose hub
    // is e_j (e_i and e_k are disjoint). Counted for every such e_j.
    for (const Neighbor& nj : projection.neighbors(ej)) {
      const EdgeId ek = nj.edge;
      if (ek == ei || stamp[ek] != 0) continue;  // in N(e_i): handled above
      const uint64_t size_k = graph.edge_size(ek);
      const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                         /*w_jk=*/nj.weight, /*w_ik=*/0,
                                         /*w_ijk=*/0);
      if (id != 0) raw[id] += 1.0;
    }
  }
  for (const Neighbor& n : nbrs) stamp[n.edge] = 0;
}

/// Visits every h-motif instance containing the wedge {e_i, e_j} and
/// increments raw counts. `stamp_i` / `stamp_j` are |E|-sized scratch
/// arrays (all zero on entry and exit).
void ProcessWedge(const Hypergraph& graph, EdgeId ei, EdgeId ej,
                  uint64_t w_ij, std::span<const Neighbor> nbrs_i,
                  std::span<const Neighbor> nbrs_j,
                  std::vector<uint32_t>& stamp_i,
                  std::vector<uint32_t>& stamp_j, MotifCounts& raw) {
  const uint64_t size_i = graph.edge_size(ei);
  const uint64_t size_j = graph.edge_size(ej);
  for (const Neighbor& n : nbrs_j) stamp_j[n.edge] = n.weight;

  // e_k in N(e_i): w_ik from the list, w_jk from the stamp.
  for (const Neighbor& n : nbrs_i) {
    const EdgeId ek = n.edge;
    if (ek == ej) continue;
    stamp_i[ek] = n.weight;
    const uint64_t w_ik = n.weight;
    const uint64_t w_jk = stamp_j[ek];
    const uint64_t size_k = graph.edge_size(ek);
    const uint64_t w_ijk =
        w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
    // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
    const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                       w_ik, w_ijk);
    if (id != 0) raw[id] += 1.0;
  }
  // e_k in N(e_j) \ N(e_i): w_ik = 0, hence open with hub e_j.
  for (const Neighbor& n : nbrs_j) {
    const EdgeId ek = n.edge;
    if (ek == ei || stamp_i[ek] != 0) continue;
    const uint64_t size_k = graph.edge_size(ek);
    const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                       /*w_jk=*/n.weight, /*w_ik=*/0,
                                       /*w_ijk=*/0);
    if (id != 0) raw[id] += 1.0;
  }

  for (const Neighbor& n : nbrs_i) stamp_i[n.edge] = 0;
  for (const Neighbor& n : nbrs_j) stamp_j[n.edge] = 0;
}

/// Applies the Theorem-4 rescaling: raw counts -> unbiased estimates.
void RescaleWedgeEstimates(uint64_t num_wedges, uint64_t num_samples,
                           MotifCounts* counts) {
  const double wedges = static_cast<double>(num_wedges);
  const double r = static_cast<double>(num_samples);
  for (int id = 1; id <= kNumHMotifs; ++id) {
    const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
    (*counts)[id] *= wedges / (wedges_per_instance * r);
  }
}

/// Computes the weighted neighborhood of `e` into dense scratch, returning
/// the touched edges (unsorted). count[] must be all-zero on entry; the
/// caller resets it via the returned list.
void ComputeNeighborhood(const Hypergraph& graph, EdgeId e,
                         std::vector<uint32_t>& count,
                         std::vector<EdgeId>& touched) {
  touched.clear();
  for (NodeId v : graph.edge(e)) {
    for (EdgeId other : graph.edges_of(v)) {
      if (other == e) continue;
      if (count[other] == 0) touched.push_back(other);
      ++count[other];
    }
  }
}

}  // namespace

MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  MotifCounts total;
  if (m == 0 || options.num_samples == 0) return total;

  size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  if (num_threads > options.num_samples) {
    num_threads = static_cast<size_t>(options.num_samples);
  }
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);
  const FlatMap64<uint32_t> weights = PairWeights(projection);

  auto worker = [&](size_t thread) {
    std::vector<uint32_t> stamp(m, 0);
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      // Per-sample fork: the estimate is identical for any thread count.
      Rng rng = base.Fork(n);
      const EdgeId ei = static_cast<EdgeId>(rng.UniformInt(m));
      ProcessSampledEdge(graph, projection, weights, ei, stamp,
                         partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  // Rescale: each instance is counted once per sampled member hyperedge,
  // i.e. 3s/|E| times in expectation.
  total *=
      static_cast<double>(m) / (3.0 * static_cast<double>(options.num_samples));
  return total;
}

MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  MotifCounts total;
  const uint64_t wedges = projection.num_wedges();
  if (m == 0 || wedges == 0 || options.num_samples == 0) return total;

  size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  if (num_threads > options.num_samples) {
    num_threads = static_cast<size_t>(options.num_samples);
  }
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);

  auto worker = [&](size_t thread) {
    std::vector<uint32_t> stamp_i(m, 0), stamp_j(m, 0);
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      const uint64_t k = rng.UniformInt(wedges);
      const auto [ei, picked] = projection.WedgeAt(k);
      ProcessWedge(graph, ei, picked.edge, picked.weight,
                   projection.neighbors(ei), projection.neighbors(picked.edge),
                   stamp_i, stamp_j, partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  return total;
}

Result<MochyWeightedResult> CountMotifsWeightedWedge(
    const Hypergraph& graph, const MochyWeightedOptions& options) {
  const size_t n = graph.num_nodes();
  const size_t m = graph.num_edges();
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
  std::vector<uint32_t> count_i(m, 0), count_j(m, 0);
  std::vector<EdgeId> touched_i, touched_j;
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

    const uint64_t size_i = graph.edge_size(ei);
    const uint64_t size_j = graph.edge_size(ej);
    ComputeNeighborhood(graph, ei, count_i, touched_i);
    ComputeNeighborhood(graph, ej, count_j, touched_j);
    const uint64_t w_ij = count_i[ej];
    MOCHY_DCHECK(w_ij > 0);
    result.estimated_num_wedges += w_total / (static_cast<double>(w_ij) * r);

    // Horvitz-Thompson base weight for this wedge.
    const double inclusion = static_cast<double>(w_ij) / w_total;
    // One instance per e_k adjacent to e_i or e_j.
    for (EdgeId ek : touched_i) {
      if (ek == ej) continue;
      const uint64_t w_ik = count_i[ek];
      const uint64_t w_jk = count_j[ek];
      const uint64_t w_ijk =
          w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
      const int id = ClassifyMotifOrZero(size_i, size_j, graph.edge_size(ek),
                                         w_ij, w_jk, w_ik, w_ijk);
      if (id == 0) continue;
      const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
      result.counts[id] += 1.0 / (inclusion * wedges_per_instance * r);
    }
    for (EdgeId ek : touched_j) {
      if (ek == ei || count_i[ek] != 0) continue;  // handled above
      const int id = ClassifyMotifOrZero(size_i, size_j, graph.edge_size(ek),
                                         w_ij, /*w_bc=*/count_j[ek],
                                         /*w_ca=*/0, /*w_abc=*/0);
      if (id == 0) continue;
      const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
      result.counts[id] += 1.0 / (inclusion * wedges_per_instance * r);
    }
    for (EdgeId e : touched_i) count_i[e] = 0;
    for (EdgeId e : touched_j) count_j[e] = 0;
  }
  return result;
}

}  // namespace mochy::reference
