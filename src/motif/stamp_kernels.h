// The h-motif instance-enumeration core.
//
// MoCHy-E, MoCHy-A and MoCHy-A+ (paper Algorithms 2, 4 and 5) share one
// step: classify the triple {e_i, e_j, e_k} from |e|, the pairwise ω and
// the triple intersection (Lemma 2). Every counting path in src/motif runs
// that step through one of three primitives:
//
//  - ForEachHubTriple — instances hubbed at e_i, so that a sweep over all
//    hubs visits every instance exactly once: MoCHy-E, the per-edge rows
//    (MotifEngine::CountPerEdge), instance enumeration and the variance
//    terms, all through ForEachInstanceParallel.
//  - ForEachTripleContaining (+ ...Range) — instances containing edge e,
//    over a range of N(e): MoCHy-A's per-sample pass, the streaming
//    arrival/removal delta, and the Table-4 HM26 candidate rows.
//  - ForEachWedgeTriple — instances containing the wedge {e_i, e_j}:
//    MoCHy-A+ (materialized and lazy) and the weighted sampler MoCHy-A+W.
//
// Each primitive is a template over a neighbor source and a sink. A
// source provides
//     edge_size(e) -> |e|
//     edge(e)      -> e's member nodes
//     neighbors(e) -> N(e) with weights, valid until the next call
// (ProjectionSource, LazySource, DynamicHypergraph; a plain Hypergraph
// serves the wedge primitive, whose neighborhoods — NeighborhoodBuilder
// output in the weighted sampler — are passed in). The hub primitive also
// probes Weight(a, b). The outer neighborhood a primitive iterates is
// passed in explicitly and must stay valid for the whole call. The sink is
// inlined and called as sink(e_j, e_k, id) for every candidate triple the
// primitive classifies, with id 0 for a triple that is no h-motif
// (duplicated hyperedges, paper Figure 4), so callers that keep candidate
// statistics see them all.
//
// Three dense-scratch tricks keep the step cheap:
//
//  - hoisted edge sizes: |e| for all hyperedges in one contiguous
//    uint32_t array, so the innermost loop reads 4 bytes instead of
//    differencing two uint64 CSR offsets;
//  - stamped pair weights: a projected neighborhood scattered into an
//    epoch-stamped array turns the per-pair w_jk hash probe into one load;
//  - stamped triple intersections: e_i is scattered into a node set once,
//    e_i ∩ e_j once per pair (lazily, first closed triple only), after
//    which |e_i ∩ e_j ∩ e_k| is a marked-count scan of e_k alone — Lemma 2
//    with the two inner membership tests amortized to O(1).
//
// Everything here is bit-count-neutral: the kernels built on these produce
// exactly the counts of the motif/reference.h baselines.
#ifndef MOCHY_MOTIF_STAMP_KERNELS_H_
#define MOCHY_MOTIF_STAMP_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"
#include "motif/pattern.h"

namespace mochy::internal {

/// Per-hub work estimate |N_e|² (Theorem 1's dominating term), the cost
/// vector the hub loops hand to ParallelWorkChunks.
inline std::vector<uint64_t> HubWorkEstimate(const ProjectedGraph& projection) {
  const size_t m = projection.num_edges();
  std::vector<uint64_t> cost(m);
  for (size_t e = 0; e < m; ++e) {
    const uint64_t degree = projection.degree(static_cast<EdgeId>(e));
    cost[e] = degree * degree;
  }
  return cost;
}

/// |e| for every hyperedge, hoisted into one contiguous array the inner
/// loops index directly.
inline std::vector<uint32_t> HoistEdgeSizes(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<uint32_t> sizes(m);
  for (size_t e = 0; e < m; ++e) {
    sizes[e] = static_cast<uint32_t>(graph.edge_size(static_cast<EdgeId>(e)));
  }
  return sizes;
}

/// The calling thread's scratch arena (LocalScratchArena), grown to fit
/// `graph` — a Hypergraph or DynamicHypergraph.
template <typename Graph>
ScratchArena& ArenaFor(const Graph& graph) {
  ScratchArena& arena = LocalScratchArena();
  arena.EnsureEdges(graph.num_edges());
  arena.EnsureNodes(graph.num_nodes());
  return arena;
}

/// The materialized projection as a neighbor source. Read-only, so one
/// source serves every worker of a run.
struct ProjectionSource {
  ProjectionSource(const Hypergraph& g, const ProjectedGraph& p)
      : graph(g), projection(p), size_of(HoistEdgeSizes(g)) {}

  uint64_t edge_size(EdgeId e) const { return size_of[e]; }
  std::span<const NodeId> edge(EdgeId e) const { return graph.edge(e); }
  std::span<const Neighbor> neighbors(EdgeId e) const {
    return projection.neighbors(e);
  }
  uint32_t Weight(EdgeId a, EdgeId b) const { return projection.Weight(a, b); }

  const Hypergraph& graph;
  const ProjectedGraph& projection;
  const std::vector<uint32_t> size_of;
};

/// The sharded lazy memo as a neighbor source. Memo references cannot
/// cross the shard lock (and another worker's eviction could invalidate
/// them), so neighborhoods are copies: Fetch() into a caller buffer for
/// an outer neighborhood that must outlive inner fetches, neighbors() into
/// the source's own buffer. One source per worker.
class LazySource {
 public:
  LazySource(const Hypergraph& graph, const uint32_t* size_of,
             ConcurrentLazyProjection& lazy, LazyProjection::Stats* stats)
      : graph_(graph),
        size_of_(size_of),
        lazy_(lazy),
        stats_(stats),
        builder_(graph.num_edges()) {}

  uint64_t edge_size(EdgeId e) const { return size_of_[e]; }
  std::span<const NodeId> edge(EdgeId e) const { return graph_.edge(e); }

  /// Copies N(e) into `*out`.
  std::span<const Neighbor> Fetch(EdgeId e, std::vector<Neighbor>* out) {
    lazy_.Neighborhood(e, builder_, out, stats_);
    return {out->data(), out->size()};
  }
  std::span<const Neighbor> neighbors(EdgeId e) { return Fetch(e, &inner_); }

 private:
  const Hypergraph& graph_;
  const uint32_t* size_of_;
  ConcurrentLazyProjection& lazy_;
  LazyProjection::Stats* stats_;
  NeighborhoodBuilder builder_;
  std::vector<Neighbor> inner_;
};

/// Scatters e_i's members into arena.node_hub (fresh epoch).
template <typename Source>
void StampHubNodes(const Source& source, EdgeId ei, ScratchArena& arena) {
  arena.node_hub.NewEpoch();
  for (NodeId v : source.edge(ei)) arena.node_hub.Insert(v);
}

/// Scatters e_i ∩ e_j into arena.node_pair (fresh epoch); node_hub must
/// hold e_i (StampHubNodes).
template <typename Source>
void StampPairNodes(const Source& source, EdgeId ej, ScratchArena& arena) {
  arena.node_pair.NewEpoch();
  for (NodeId v : source.edge(ej)) {
    if (arena.node_hub.Test(v)) arena.node_pair.Insert(v);
  }
}

/// |e_i ∩ e_j ∩ e_k| as a marked-count scan of e_k; node_pair must hold
/// e_i ∩ e_j (StampPairNodes).
template <typename Source>
uint64_t StampedTripleIntersection(const Source& source, EdgeId ek,
                                   const ScratchArena& arena) {
  uint64_t count = 0;
  for (NodeId v : source.edge(ek)) count += arena.node_pair.Test(v) ? 1 : 0;
  return count;
}

/// Every instance hubbed at e_i (`nbrs` = N(e_i)): pairs {e_j, e_k} of
/// N(e_i), open instances at their unique hub and closed ones only from
/// the smallest hub id (Algorithm 2, line 4). Visits pairs in (a, b)
/// position order. Uses arena.edge_weight and both node sets.
template <typename Source, typename Sink>
void ForEachHubTriple(Source& source, EdgeId ei, std::span<const Neighbor> nbrs,
                      ScratchArena& arena, Sink&& sink) {
  if (nbrs.size() < 2) return;
  const uint64_t size_i = source.edge_size(ei);
  StampHubNodes(source, ei, arena);

  for (size_t a = 0; a + 1 < nbrs.size(); ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ij = nbrs[a].weight;
    const uint64_t size_j = source.edge_size(ej);
    const auto nbrs_j = source.neighbors(ej);
    // Scattering N(e_j) costs |N_j| writes and is amortized over the
    // pairs still to come. When that tail is short and N(e_j) is huge,
    // probe w_jk per pair instead: identical counts, better constant.
    const bool scattered = nbrs_j.size() <= 16 + 4 * (nbrs.size() - a - 1);
    if (scattered) {
      arena.edge_weight.NewEpoch();
      for (const Neighbor& n : nbrs_j) arena.edge_weight.Set(n.edge, n.weight);
    }
    // e_i ∩ e_j is scattered lazily: only pairs that reach a closed
    // triple pay for it.
    bool pair_ready = false;

    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      const uint64_t w_jk =
          scattered ? arena.edge_weight.Get(ek) : source.Weight(ej, ek);
      if (w_jk != 0 && ei >= std::min(ej, ek)) continue;
      uint64_t w_ijk = 0;
      if (w_jk != 0) {
        if (!pair_ready) {
          StampPairNodes(source, ej, arena);
          pair_ready = true;
        }
        w_ijk = StampedTripleIntersection(source, ek, arena);
      }
      sink(ej, ek,
           ClassifyMotifOrZero(size_i, size_j, source.edge_size(ek), w_ij,
                               w_jk, nbrs[b].weight, w_ijk));
    }
  }
}

/// Prepares `arena` for ForEachTripleContainingRange over edge e
/// (`nbrs` = N(e)): w(e, ·) into arena.edge_weight2, e's nodes into
/// arena.node_hub. The range calls only bump the edge_weight / node_pair
/// epochs, so one preparation serves any number of ranges of e.
template <typename Source>
void StampContainingEdge(const Source& source, EdgeId e,
                         std::span<const Neighbor> nbrs, ScratchArena& arena) {
  arena.edge_weight2.NewEpoch();
  for (const Neighbor& n : nbrs) arena.edge_weight2.Set(n.edge, n.weight);
  StampHubNodes(source, e, arena);
}

/// Every instance containing e whose first neighbor, by position in
/// `nbrs` = N(e), lies in [begin, end): for each e_j there, the triples
/// {e, e_j, e_k} with e_k ∈ N(e_j) \ N(e) (open, hub e_j) and with e_k a
/// later member of N(e) (unordered pairs once). Over [0, |N(e)|) that is
/// each instance containing e exactly once. The arena must be prepared by
/// StampContainingEdge; disjoint ranges may run concurrently on per-thread
/// arenas.
template <typename Source, typename Sink>
void ForEachTripleContainingRange(Source& source, EdgeId e,
                                  std::span<const Neighbor> nbrs, size_t begin,
                                  size_t end, ScratchArena& arena,
                                  Sink&& sink) {
  const StampedWeights& w_e = arena.edge_weight2;  // w(e, ·) over N(e)
  StampedWeights& w_j = arena.edge_weight;         // w(e_j, ·) ∩ N(e)
  const uint64_t size_e = source.edge_size(e);

  for (size_t a = begin; a < end; ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ej = nbrs[a].weight;
    const uint64_t size_j = source.edge_size(ej);

    // One pass over N(e_j): members also adjacent to e stamp w_jk for the
    // pair loop below, the rest are open triples with hub e_j and an
    // empty triple intersection, classified on the spot.
    w_j.NewEpoch();
    for (const Neighbor& nj : source.neighbors(ej)) {
      const EdgeId ek = nj.edge;
      if (ek == e) continue;
      if (w_e.Test(ek)) {
        w_j.Set(ek, nj.weight);
        continue;
      }
      sink(ej, ek,
           ClassifyMotifOrZero(size_e, size_j, source.edge_size(ek), w_ej,
                               /*w_jk=*/nj.weight, /*w_ek=*/0,
                               /*w_ejk=*/0));
    }

    bool pair_ready = false;
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      const uint64_t w_jk = w_j.Get(ek);
      uint64_t w_ejk = 0;
      if (w_jk != 0) {
        if (!pair_ready) {
          StampPairNodes(source, ej, arena);
          pair_ready = true;
        }
        w_ejk = StampedTripleIntersection(source, ek, arena);
      }
      sink(ej, ek,
           ClassifyMotifOrZero(size_e, size_j, source.edge_size(ek), w_ej,
                               w_jk, nbrs[b].weight, w_ejk));
    }
  }
}

/// Every instance containing e, each exactly once (`nbrs` = N(e)).
template <typename Source, typename Sink>
void ForEachTripleContaining(Source& source, EdgeId e,
                             std::span<const Neighbor> nbrs,
                             ScratchArena& arena, Sink&& sink) {
  StampContainingEdge(source, e, nbrs, arena);
  ForEachTripleContainingRange(source, e, nbrs, 0, nbrs.size(), arena,
                               std::forward<Sink>(sink));
}

/// Every instance containing the wedge {e_i, e_j} (ω = w_ij, `nbrs_i` =
/// N(e_i), `nbrs_j` = N(e_j)): one triple per e_k adjacent to e_i or e_j.
/// Uses arena.edge_weight for w(e_j, ·), arena.edge_weight2 for
/// w(e_i, ·) and both node sets.
template <typename Source, typename Sink>
void ForEachWedgeTriple(const Source& source, EdgeId ei, EdgeId ej,
                        uint64_t w_ij, std::span<const Neighbor> nbrs_i,
                        std::span<const Neighbor> nbrs_j, ScratchArena& arena,
                        Sink&& sink) {
  const uint64_t size_i = source.edge_size(ei);
  const uint64_t size_j = source.edge_size(ej);
  StampedWeights& w_i = arena.edge_weight2;  // w(e_i, ·) over N(e_i)\{e_j}
  StampedWeights& w_j = arena.edge_weight;   // w(e_j, ·) over N(e_j)
  w_j.NewEpoch();
  for (const Neighbor& n : nbrs_j) w_j.Set(n.edge, n.weight);
  w_i.NewEpoch();
  // e_i's nodes and e_i ∩ e_j are scattered lazily: only wedges that reach
  // a closed triple pay for the node passes.
  bool pair_ready = false;

  // e_k in N(e_i): w_ik from the list, w_jk from the stamp.
  for (const Neighbor& n : nbrs_i) {
    const EdgeId ek = n.edge;
    if (ek == ej) continue;
    w_i.Set(ek, n.weight);
    const uint64_t w_jk = w_j.Get(ek);
    uint64_t w_ijk = 0;
    if (w_jk != 0) {
      if (!pair_ready) {
        StampHubNodes(source, ei, arena);
        StampPairNodes(source, ej, arena);
        pair_ready = true;
      }
      w_ijk = StampedTripleIntersection(source, ek, arena);
    }
    sink(ej, ek,
         ClassifyMotifOrZero(size_i, size_j, source.edge_size(ek), w_ij, w_jk,
                             n.weight, w_ijk));
  }
  // e_k in N(e_j) \ N(e_i): w_ik = 0, hence open with hub e_j.
  for (const Neighbor& n : nbrs_j) {
    const EdgeId ek = n.edge;
    if (ek == ei || w_i.Test(ek)) continue;
    sink(ej, ek,
         ClassifyMotifOrZero(size_i, size_j, source.edge_size(ek), w_ij,
                             /*w_jk=*/n.weight, /*w_ik=*/0, /*w_ijk=*/0));
  }
}

/// The sampling loop of MoCHy-A and MoCHy-A+. Sample n of `num_samples`
/// draws k = UniformInt(population) from its own fork of Rng(seed) — so
/// the result is identical for any thread count — and worker n mod T
/// passes it to its visitor(k, arena, raw), which adds one raw count per
/// instance it finds. `make_visitor(worker)` builds each worker's visitor
/// with whatever per-worker state its neighbor source needs. Runs on
/// `num_threads` workers (0 = DefaultThreadCount(), at most one per
/// sample) and returns the summed raw counts; num_samples must be > 0.
template <typename MakeVisitor>
MotifCounts SampleInstances(const Hypergraph& graph, uint64_t population,
                            uint64_t num_samples, uint64_t seed,
                            size_t num_threads, MakeVisitor&& make_visitor) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads > num_samples) num_threads = static_cast<size_t>(num_samples);
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(seed);
  ParallelWorkers(num_threads, [&](size_t worker) {
    ScratchArena& arena = ArenaFor(graph);
    auto visit = make_visitor(worker);
    for (uint64_t n = worker; n < num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      visit(rng.UniformInt(population), arena, partial[worker]);
    }
  });
  MotifCounts total;
  for (const MotifCounts& part : partial) total += part;
  return total;
}

/// Sink adding one raw count per instance (id 0, no h-motif, dropped).
inline auto RawCounter(MotifCounts& raw) {
  return [&raw](EdgeId, EdgeId, int id) {
    if (id != 0) raw[id] += 1.0;
  };
}

/// Runs ForEachHubTriple over every hub of the materialized projection on
/// `num_threads` workers (0 = DefaultThreadCount()), so every instance is
/// seen exactly once, as sink(worker, e_i, e_j, e_k, id) from the worker
/// that owns its hub. Hubs are claimed in chunks of near-equal Σ|N_e|²
/// work: per-hub work is ~|N_e|² and projected degrees are heavy-tailed,
/// so static blocks balance poorly and one atomic claim per hub wastes the
/// cheap hubs. With one worker, hubs run in id order.
template <typename Sink>
void ForEachInstanceParallel(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads, Sink&& sink) {
  const std::vector<uint64_t> cost = HubWorkEstimate(projection);
  const ProjectionSource source(graph, projection);
  ParallelWorkChunks(cost, num_threads == 0 ? DefaultThreadCount() : num_threads,
                     [&](size_t worker, size_t begin, size_t end) {
    ScratchArena& arena = ArenaFor(graph);
    for (size_t i = begin; i < end; ++i) {
      const EdgeId ei = static_cast<EdgeId>(i);
      ForEachHubTriple(source, ei, projection.neighbors(ei), arena,
                       [&](EdgeId ej, EdgeId ek, int id) {
                         sink(worker, ei, ej, ek, id);
                       });
    }
  });
}

}  // namespace mochy::internal

#endif  // MOCHY_MOTIF_STAMP_KERNELS_H_
