// The h-motif instance-enumeration core.
//
// MoCHy-E, MoCHy-A and MoCHy-A+ (paper Algorithms 2, 4 and 5) share one
// step: classify the triple {e_i, e_j, e_k} from |e|, the pairwise ω and
// the triple intersection (Lemma 2). Every counting path in src/motif runs
// that step through one of these primitives:
//
//  - ForEachHubClassParallel — counts without visiting open instances:
//    open pairs by class per hub (OpenPairBuckets), plus every closed
//    triple once with its class corrections (ForEachClosedTriple), in
//    O(Σ_e |N_e| + Σ_e Σ_{f∈N⁺(e)} |N⁺(f)| + closed · max|e|), the last
//    term (up to a log d factor) the triple intersections: MoCHy-E and
//    the per-edge rows (MotifEngine::CountPerEdge).
//  - WedgeCensus — the instances containing the wedge {e_i, e_j}, by
//    class: MoCHy-A+ (materialized and lazy) and the weighted sampler
//    MoCHy-A+W, one census per sample.
//  - ContainingCensus — the instances containing edge e, by class:
//    MoCHy-A (materialized and lazy) and the Table-4 HM26 candidate rows.
//  - ForEachHubTriple — instances hubbed at e_i, so that a sweep over all
//    hubs visits every instance exactly once, O(Σ_e |N_e|²) pairs: the
//    paths that need each instance, instance enumeration and the
//    variance terms, through ForEachInstanceParallel.
//  - ForEachTripleContainingRange — instances containing edge e, over a
//    range of N(e): the streaming arrival/removal delta.
//
// The two census primitives add integers into a MotifCensus, indexed by
// motif id; slot 0 (no h-motif) is dropped by every reader. They classify
// in full only the closed triples; an open triple's class is its
// as-if-open class at its hub (MotifClassifier::OpenClass), a table
// lookup. The last two primitives call an inlined sink as sink(e_j, e_k,
// id) for every candidate triple, with id 0 for a triple that is no
// h-motif (duplicated hyperedges, paper Figure 4), so callers that keep
// candidate statistics see them all.
//
// All but ForEachHubClassParallel (materialized projection only) are
// templates over a neighbor source, which provides
//     edge_size(e) -> |e|
//     edge(e)      -> e's member nodes
//     neighbors(e) -> N(e) with weights, valid until the next call
// (ProjectionSource, LazySource, DynamicHypergraph; a plain Hypergraph
// serves WedgeCensus, whose neighborhoods — NeighborhoodBuilder output in
// the weighted sampler — are passed in). The hub primitive needs every
// neighborhood sorted by edge id. The outer neighborhood a primitive
// iterates is passed in explicitly and must stay valid for the whole call.
//
// Three dense-scratch tricks keep the step cheap (ForEachClosedTriple
// stamps w(e_i, ·) over N⁺(e_i), counts all triple intersections of a
// pair {e_i, e_j} in one node-major sweep, StampTripleIntersections, and
// classifies through the inlined MotifClassifier):
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
#include <array>
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
/// vector the pair loop (ForEachInstanceParallel) hands to
/// ParallelWorkChunks.
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

/// max |e| over `size_of` (HoistEdgeSizes output), 0 when empty.
inline uint64_t MaxEdgeSize(const std::vector<uint32_t>& size_of) {
  return size_of.empty() ? 0 : *std::max_element(size_of.begin(), size_of.end());
}

/// Instance counts by motif id. Slot 0 collects id 0 (a triple that is no
/// h-motif, or an as-if-open class no open instance reaches) and every
/// reader drops it. The census primitives add integers, so any sum of
/// censuses is exact and independent of order.
using MotifCensus = std::array<int64_t, kNumHMotifs + 1>;

/// One worker's census, padded against false sharing.
struct alignas(64) PaddedCensus {
  MotifCensus n{};
};

/// Σ of the worker censuses as raw counts, slot 0 dropped.
inline MotifCounts SumCensus(std::span<const PaddedCensus> parts) {
  MotifCounts total;
  for (int id = 1; id <= kNumHMotifs; ++id) {
    int64_t sum = 0;
    for (const PaddedCensus& part : parts) sum += part.n[id];
    total[id] = static_cast<double>(sum);
  }
  return total;
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

/// Every instance hubbed at e_i (`nbrs` = N(e_i), sorted by edge id):
/// pairs {e_j, e_k} of N(e_i), open instances at their unique hub and
/// closed ones only from the smallest hub id (Algorithm 2, line 4). Visits
/// pairs in (a, b) position order. Uses arena.edge_weight and both node
/// sets.
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
    // search the sorted N(e_j) for each w_jk instead: the tail's e_k
    // ascend, so each search starts where the last one stopped. Identical
    // counts, better constant.
    const bool scattered = nbrs_j.size() <= 16 + 4 * (nbrs.size() - a - 1);
    if (scattered) {
      arena.edge_weight.NewEpoch();
      for (const Neighbor& n : nbrs_j) arena.edge_weight.Set(n.edge, n.weight);
    }
    auto cursor = nbrs_j.begin();
    // e_i ∩ e_j is scattered lazily: only pairs that reach a closed
    // triple pay for it.
    bool pair_ready = false;

    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      uint64_t w_jk = 0;
      if (scattered) {
        w_jk = arena.edge_weight.Get(ek);
      } else {
        cursor = std::lower_bound(
            cursor, nbrs_j.end(), ek,
            [](const Neighbor& n, EdgeId id) { return n.edge < id; });
        if (cursor != nbrs_j.end() && cursor->edge == ek) w_jk = cursor->weight;
      }
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

/// N(e_i) bucketed by key (ω_ij, [|e_j| > ω_ij]). Were e_j and e_k
/// disjoint, {e_i, e_j, e_k} would be the open instance hubbed at e_i of
/// class ClassifyMotifOrZero(|e_i|, |e_j|, |e_k|, ω_ij, 0, ω_ik, 0) — its
/// "as-if-open" class. That class reads |e_j| only through the emptiness
/// of e_j \ e_i, so it is a function of the two keys, and all pairs of
/// N(e_i) count by key pair: O(|N_i| + keys²) per hub instead of the
/// O(|N_i|²) pair loop. One per worker; reusable across hubs.
class OpenPairBuckets {
 public:
  /// Sized for hyperedges of at most `max_edge_size` nodes (ω ≤ that).
  explicit OpenPairBuckets(uint64_t max_edge_size)
      : index_of_(2 * max_edge_size + 2, kNone) {}

  /// Buckets `nbrs` = N(e_i) for a hub of `size_i` nodes; `source` gives
  /// |e| per hyperedge.
  template <typename Source>
  void Fill(const Source& source, uint64_t size_i,
            std::span<const Neighbor> nbrs) {
    for (uint32_t key : keys_) index_of_[key] = kNone;
    keys_.clear();
    counts_.clear();
    key_index_.resize(nbrs.size());
    size_i_ = size_i;
    for (size_t p = 0; p < nbrs.size(); ++p) {
      const uint32_t w = nbrs[p].weight;
      const uint32_t key = 2 * w + (source.edge_size(nbrs[p].edge) > w ? 1 : 0);
      uint32_t& index = index_of_[key];
      if (index == kNone) {
        index = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        counts_.push_back(0);
      }
      ++counts_[index];
      key_index_[p] = index;
    }
  }

  size_t num_keys() const { return keys_.size(); }
  /// Number of neighbors with key index `a`.
  uint64_t count(size_t a) const { return counts_[a]; }
  /// Key index of nbrs[position].
  uint32_t key_index(size_t position) const { return key_index_[position]; }

  /// Calls fn(a, b, pairs, id) for every key-index pair a <= b: `pairs`
  /// unordered pairs of N(e_i) have those keys, and `id` is their
  /// as-if-open class (0: no h-motif, or ω_ij + ω_ik > |e_i|, which only
  /// a closed triple reaches).
  template <typename Fn>
  void ForEachKeyPair(Fn&& fn) const {
    for (size_t a = 0; a < keys_.size(); ++a) {
      // ω + the private bit stands in for |e|: the same emptiness bits.
      const uint64_t w_a = keys_[a] >> 1;
      const uint64_t size_a = w_a + (keys_[a] & 1);
      for (size_t b = a; b < keys_.size(); ++b) {
        const uint64_t w_b = keys_[b] >> 1;
        const uint64_t pairs =
            a == b ? counts_[a] * (counts_[a] - 1) / 2 : counts_[a] * counts_[b];
        if (pairs == 0) continue;
        fn(a, b, pairs,
           classify_.OpenClass(size_i_, size_a, w_b + (keys_[b] & 1), w_a, w_b));
      }
    }
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  std::vector<uint32_t> index_of_;   // key -> key index, kNone if unused
  std::vector<uint32_t> keys_;       // key index -> key
  std::vector<uint64_t> counts_;     // key index -> #neighbors
  std::vector<uint32_t> key_index_;  // position in N(e_i) -> key index
  uint64_t size_i_ = 0;
  MotifClassifier classify_;
};

/// The instances containing the wedge {e_i, e_j} (ω = w_ij ≥ 1, `nbrs_i` =
/// N(e_i), `nbrs_j` = N(e_j)), one per e_k adjacent to e_i or e_j, added to
/// `census` by class. Every e_k of N(e_j) first counts as if open at hub
/// e_j (e_i's own entry is taken back); each e_k of N(e_i) \ N(e_j) is
/// open at hub e_i; each e_k of both closes the triple, which alone is
/// classified in full (with its triple intersection) and takes back its
/// hub-e_j entry. Uses arena.edge_weight for w(e_j, ·) and both node sets.
template <typename Source>
void WedgeCensus(const Source& source, const MotifClassifier& classify,
                 EdgeId ei, EdgeId ej, uint64_t w_ij,
                 std::span<const Neighbor> nbrs_i,
                 std::span<const Neighbor> nbrs_j, ScratchArena& arena,
                 MotifCensus& census) {
  const uint64_t size_i = source.edge_size(ei);
  const uint64_t size_j = source.edge_size(ej);
  StampedWeights& w_j = arena.edge_weight;  // w(e_j, ·) over N(e_j)
  w_j.NewEpoch();
  for (const Neighbor& n : nbrs_j) {
    w_j.Set(n.edge, n.weight);
    ++census[classify.OpenClass(size_j, size_i, source.edge_size(n.edge),
                                w_ij, n.weight)];
  }
  --census[classify.OpenClass(size_j, size_i, size_i, w_ij, w_ij)];
  // e_i's nodes and e_i ∩ e_j are scattered lazily: only wedges that reach
  // a closed triple pay for the node passes.
  bool pair_ready = false;
  for (const Neighbor& n : nbrs_i) {
    const EdgeId ek = n.edge;
    if (ek == ej) continue;
    const uint64_t size_k = source.edge_size(ek);
    const uint64_t w_jk = w_j.Get(ek);
    if (w_jk == 0) {
      ++census[classify.OpenClass(size_i, size_j, size_k, w_ij, n.weight)];
      continue;
    }
    if (!pair_ready) {
      StampHubNodes(source, ei, arena);
      StampPairNodes(source, ej, arena);
      pair_ready = true;
    }
    const uint64_t w_ijk = StampedTripleIntersection(source, ek, arena);
    ++census[classify(size_i, size_j, size_k, w_ij, w_jk, n.weight, w_ijk)];
    --census[classify.OpenClass(size_j, size_i, size_k, w_ij, w_jk)];
  }
}

/// The instances containing e (`nbrs` = N(e)), each once, added to
/// `census` by class: every pair of N(e) as if open at hub e, through
/// `buckets` (refilled here); for each e_j ∈ N(e), every e_k ∈ N(e_j)
/// outside N(e) as open at hub e_j; and each closed {e, e_j, e_k} once (e_j
/// < e_k), classified in full, taking back its hub-e pair class.
/// O(|N_e| + keys² + Σ_j |N_j| + closed · |e_k|). Uses arena.edge_weight2
/// for w(e, ·) and both node sets.
template <typename Source>
void ContainingCensus(Source& source, const MotifClassifier& classify,
                      EdgeId e, std::span<const Neighbor> nbrs,
                      OpenPairBuckets& buckets, ScratchArena& arena,
                      MotifCensus& census) {
  const uint64_t size_e = source.edge_size(e);
  buckets.Fill(source, size_e, nbrs);
  buckets.ForEachKeyPair([&census](size_t, size_t, uint64_t pairs, int id) {
    census[id] += static_cast<int64_t>(pairs);
  });
  StampedWeights& w_e = arena.edge_weight2;  // w(e, ·) over N(e)
  w_e.NewEpoch();
  for (const Neighbor& n : nbrs) w_e.Set(n.edge, n.weight);
  // e's nodes and e ∩ e_j are scattered lazily: only edges and pairs that
  // reach a closed triple pay for the node passes.
  bool hub_ready = false;
  for (const Neighbor& nj : nbrs) {
    const EdgeId ej = nj.edge;
    const uint64_t w_ej = nj.weight;
    const uint64_t size_j = source.edge_size(ej);
    bool pair_ready = false;
    for (const Neighbor& nk : source.neighbors(ej)) {
      const EdgeId ek = nk.edge;
      if (ek == e) continue;
      const uint64_t size_k = source.edge_size(ek);
      const uint64_t w_ek = w_e.Get(ek);
      if (w_ek == 0) {
        ++census[classify.OpenClass(size_j, size_e, size_k, w_ej, nk.weight)];
        continue;
      }
      if (ek < ej) continue;  // closed: classified once, as e_j < e_k
      if (!pair_ready) {
        if (!hub_ready) {
          StampHubNodes(source, e, arena);
          hub_ready = true;
        }
        StampPairNodes(source, ej, arena);
        pair_ready = true;
      }
      const uint64_t w_ejk = StampedTripleIntersection(source, ek, arena);
      ++census[classify(size_e, size_j, size_k, w_ej, nk.weight, w_ek, w_ejk)];
      --census[classify.OpenClass(size_e, size_j, size_k, w_ej, w_ek)];
    }
  }
}

/// The sampling loop of MoCHy-A and MoCHy-A+. Sample n of `num_samples`
/// draws k = UniformInt(population) from its own fork of Rng(seed) — so
/// the result is identical for any thread count — and worker n mod T
/// passes it to its visitor(k, arena, census), which adds the sample's
/// instances to the worker's census by class. `make_visitor(worker)`
/// builds each worker's visitor with whatever per-worker state its
/// neighbor source needs. Runs on `num_threads` workers (0 =
/// DefaultThreadCount(), at most one per sample) and returns the summed
/// raw counts (slot 0 dropped); num_samples must be > 0.
template <typename MakeVisitor>
MotifCounts SampleInstances(const Hypergraph& graph, uint64_t population,
                            uint64_t num_samples, uint64_t seed,
                            size_t num_threads, MakeVisitor&& make_visitor) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads > num_samples) num_threads = static_cast<size_t>(num_samples);
  std::vector<PaddedCensus> partial(num_threads);
  const Rng base(seed);
  ParallelWorkers(num_threads, [&](size_t worker) {
    ScratchArena& arena = ArenaFor(graph);
    auto visit = make_visitor(worker);
    for (uint64_t n = worker; n < num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      visit(rng.UniformInt(population), arena, partial[worker].n);
    }
  });
  return SumCensus(partial);
}

/// Per-hub work of ForEachHubClassParallel: |N_i| to bucket N(e_i) plus
/// Σ_{j∈N⁺(i)} |N⁺(j)| closed-triple candidates. O(|∧|).
inline std::vector<uint64_t> HubClassWorkEstimate(
    const ProjectedGraph& projection) {
  const size_t m = projection.num_edges();
  std::vector<uint64_t> cost(m);
  for (size_t i = 0; i < m; ++i) {
    const EdgeId ei = static_cast<EdgeId>(i);
    uint64_t work = projection.degree(ei);
    for (const Neighbor& n : projection.upper_neighbors(ei)) {
      work += projection.upper_neighbors(n.edge).size();
    }
    cost[i] = work;
  }
  return cost;
}

/// |e_i ∩ e_j ∩ e_k| for every e_k > e_j at once, into arena.edge_weight2
/// (fresh epoch; unset means 0): for each v ∈ e_i ∩ e_j, one increment per
/// hyperedge of E_v above e_j. That is |e_j| membership tests, ω_ij binary
/// searches and Σ_k |e_i ∩ e_j ∩ e_k| increments, instead of a scan of
/// each e_k. node_hub must hold e_i (StampHubNodes).
inline void StampTripleIntersections(const ProjectionSource& source,
                                     EdgeId ej, ScratchArena& arena) {
  StampedWeights& w_ijk = arena.edge_weight2;
  w_ijk.NewEpoch();
  for (NodeId v : source.edge(ej)) {
    if (!arena.node_hub.Test(v)) continue;
    const auto edges = source.graph.edges_of(v);  // sorted ascending
    for (auto it = std::upper_bound(edges.begin(), edges.end(), ej);
         it != edges.end(); ++it) {
      w_ijk.Set(*it, w_ijk.Get(*it) + 1);
    }
  }
}

/// Every closed triple whose smallest member is e_i, once, as i < j < k:
/// e_j from N⁺(e_i), e_k from N⁺(e_j), kept when a stamped w(e_i, ·) over
/// N⁺(e_i) holds it. Calls sink(e_j, e_k, id, open_i, open_j, open_k)
/// with the triple's class and its as-if-open class (OpenPairBuckets) at
/// each of its three hubs. Uses both edge-indexed arrays and node_hub.
template <typename Sink>
void ForEachClosedTriple(const ProjectionSource& source, EdgeId ei,
                         const MotifClassifier& classify, ScratchArena& arena,
                         Sink&& sink) {
  const ProjectedGraph& projection = source.projection;
  const auto upper_i = projection.upper_neighbors(ei);
  if (upper_i.size() < 2) return;
  StampedWeights& w_i = arena.edge_weight;  // w(e_i, ·) over N⁺(e_i)
  w_i.NewEpoch();
  for (const Neighbor& n : upper_i) w_i.Set(n.edge, n.weight);
  const StampedWeights& w_ijk_of = arena.edge_weight2;
  const uint64_t size_i = source.edge_size(ei);
  // e_i's nodes and the triple intersections of {e_i, e_j} are stamped
  // lazily: only hubs and pairs that reach a closed triple pay for them.
  bool hub_ready = false;

  for (const Neighbor& nj : upper_i) {
    const EdgeId ej = nj.edge;
    const uint64_t w_ij = nj.weight;
    const uint64_t size_j = source.edge_size(ej);
    bool pair_ready = false;
    for (const Neighbor& nk : projection.upper_neighbors(ej)) {
      const uint64_t w_ik = w_i.Get(nk.edge);
      if (w_ik == 0) continue;
      if (!pair_ready) {
        if (!hub_ready) {
          StampHubNodes(source, ei, arena);
          hub_ready = true;
        }
        StampTripleIntersections(source, ej, arena);
        pair_ready = true;
      }
      const EdgeId ek = nk.edge;
      const uint64_t w_jk = nk.weight;
      const uint64_t size_k = source.edge_size(ek);
      const uint64_t w_ijk = w_ijk_of.Get(ek);
      sink(ej, ek,
           classify(size_i, size_j, size_k, w_ij, w_jk, w_ik, w_ijk),
           classify.OpenClass(size_i, size_j, size_k, w_ij, w_ik),
           classify.OpenClass(size_j, size_i, size_k, w_ij, w_jk),
           classify.OpenClass(size_k, size_i, size_j, w_ik, w_jk));
    }
  }
}

/// The counting primitive (MoCHy-E without the pair loop). Σ over hubs of
/// the as-if-open classes of all pairs of N(e_i), plus, for each closed
/// triple, its class minus its three as-if-open classes, is exactly the
/// instance census: an open instance is one pair at its unique hub, and a
/// closed one a pair at each of its three. On `num_threads` workers (0 =
/// DefaultThreadCount()), hubs claimed in HubClassWorkEstimate-balanced
/// chunks, each hub e_i calls
///     open(worker, e_i, buckets)   — buckets: N(e_i) filled, see
///                                    OpenPairBuckets::ForEachKeyPair
///     closed(worker, e_i, e_j, e_k, id, open_i, open_j, open_k)
///                                  — per ForEachClosedTriple.
/// Sinks that add integers give the same totals at any thread count.
template <typename OpenSink, typename ClosedSink>
void ForEachHubClassParallel(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads, OpenSink&& open,
                             ClosedSink&& closed) {
  const std::vector<uint64_t> cost = HubClassWorkEstimate(projection);
  const ProjectionSource source(graph, projection);
  const MotifClassifier classify;
  const uint64_t max_edge_size = MaxEdgeSize(source.size_of);
  ParallelWorkChunks(cost, num_threads == 0 ? DefaultThreadCount() : num_threads,
                     [&](size_t worker, size_t begin, size_t end) {
    ScratchArena& arena = ArenaFor(graph);
    OpenPairBuckets buckets(max_edge_size);
    for (size_t i = begin; i < end; ++i) {
      const EdgeId ei = static_cast<EdgeId>(i);
      buckets.Fill(source, source.edge_size(ei), projection.neighbors(ei));
      open(worker, ei, std::as_const(buckets));
      ForEachClosedTriple(source, ei, classify, arena,
                          [&](EdgeId ej, EdgeId ek, int id, int open_i,
                              int open_j, int open_k) {
                            closed(worker, ei, ej, ek, id, open_i, open_j,
                                   open_k);
                          });
    }
  });
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
