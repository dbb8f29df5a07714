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
//    O(Σ_e (|N_e| + Σ_{v∈e} |E_v|) + Σ_e Σ_{f∈N⁺(e)} |N⁺(f)| · W), W =
//    ⌈max|e|/64⌉ mask words per triple intersection: MoCHy-E and the
//    per-edge rows (MotifEngine::CountPerEdge).
//  - WedgeCensus — the instances containing the wedge {e_i, e_j}, by
//    class, in two steps: PrepareHub(e_i) once, then AddWedge(e_j) for
//    each wedge that shares e_i. MoCHy-A+ (materialized and lazy) runs
//    its sorted draws (motif/sorted_draws.h) hub by hub through it, each
//    distinct wedge once times its draws; the weighted sampler MoCHy-A+W
//    calls it as a group of one per sample.
//  - ContainingCensus — the instances containing edge e, by class, as
//    two halves: the hub-e pair term (ContainingPairCensus) and a census
//    over a range of N(e) (ContainingRangeCensus). MoCHy-A (materialized
//    and lazy) runs the whole once per distinct drawn edge of its sorted
//    draws, times its draws, as do the Table-4 HM26 candidate rows once
//    per candidate; the streaming arrival/removal delta splits its range
//    half over threads.
//  - ForEachHubTriple — instances hubbed at e_i, so that a sweep over all
//    hubs visits every instance exactly once, O(Σ_e |N_e|²) pairs: the
//    paths that need each instance, instance enumeration and the
//    variance terms, through ForEachInstanceParallel.
//
// The census primitives add integers into a MotifCensus, indexed by
// motif id; slot 0 (no h-motif) is dropped by every reader. They classify
// in full only the closed triples; an open triple's class is its
// as-if-open class at its hub (MotifClassifier::OpenClass), a table
// lookup. ForEachHubTriple is the only sink primitive: it calls an
// inlined sink as sink(e_j, e_k, id) for every candidate triple, with id
// 0 for a triple that is no h-motif (duplicated hyperedges, paper
// Figure 4), which its callers skip.
//
// All but ForEachHubClassParallel (materialized projection only) are
// templates over a neighbor source, which provides
//     edge_size(e) -> |e|
//     edge(e)      -> e's member nodes
//     edges_of(v)  -> E_v, the hyperedges holding node v, ascending
//     neighbors(e) -> N(e) with weights, valid until the next call
// (ProjectionSource, LazySource, DynamicHypergraph; a plain Hypergraph
// serves WedgeCensus, whose neighborhoods — NeighborhoodBuilder output in
// the weighted sampler — are passed in). ForEachHubTriple needs every
// neighborhood sorted by edge id. The outer neighborhood a primitive
// iterates is passed in explicitly and must stay valid for the whole call.
//
// Three dense-scratch tricks keep the step cheap (and the classifier is
// the inlined MotifClassifier):
//
//  - hoisted edge sizes: |e| for all hyperedges in one contiguous
//    uint32_t array, so the innermost loop reads 4 bytes instead of
//    differencing two uint64 CSR offsets;
//  - stamped pair weights: a projected neighborhood scattered into an
//    epoch-stamped array turns the per-pair w_jk hash probe into one load;
//  - hub position masks (PrepareHubMasks): one node-major pass over hub
//    e_i gives each adjacent hyperedge x a slot and a ⌈|e_i|/64⌉-word mask
//    of the e_i positions it covers. x ∈ N(e_i) is one load, ω(e_i, x) a
//    popcount, and |e_i ∩ e_j ∩ e_k| the popcount of M_j & M_k — Lemma 2
//    in O(1) per closed triple for hyperedges of up to 64 nodes, and
//    exact for any size. Every primitive computes its ω(hub, ·) lookups
//    and triple intersections this way.
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

#include "common/logging.h"
#include "common/parallel.h"
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
  return arena;
}

/// The materialized projection as a neighbor source. Read-only, so one
/// source serves every worker of a run.
struct ProjectionSource {
  ProjectionSource(const Hypergraph& g, const ProjectedGraph& p)
      : graph(g), projection(p), size_of(HoistEdgeSizes(g)) {}

  uint64_t edge_size(EdgeId e) const { return size_of[e]; }
  std::span<const NodeId> edge(EdgeId e) const { return graph.edge(e); }
  std::span<const EdgeId> edges_of(NodeId v) const { return graph.edges_of(v); }
  std::span<const Neighbor> neighbors(EdgeId e) const {
    return projection.neighbors(e);
  }
  /// N(e), as LazySource::Fetch; the projection's own span, `out` unused.
  std::span<const Neighbor> Fetch(EdgeId e, std::vector<Neighbor>*) const {
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
  std::span<const EdgeId> edges_of(NodeId v) const {
    return graph_.edges_of(v);
  }

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

/// Prepares hub position masks for hub e in `masks` (PositionMasks):
/// one node-major pass that, for each position p of e and each hyperedge
/// x ∋ e[p] other than e — above e only, when `upper_only` — sets bit p of
/// x's mask. Afterwards x ∈ N(e) (N⁺(e)) exactly when x has a slot, and
/// ω(e, x) = count(slot(x)), |e ∩ x ∩ y| = shared(slot(x), slot(y)).
/// O(Σ_{v∈e} |E_v|) time, |N(e)| · ⌈|e|/64⌉ mask words.
template <typename Source>
void PrepareHubMasks(const Source& source, EdgeId e, bool upper_only,
                     PositionMasks& masks) {
  const auto nodes = source.edge(e);
  masks.Reset(nodes.size());
  for (size_t p = 0; p < nodes.size(); ++p) {
    const std::span<const EdgeId> edges = source.edges_of(nodes[p]);
    // E_v ascends and holds e.
    const size_t self = static_cast<size_t>(
        std::lower_bound(edges.begin(), edges.end(), e) - edges.begin());
    MOCHY_DCHECK(self < edges.size() && edges[self] == e);
    if (!upper_only) masks.Mark(edges.first(self), p);
    masks.Mark(edges.subspan(self + 1), p);
  }
}

/// Every instance hubbed at e_i (`nbrs` = N(e_i), sorted by edge id):
/// pairs {e_j, e_k} of N(e_i), open instances at their unique hub and
/// closed ones only from the smallest hub id (Algorithm 2, line 4). Visits
/// pairs in (a, b) position order. Uses arena.edge_weight and e_i's hub
/// masks.
template <typename Source, typename Sink>
void ForEachHubTriple(Source& source, EdgeId ei, std::span<const Neighbor> nbrs,
                      ScratchArena& arena, Sink&& sink) {
  if (nbrs.size() < 2) return;
  const uint64_t size_i = source.edge_size(ei);
  const PositionMasks& masks = arena.hub_masks;
  PrepareHubMasks(source, ei, /*upper_only=*/false, arena.hub_masks);

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
    const uint32_t slot_j = masks.slot(ej);

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
      const uint64_t w_ijk =
          w_jk == 0 ? 0 : masks.shared(slot_j, masks.slot(ek));
      sink(ej, ek,
           ClassifyMotifOrZero(size_i, size_j, source.edge_size(ek), w_ij,
                               w_jk, nbrs[b].weight, w_ijk));
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
  /// Sized for hubs of at most `max_edge_size` nodes (every ω ≤ that).
  explicit OpenPairBuckets(uint64_t max_edge_size)
      : index_of_(2 * max_edge_size + 2, kNone) {}

  /// Buckets `nbrs` = N(e_i) for a hub of `size_i` nodes; `source` gives
  /// |e| per hyperedge.
  template <typename Source>
  void Fill(const Source& source, uint64_t size_i,
            std::span<const Neighbor> nbrs) {
    Reset(size_i, nbrs.size());
    for (size_t p = 0; p < nbrs.size(); ++p) {
      Add(p, source.edge_size(nbrs[p].edge), nbrs[p].weight);
    }
  }

  /// Buckets N(e_i) from e_i's hub masks (PrepareHubMasks, not
  /// upper_only), position slot - 1 for each slot.
  template <typename Source>
  void Fill(const Source& source, uint64_t size_i, const PositionMasks& masks) {
    Reset(size_i, masks.num_slots());
    for (uint32_t slot = 1; slot <= masks.num_slots(); ++slot) {
      Add(slot - 1, source.edge_size(masks.id(slot)), masks.count(slot));
    }
  }

  size_t num_keys() const { return keys_.size(); }
  /// Key of key index `a`: 2ω + [|e| > ω].
  uint32_t key(size_t a) const { return keys_[a]; }
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

  void Reset(uint64_t size_i, size_t num_neighbors) {
    for (uint32_t key : keys_) index_of_[key] = kNone;
    keys_.clear();
    counts_.clear();
    key_index_.resize(num_neighbors);
    size_i_ = size_i;
  }

  /// Buckets the neighbor at `position`, of `size` nodes and ω = `w`.
  void Add(size_t position, uint64_t size, uint64_t w) {
    const uint32_t key = static_cast<uint32_t>(2 * w + (size > w ? 1 : 0));
    uint32_t& index = index_of_[key];
    if (index == kNone) {
      index = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key);
      counts_.push_back(0);
    }
    ++counts_[index];
    key_index_[position] = index;
  }

  std::vector<uint32_t> index_of_;   // key -> key index, kNone if unused
  std::vector<uint32_t> keys_;       // key index -> key
  std::vector<uint64_t> counts_;     // key index -> #neighbors
  std::vector<uint32_t> key_index_;  // position in N(e_i) -> key index
  uint64_t size_i_ = 0;
  MotifClassifier classify_;
};

/// The instances containing a wedge {e_i, e_j}, by class, in two steps so
/// that one hub serves every wedge that shares it. PrepareHub(e_i) builds
/// e_i's hub masks (PrepareHubMasks) and, from them, buckets N(e_i) by key
/// (OpenPairBuckets), O(Σ_{v∈e_i} |E_v|). AddWedge(e_j, ω_ij, N(e_j),
/// times) then adds, `times` over, one instance per e_k adjacent to e_i or
/// e_j: each e_k of N(e_i) but e_j as if open at hub e_i, by key, O(keys);
/// each e_k of N(e_j) \ N(e_i) open at hub e_j; and each e_k of both, which
/// closes the triple and alone is classified in full (its ω_ik and triple
/// intersection from the masks), taking back its hub-e_i entry. O(keys +
/// |N_j| + closed · ⌈|e_i|/64⌉) per wedge. Neighborhoods need not be
/// sorted. Uses arena.hub_masks, which nothing else may touch between
/// PrepareHub and the hub's last AddWedge. One per worker.
class WedgeCensus {
 public:
  /// Sized for hyperedges of at most `max_edge_size` nodes.
  explicit WedgeCensus(uint64_t max_edge_size) : buckets_(max_edge_size) {}

  template <typename Source>
  void PrepareHub(const Source& source, EdgeId ei, ScratchArena& arena) {
    ei_ = ei;
    size_i_ = source.edge_size(ei);
    PrepareHubMasks(source, ei, /*upper_only=*/false, arena.hub_masks);
    buckets_.Fill(source, size_i_, arena.hub_masks);
  }

  /// Adds the instances containing {e_i, e_j} `times` over; e_j ∈ N(e_i)
  /// with ω = w_ij, `nbrs_j` = N(e_j).
  template <typename Source>
  void AddWedge(const Source& source, EdgeId ej, uint64_t w_ij,
                std::span<const Neighbor> nbrs_j, int64_t times,
                const ScratchArena& arena, MotifCensus& census) {
    const uint64_t size_j = source.edge_size(ej);
    for (size_t a = 0; a < buckets_.num_keys(); ++a) {
      // ω + the private bit stands in for |e_k|: the same emptiness bits.
      const uint32_t key = buckets_.key(a);
      const uint64_t w_ik = key >> 1;
      census[classify_.OpenClass(size_i_, size_j, w_ik + (key & 1), w_ij,
                                 w_ik)] +=
          times * static_cast<int64_t>(buckets_.count(a));
    }
    census[classify_.OpenClass(size_i_, size_j, size_j, w_ij, w_ij)] -= times;
    const PositionMasks& masks = arena.hub_masks;  // e_i's, over N(e_i)
    const uint32_t slot_j = masks.slot(ej);
    for (const Neighbor& n : nbrs_j) {
      const EdgeId ek = n.edge;
      if (ek == ei_) continue;
      const uint64_t size_k = source.edge_size(ek);
      const uint32_t slot_k = masks.slot(ek);
      if (slot_k == 0) {
        census[classify_.OpenClass(size_j, size_i_, size_k, w_ij, n.weight)] +=
            times;
        continue;
      }
      const uint64_t w_ik = masks.count(slot_k);
      const uint64_t w_ijk = masks.shared(slot_j, slot_k);
      census[classify_(size_i_, size_j, size_k, w_ij, n.weight, w_ik, w_ijk)] +=
          times;
      census[classify_.OpenClass(size_i_, size_j, size_k, w_ij, w_ik)] -= times;
    }
  }

 private:
  OpenPairBuckets buckets_;
  MotifClassifier classify_;
  EdgeId ei_ = 0;
  uint64_t size_i_ = 0;
};

/// The hub-e pair term of ContainingCensus: every pair of `nbrs` = N(e)
/// as if open at hub e, through `buckets` (refilled here), added to
/// `census` by class. O(|N(e)| + keys²).
template <typename Source>
void ContainingPairCensus(const Source& source, EdgeId e,
                          std::span<const Neighbor> nbrs,
                          OpenPairBuckets& buckets, MotifCensus& census) {
  buckets.Fill(source, source.edge_size(e), nbrs);
  buckets.ForEachKeyPair([&census](size_t, size_t, uint64_t pairs, int id) {
    census[id] += static_cast<int64_t>(pairs);
  });
}

/// The rest of ContainingCensus over positions [begin, end) of `nbrs` =
/// N(e): for each e_j there, every e_k ∈ N(e_j) outside N(e) as open at
/// hub e_j, and each closed {e, e_j, e_k} with e_j < e_k classified in
/// full (its ω_ek and triple intersection from e's hub masks), taking back
/// its hub-e pair class. The pair term plus the ranges of any partition
/// of N(e) is ContainingCensus(e). arena.hub_masks must hold e's masks
/// (PrepareHubMasks, not upper_only), which this only reads: one
/// preparation serves any number of ranges of e, and disjoint ranges may
/// run concurrently on per-thread arenas. O(Σ_j |N_j| + closed ·
/// ⌈|e|/64⌉).
template <typename Source>
void ContainingRangeCensus(Source& source, const MotifClassifier& classify,
                           EdgeId e, std::span<const Neighbor> nbrs,
                           size_t begin, size_t end, const ScratchArena& arena,
                           MotifCensus& census) {
  const uint64_t size_e = source.edge_size(e);
  const PositionMasks& masks = arena.hub_masks;  // e's, over N(e)
  for (const Neighbor& nj : nbrs.subspan(begin, end - begin)) {
    const EdgeId ej = nj.edge;
    const uint64_t w_ej = nj.weight;
    const uint64_t size_j = source.edge_size(ej);
    const uint32_t slot_j = masks.slot(ej);
    for (const Neighbor& nk : source.neighbors(ej)) {
      const EdgeId ek = nk.edge;
      if (ek == e) continue;
      const uint64_t size_k = source.edge_size(ek);
      const uint32_t slot_k = masks.slot(ek);
      if (slot_k == 0) {
        ++census[classify.OpenClass(size_j, size_e, size_k, w_ej, nk.weight)];
        continue;
      }
      if (ek < ej) continue;  // closed: classified once, as e_j < e_k
      const uint64_t w_ek = masks.count(slot_k);
      const uint64_t w_ejk = masks.shared(slot_j, slot_k);
      ++census[classify(size_e, size_j, size_k, w_ej, nk.weight, w_ek, w_ejk)];
      --census[classify.OpenClass(size_e, size_j, size_k, w_ej, w_ek)];
    }
  }
}

/// The instances containing e (`nbrs` = N(e)), each once, added to
/// `census` by class: ContainingPairCensus, then e's hub masks, then
/// ContainingRangeCensus over all of N(e). O(Σ_{v∈e} |E_v| + keys² +
/// Σ_j |N_j| + closed · ⌈|e|/64⌉). Uses arena.hub_masks.
template <typename Source>
void ContainingCensus(Source& source, const MotifClassifier& classify,
                      EdgeId e, std::span<const Neighbor> nbrs,
                      OpenPairBuckets& buckets, ScratchArena& arena,
                      MotifCensus& census) {
  ContainingPairCensus(source, e, nbrs, buckets, census);
  PrepareHubMasks(source, e, /*upper_only=*/false, arena.hub_masks);
  ContainingRangeCensus(source, classify, e, nbrs, 0, nbrs.size(), arena,
                        census);
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

/// Every closed triple whose smallest member is e_i, once, as i < j < k:
/// e_j from N⁺(e_i), e_k from N⁺(e_j), kept when it holds a slot in e_i's
/// hub masks over N⁺(e_i), which also give ω_ik and the triple
/// intersection. Calls sink(e_j, e_k, id, open_i, open_j, open_k) with the
/// triple's class and its as-if-open class (OpenPairBuckets) at each of its
/// three hubs. Uses arena.hub_masks.
template <typename Sink>
void ForEachClosedTriple(const ProjectionSource& source, EdgeId ei,
                         const MotifClassifier& classify, ScratchArena& arena,
                         Sink&& sink) {
  const ProjectedGraph& projection = source.projection;
  const auto upper_i = projection.upper_neighbors(ei);
  if (upper_i.size() < 2) return;
  const PositionMasks& masks = arena.hub_masks;  // e_i's, over N⁺(e_i)
  PrepareHubMasks(source, ei, /*upper_only=*/true, arena.hub_masks);
  const uint64_t size_i = source.edge_size(ei);

  for (const Neighbor& nj : upper_i) {
    const EdgeId ej = nj.edge;
    const uint64_t w_ij = nj.weight;
    const uint64_t size_j = source.edge_size(ej);
    const uint32_t slot_j = masks.slot(ej);
    for (const Neighbor& nk : projection.upper_neighbors(ej)) {
      const uint32_t slot_k = masks.slot(nk.edge);
      if (slot_k == 0) continue;
      const EdgeId ek = nk.edge;
      const uint64_t w_jk = nk.weight;
      const uint64_t w_ik = masks.count(slot_k);
      const uint64_t size_k = source.edge_size(ek);
      const uint64_t w_ijk = masks.shared(slot_j, slot_k);
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
