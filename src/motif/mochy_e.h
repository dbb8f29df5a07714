// MoCHy-E: exact h-motif counting (paper Algorithm 2).
//
// Algorithm 2 visits every unordered pair {e_j, e_k} of projected-graph
// neighbors of every hyperedge e_i: open instances (e_j ∩ e_k = ∅) once,
// at their unique "hub", closed ones at each of their three hubs, so
// O(Σ_e |e| · |N_e|²) (Theorem 1). This counter reaches the same census
// without the pair loop (motif/stamp_kernels.h, ForEachHubClassParallel):
//
//  - open pairs, by class: at hub e_i, a pair's class were it open reads
//    only the keys (ω_ij, [|e_j| > ω_ij]) and (ω_ik, [|e_k| > ω_ik]), so
//    N(e_i) is bucketed by key and every key pair adds (number of pairs)
//    × that class — O(|N_i| + keys²) per hub, keys ≤ min(|N_i|, 2|e_i|);
//  - closed triples, once each: as i < j < k, e_j from N⁺(e_i), e_k from
//    N⁺(e_j) tested against a stamped N⁺(e_i); each adds its real class
//    and takes back the as-if-open class it received at each of its
//    three hubs. Triple intersections are counted node-major, once per
//    pair {e_i, e_j}.
//
// Cost O(Σ_e |N_e| + Σ_e Σ_{f∈N⁺(e)} |N⁺(f)| + closed · max|e|), the last
// term (up to a log d factor) the triple intersections. Counts are
// per-worker integers, so the result is identical at any thread count and
// to the pre-stamp pair-loop implementation retained in
// motif/reference.h as the differential-test oracle and bench baseline.
#ifndef MOCHY_MOTIF_MOCHY_E_H_
#define MOCHY_MOTIF_MOCHY_E_H_

#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"

namespace mochy {

/// Exactly counts every h-motif's instances. `num_threads` parallelizes
/// over hub hyperedges (Section 3.4); 0 means DefaultThreadCount(). The
/// result is identical for any thread count.
MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads = 1);

/// Convenience overload that builds the projection internally.
MotifCounts CountMotifsExact(const Hypergraph& graph,
                             size_t num_threads = 1);

}  // namespace mochy

#endif  // MOCHY_MOTIF_MOCHY_E_H_
