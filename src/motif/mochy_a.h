// MoCHy-A: approximate h-motif counting via hyperedge sampling
// (paper Algorithm 4).
//
// Samples s hyperedges uniformly with replacement; for each sample e_i it
// counts every instance containing e_i (via 1-hop and 2-hop projected
// neighbors) and finally rescales by |E| / (3s), which makes every
// per-motif estimate unbiased (Theorem 2). The sum does not depend on the
// order of the samples, so they run on the sorted-draw front end
// (motif/sorted_draws.h): each block of up to 65,536 draws is sorted into
// runs of equal edges, and each distinct edge is counted once
// (ContainingCensus), times its number of draws, on chunks balanced by
// cost.
#ifndef MOCHY_MOTIF_MOCHY_A_H_
#define MOCHY_MOTIF_MOCHY_A_H_

#include <cstdint>

#include "hypergraph/hypergraph.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"

namespace mochy {

struct MochyAOptions {
  uint64_t num_samples = 1000;  ///< s — hyperedge samples (with replacement)
  uint64_t seed = 1;            ///< RNG seed; same seed => same estimate
  /// Samples are processed in parallel; 0 means DefaultThreadCount(), and
  /// at most the pool size runs. The estimate is bit-identical for any
  /// thread count.
  size_t num_threads = 1;
};

/// Unbiased estimates of all 26 motif counts via hyperedge sampling over
/// a materialized projection.
MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options);

/// Memory-bounded MoCHy-A — the engine's ProjectionPolicy::kLazy path.
/// No materialized projection: the sampled hyperedge's neighborhood and
/// every 2-hop neighborhood are fetched through the sharded `lazy` memo,
/// in parallel, once per distinct drawn edge; `degrees` (the wedge index)
/// prices the work. Estimates are bit-identical to CountMotifsEdgeSample
/// over the materialized projection of the same graph, for the same seed,
/// sample count, and any thread count. `stats_out`, when set, receives
/// the per-worker hit/recompute counters merged with the memo-side
/// byte/eviction counters. InvalidArgument when `degrees` does not match
/// `graph`.
Result<MotifCounts> CountMotifsEdgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAOptions& options,
    LazyProjection::Stats* stats_out = nullptr);

}  // namespace mochy

#endif  // MOCHY_MOTIF_MOCHY_A_H_
