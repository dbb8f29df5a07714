// MoCHy-A+: approximate h-motif counting via hyperwedge sampling
// (paper Algorithm 5), over a materialized projection or, for the
// on-the-fly variant of Section 3.4, over the budgeted lazy memo.
//
// Samples r hyperwedges {e_i, e_j} uniformly with replacement and adds
// every instance containing each drawn wedge. The sum does not depend on
// the order of the samples, so they are counted hub by hub on the
// sorted-draw front end (motif/sorted_draws.h): each block of up to
// 65,536 draws is sorted into runs of equal wedge indices, which groups
// it by e_i, and each run's hub is found by galloping from the previous
// one over the wedge prefix. N(e_i) is stamped (and on the lazy path
// fetched) once per group in a chunk, and each distinct wedge scans
// N(e_j) once, its instances counted times its number of draws.
// Open motifs contain 2 wedges and closed motifs 3, so raw counts are
// rescaled by |∧|/(2r) and |∧|/(3r) respectively, giving unbiased
// estimates (Theorem 4) with strictly smaller variance than MoCHy-A at
// equal cost (Section 3.3 discussion).
#ifndef MOCHY_MOTIF_MOCHY_APLUS_H_
#define MOCHY_MOTIF_MOCHY_APLUS_H_

#include <cstdint>

#include "hypergraph/hypergraph.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"

namespace mochy {

struct MochyAPlusOptions {
  uint64_t num_samples = 1000;  ///< r — hyperwedge samples (with replacement)
  uint64_t seed = 1;
  /// Samples are processed in parallel; 0 means DefaultThreadCount(), and
  /// at most the pool size runs. The estimate is bit-identical for any
  /// thread count.
  size_t num_threads = 1;
};

/// Unbiased estimates of all 26 motif counts via uniform hyperwedge
/// sampling over a materialized projection.
MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options);

/// Memory-bounded MoCHy-A+ — the engine's ProjectionPolicy::kLazy path.
/// No materialized projection: wedges are drawn through `degrees` (the
/// wedge index) and neighborhoods fetched through the sharded `lazy`
/// memo, in parallel. Estimates are bit-identical to
/// CountMotifsWedgeSample over the materialized projection of the same
/// graph, for the same seed, sample count, and any thread count; only
/// the statistics depend on the memo. `stats_out`, when set, receives the
/// per-worker hit/recompute counters merged with the memo-side
/// byte/eviction counters. InvalidArgument when `degrees` does not match
/// `graph`. Engine callers reach this through ProjectionPolicy::kLazy,
/// which owns the memo and surfaces its stats in EngineStats.
Result<MotifCounts> CountMotifsWedgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAPlusOptions& options,
    LazyProjection::Stats* stats_out = nullptr);

}  // namespace mochy

#endif  // MOCHY_MOTIF_MOCHY_APLUS_H_
