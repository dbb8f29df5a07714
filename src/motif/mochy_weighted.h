// MoCHy-A+W: projection-free h-motif estimation via weighted hyperwedge
// sampling (an extension beyond the paper; see DESIGN.md).
//
// The paper's on-the-fly MoCHy-A+ avoids *storing* the projected graph but
// still needs one full pass to index the wedge set for uniform sampling.
// This variant removes that pass entirely:
//
//   1. A hyperwedge is drawn with probability proportional to its weight
//      omega(i,j) = |e_i ∩ e_j| by sampling a node v with probability
//      proportional to C(|E_v|, 2) (alias table, O(|V|) setup) and then a
//      uniform pair of v's incident edges. Summing over shared nodes, the
//      pair {e_i, e_j} is hit with probability omega_ij / W where
//      W = sum_v C(|E_v|, 2) is known exactly.
//   2. Each instance found around the wedge is Horvitz-Thompson weighted
//      by W / (omega_ij * w[t] * r), which makes every per-motif estimate
//      exactly unbiased — no |∧| needed.
//
// As a by-product, |∧| itself is estimated unbiasedly as (1/r) Σ W/omega.
//
// The draws come from one sequential Rng stream, in blocks of
// kWeightedSampleBlock. Each sample's omega and its instances by class
// (the wedge census of motif/stamp_kernels.h) are computed on the pool,
// one NeighborhoodBuilder per worker. The Horvitz-Thompson sums are then
// replayed in sample order, one addition per instance, so the estimate is
// the same bits at every thread count.
#ifndef MOCHY_MOTIF_MOCHY_WEIGHTED_H_
#define MOCHY_MOTIF_MOCHY_WEIGHTED_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "motif/counts.h"

namespace mochy {

/// Samples are drawn and summed in blocks of this many: one block of
/// per-sample censuses is the run's only per-sample memory.
inline constexpr uint64_t kWeightedSampleBlock = 1024;

struct MochyWeightedOptions {
  uint64_t num_samples = 1000;  ///< r — weighted wedge samples
  uint64_t seed = 1;
  /// Per-sample work runs in parallel; 0 means DefaultThreadCount(). The
  /// estimate is bit-identical for any thread count.
  size_t num_threads = 1;
};

struct MochyWeightedResult {
  MotifCounts counts;           ///< unbiased per-motif estimates
  double estimated_num_wedges;  ///< unbiased estimate of |∧|
  uint64_t total_weight;        ///< W = Σ_v C(|E_v|, 2), exact
  /// Workers the per-sample work ran on: the requested count, capped at
  /// the pool size and at one per sample of a block.
  size_t num_threads = 1;
};

/// Runs the projection-free estimator. Fails when the hypergraph has no
/// hyperwedges (no node with degree >= 2).
Result<MochyWeightedResult> CountMotifsWeightedWedge(
    const Hypergraph& graph, const MochyWeightedOptions& options = {});

}  // namespace mochy

#endif  // MOCHY_MOTIF_MOCHY_WEIGHTED_H_
