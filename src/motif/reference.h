/// \file
/// Retained pre-stamp-array counting kernels (the hash-probe baselines)
/// and the per-edge oracle.
///
/// These are the MoCHy-E/A/A+ implementations as they stood before the
/// stamp-array rewrite, and the MoCHy-A+W loop as it stood before the
/// shared enumeration core (motif/stamp_kernels.h): the exact counter
/// probes `ProjectedGraph::Weight` (an open-addressing hash table) once
/// per candidate pair and computes triple intersections with Lemma-2
/// binary searches; the samplers clear their |E|-sized scratch explicitly
/// after every sample. They are kept, verbatim, for two purposes:
///
///  - **differential testing**: the production kernels must stay
///    bit-identical to these on every graph, seed and thread count
///    (tests/kernel_diff_test.cc);
///  - **a measured baseline**: bench/bench_report runs them next to the
///    production kernels so every BENCH_*.json records the speedup of the
///    stamp-array design against the design it replaced.
///
/// They accept the same options structs as the production entry points and
/// follow the same num_threads contract (0 = DefaultThreadCount()). The
/// per-edge oracle, ComputePerEdgeMotifCounts, is the serial full
/// enumeration MotifEngine::CountPerEdge must match row for row.
#ifndef MOCHY_MOTIF_REFERENCE_H_
#define MOCHY_MOTIF_REFERENCE_H_

#include <array>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_weighted.h"
#include "motif/pattern.h"

namespace mochy::reference {

/// MoCHy-E with per-pair hash probes and one atomic claim per hub.
MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads = 1);

/// MoCHy-A with explicitly cleared scratch and per-pair hash probes.
MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options);

/// MoCHy-A+ with explicitly cleared scratch arrays.
MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options);

/// MoCHy-A+W with unsorted dense-counter neighborhoods, two |E|-sized
/// counter arrays per call and Lemma-2 binary-search triple
/// intersections. Same draws, same estimates, bit for bit.
Result<MochyWeightedResult> CountMotifsWeightedWedge(
    const Hypergraph& graph, const MochyWeightedOptions& options = {});

/// Per-hyperedge participation rows by serial full enumeration:
/// row[e][t-1] = number of h-motif-t instances containing hyperedge e.
/// Every instance contributes to the rows of its three member hyperedges.
std::vector<std::array<double, kNumHMotifs>> ComputePerEdgeMotifCounts(
    const Hypergraph& graph, const ProjectedGraph& projection);

}  // namespace mochy::reference

#endif  // MOCHY_MOTIF_REFERENCE_H_
