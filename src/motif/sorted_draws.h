// The sorted-draw front end of the samplers MoCHy-A and MoCHy-A+ (paper
// Algorithms 4 and 5).
//
// Both draw r samples uniformly with replacement from a population —
// hyperedges for MoCHy-A, hyperwedges for MoCHy-A+ — and sum, over the
// samples, the instances around each. The sum does not depend on the
// order of the samples, so both count them grouped. Each block of up to
// kSampleBlock draws is
//
//  1. drawn, sample n from Rng(seed).Fork(n), so the draws do not depend
//     on the thread count;
//  2. sorted by an LSD radix sort over only the bytes the population
//     needs (RadixSortDraws). Equal draws carry no identity, so this is
//     the std::sort sequence;
//  3. grouped into runs of equal draws (GroupRuns), which the sampler
//     prices with a 32-bit cost each — and may rewrite, as MoCHy-A+ does
//     when it locates each run's hub (GallopHub);
//  4. split into cost-balanced chunks (ParallelWorkChunks), a worker
//     counting each run of its chunk once, times its number of draws.
//
// A census is a sum of integers, so the estimate is identical for any
// thread count and any split. A block holds 20 bytes per draw: the draws
// and a radix scratch buffer of 8 bytes each (the scratch then holds the
// run lengths) and a 4-byte cost.
#ifndef MOCHY_MOTIF_SORTED_DRAWS_H_
#define MOCHY_MOTIF_SORTED_DRAWS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/stamp_kernels.h"

namespace mochy::internal {

/// Draws sorted and counted at a time: bounds a block's buffers at
/// 1.25 MiB whatever r is.
inline constexpr uint64_t kSampleBlock = 65536;

/// Workers of a sampler run: `requested` (0 = DefaultThreadCount()), at
/// most one per pool thread — each may hold |E|-sized scratch — and one
/// per sample.
inline size_t SamplerThreads(size_t requested, uint64_t num_samples) {
  const size_t threads = std::min(
      requested == 0 ? DefaultThreadCount() : requested, DefaultThreadCount());
  return static_cast<size_t>(std::min<uint64_t>(threads, num_samples));
}

/// Sorts `keys`, each below `population`, ascending: an LSD radix sort
/// over the low ⌈log2(population) / 8⌉ bytes, one counting pass per byte
/// that is not the same in every key, ping-ponging with `scratch` (as long
/// as `keys`). Returns the buffer that holds the sorted keys: `keys` or
/// `scratch`.
std::span<uint64_t> RadixSortDraws(std::span<uint64_t> keys,
                                   std::span<uint64_t> scratch,
                                   uint64_t population);

/// Groups the ascending `sorted` into runs of equal keys: run i's key goes
/// to keys[i] and its length to times[i]. `sorted` may be `keys` or
/// `times` itself (RadixSortDraws output). Returns the number of runs.
size_t GroupRuns(std::span<const uint64_t> sorted, std::span<uint64_t> keys,
                 std::span<uint64_t> times);

/// The e with prefix[e] <= k < prefix[e + 1] — upper_bound(prefix, k) − 1
/// — for k < prefix.back() and prefix[from] <= k: gallops forward from
/// `from` in steps of 1, 2, 4, … and binary-searches the last step, in
/// O(log(e − from + 1)). Zero-width entries (hubs without wedges) are
/// skipped like any other. Ascending draws walk the prefix once: r sorted
/// draws over |E| hubs cost O(r log(|E| / r)).
inline size_t GallopHub(std::span<const uint64_t> prefix, size_t from,
                        uint64_t k) {
  MOCHY_DCHECK(from < prefix.size() && prefix[from] <= k &&
               k < prefix.back());
  size_t low = from;  // prefix[low] <= k
  size_t step = 1;
  while (step < prefix.size() - low && prefix[low + step] <= k) {
    low += step;
    step *= 2;
  }
  // prefix[high] > k, or high is the end.
  const size_t high = std::min(prefix.size(), low + step);
  const auto first = prefix.begin() + static_cast<ptrdiff_t>(low);
  const auto it = std::upper_bound(
      first + 1, prefix.begin() + static_cast<ptrdiff_t>(high), k);
  return static_cast<size_t>(it - prefix.begin()) - 1;
}

/// One block's runs of equal draws, ascending by draw. The pricing step
/// sets each run's cost and may rewrite its draw in place, keeping the
/// order the counting step relies on.
struct DrawRuns {
  std::span<uint64_t> draw;
  std::span<const uint64_t> times;  ///< draws of each run
  std::span<uint32_t> cost;

  size_t size() const { return draw.size(); }
  /// Runs [begin, end).
  DrawRuns Slice(size_t begin, size_t end) const {
    return {draw.subspan(begin, end - begin), times.subspan(begin, end - begin),
            cost.subspan(begin, end - begin)};
  }
};

/// `cost` saturated at 32 bits, the width of a run's cost.
inline uint32_t RunCost(uint64_t cost) {
  return static_cast<uint32_t>(std::min<uint64_t>(cost, UINT32_MAX));
}

/// The front end: draws `num_samples` samples from [0, population) in
/// blocks of kSampleBlock, each sorted and grouped into runs (DrawRuns),
/// then calls price(runs) on the calling thread and
/// count(worker, chunk, arena, census) on `num_threads` workers
/// (SamplerThreads) over the runs in cost-balanced chunks, `chunk` a
/// DrawRuns slice, `arena` the worker thread's (ArenaFor(graph)) and
/// `census` the worker's. Returns the summed raw census (slot 0 dropped).
/// population > 0.
template <typename Price, typename Count>
MotifCounts CountSortedDraws(const Hypergraph& graph, uint64_t seed,
                             uint64_t population, uint64_t num_samples,
                             size_t num_threads, Price&& price,
                             Count&& count) {
  const size_t block_size =
      static_cast<size_t>(std::min(num_samples, kSampleBlock));
  std::vector<uint64_t> draws(block_size);
  std::vector<uint64_t> scratch(block_size);
  std::vector<uint32_t> cost(block_size);
  std::vector<PaddedCensus> partial(num_threads);
  const Rng base(seed);
  for (uint64_t first = 0; first < num_samples; first += block_size) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(block_size, num_samples - first));
    const std::span<uint64_t> block(draws.data(), n);
    ParallelBlocks(n, num_threads, [&](size_t, size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        Rng rng = base.Fork(first + s);
        block[s] = rng.UniformInt(population);
      }
    });
    const std::span<uint64_t> times(scratch.data(), n);
    const size_t num_runs =
        GroupRuns(RadixSortDraws(block, times, population), block, times);
    const DrawRuns runs{block.first(num_runs), times.first(num_runs),
                        std::span<uint32_t>(cost).first(num_runs)};
    price(runs);
    ParallelWorkChunks(std::span<const uint32_t>(runs.cost), num_threads,
                       [&](size_t worker, size_t begin, size_t end) {
                         count(worker, runs.Slice(begin, end), ArenaFor(graph),
                               partial[worker].n);
                       });
  }
  return SumCensus(partial);
}

/// Σ|N_e|² / Σ|N_e| over `degree`: the mean degree of a uniform wedge's
/// endpoint, the lazy samplers' estimate of a neighborhood they have not
/// fetched yet. 0 without wedges.
inline uint64_t MeanWedgeDegree(std::span<const uint32_t> degree) {
  uint64_t sum_degree = 0;
  uint64_t sum_degree_sq = 0;
  for (const uint64_t d : degree) {
    sum_degree += d;
    sum_degree_sq += d * d;
  }
  return sum_degree == 0 ? 0 : sum_degree_sq / sum_degree;
}

/// InvalidArgument unless `degrees` is the wedge index of `graph`.
inline Status CheckWedgeIndex(const Hypergraph& graph,
                              const ProjectedDegrees& degrees) {
  if (degrees.wedge_prefix.size() != graph.num_edges() + 1 ||
      degrees.degree.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        "wedge index does not match the hypergraph (prefix for " +
        std::to_string(degrees.wedge_prefix.size()) + " entries, graph has " +
        std::to_string(graph.num_edges()) + " edges)");
  }
  return Status::OK();
}

}  // namespace mochy::internal

#endif  // MOCHY_MOTIF_SORTED_DRAWS_H_
