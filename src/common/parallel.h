// Parallel execution primitives, all routed through one shared ThreadPool.
//
// All parallel algorithms in this library are "embarrassingly parallel over
// a range plus a final merge" (paper Section 3.4). ParallelWorkers is the
// base primitive — it runs a fixed set of logical workers on the shared
// pool — and ParallelBlocks / ParallelFor are range decompositions built on
// top of it. Worker count 1 executes inline, which keeps single-threaded
// runs deterministic and cheap; nested parallel regions also run inline so
// pool workers never block on each other.
#ifndef MOCHY_COMMON_PARALLEL_H_
#define MOCHY_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

namespace mochy {

class ThreadPool;

/// Cache-line size assumed for false-sharing avoidance: per-shard /
/// per-worker state that several threads touch concurrently (e.g. the
/// sharded ingest logs in motif/streaming.h) is aligned to this so one
/// shard's writes never invalidate another shard's line.
inline constexpr size_t kCacheLineBytes = 64;

/// Hardware concurrency, at least 1.
size_t DefaultThreadCount();

/// The process-wide worker pool (DefaultThreadCount() threads, created on
/// first use) that executes every parallel region in the library.
ThreadPool& SharedThreadPool();

/// Runs fn(worker) for worker in [0, num_workers) concurrently: worker 0
/// inline on the calling thread, the rest on the shared pool. Blocking
/// call; `fn` must partition its own work by worker index. More logical
/// workers than pool threads is fine (they queue). Nested calls from
/// inside a parallel region degrade to sequential inline execution.
void ParallelWorkers(size_t num_workers,
                     const std::function<void(size_t worker)>& fn);

/// Runs fn(worker, begin, end) on `num_workers` logical workers, where
/// [begin, end) are disjoint contiguous blocks covering [0, n). Blocks are
/// balanced to within one element. Blocking call.
void ParallelBlocks(
    size_t n, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn);

/// Runs fn(i) for all i in [0, n), dynamically chunked so uneven work per
/// element (e.g. skewed hyperedge degrees) still balances. Blocking call.
void ParallelFor(size_t n, size_t num_workers,
                 const std::function<void(size_t i)>& fn,
                 size_t chunk = 64);

/// Splits [0, cost.size()) into about `num_chunks` contiguous ranges of
/// roughly equal summed cost. Returns the boundaries b_0=0 < ... < b_k=n;
/// chunk c is [b_c, b_c+1). Workers then claim whole chunks with one
/// atomic increment each instead of one per item, which removes the
/// claiming overhead from skewed per-item-cost loops (the MoCHy-E hub loop
/// claims by Σd² work here) while keeping load balance: every chunk holds
/// at most ~total/num_chunks cost plus one item. Items with huge
/// individual cost get a chunk of their own. Always returns at least {0, n}
/// (n > 0), or {0} for an empty range.
std::vector<size_t> WorkChunkBoundaries(std::span<const uint64_t> cost,
                                        size_t num_chunks);

/// Runs fn(worker, begin, end) over cost-balanced chunks of
/// [0, cost.size()): boundaries from WorkChunkBoundaries with ~16 chunks
/// per worker, workers claiming whole chunks with one atomic increment
/// each. The chunked-claiming counterpart of ParallelFor for loops whose
/// per-item cost is known up front (e.g. the MoCHy-E hub loop, cost
/// |N_e|²). Blocking call; num_workers 0 means 1.
void ParallelWorkChunks(
    std::span<const uint64_t> cost, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn);
/// The same over 32-bit costs, for cost vectors as long as their loop.
void ParallelWorkChunks(
    std::span<const uint32_t> cost, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn);

}  // namespace mochy

#endif  // MOCHY_COMMON_PARALLEL_H_
