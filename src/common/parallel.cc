#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace mochy {

namespace {

// Set while a thread executes inside a parallel region. Nested regions run
// inline: pool workers must never block waiting for pool capacity.
thread_local bool t_inside_parallel_region = false;

class RegionGuard {
 public:
  RegionGuard() : was_inside_(t_inside_parallel_region) {
    t_inside_parallel_region = true;
  }
  ~RegionGuard() { t_inside_parallel_region = was_inside_; }

 private:
  bool was_inside_;
};

}  // namespace

size_t DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

ThreadPool& SharedThreadPool() {
  // Leaked on purpose: workers must outlive any static whose destructor
  // could still reach a parallel region during teardown.
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

void ParallelWorkers(size_t num_workers,
                     const std::function<void(size_t worker)>& fn) {
  if (num_workers == 0) num_workers = 1;
  if (num_workers == 1 || t_inside_parallel_region) {
    RegionGuard guard;
    for (size_t w = 0; w < num_workers; ++w) fn(w);
    return;
  }
  std::mutex mutex;
  std::condition_variable done;
  size_t remaining = num_workers - 1;
  ThreadPool& pool = SharedThreadPool();
  for (size_t w = 1; w < num_workers; ++w) {
    pool.Submit([&, w] {
      {
        RegionGuard guard;
        fn(w);
      }
      {
        // Notify under the lock: the waiter owns cv/mutex on its stack and
        // may return (destroying both) the moment it can observe
        // remaining == 0, which it can't until this mutex is released.
        std::lock_guard<std::mutex> lock(mutex);
        --remaining;
        done.notify_one();
      }
    });
  }
  {
    RegionGuard guard;
    fn(0);
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

void ParallelBlocks(
    size_t n, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn) {
  if (num_workers == 0) num_workers = 1;
  if (num_workers > n && n > 0) num_workers = n;
  if (num_workers <= 1 || n == 0) {
    fn(0, 0, n);
    return;
  }
  const size_t base = n / num_workers;
  const size_t extra = n % num_workers;
  ParallelWorkers(num_workers, [&](size_t t) {
    const size_t begin = t * base + (t < extra ? t : extra);
    const size_t end = begin + base + (t < extra ? 1 : 0);
    fn(t, begin, end);
  });
}

namespace {

template <typename Cost>
std::vector<size_t> ChunkBoundaries(std::span<const Cost> cost,
                                    size_t num_chunks) {
  const size_t n = cost.size();
  std::vector<size_t> boundaries;
  boundaries.push_back(0);
  if (n == 0) return boundaries;
  if (num_chunks == 0) num_chunks = 1;

  uint64_t total = 0;
  for (const uint64_t c : cost) total += c;
  // Zero-cost items still take a claim to skip; charge them one unit so a
  // long all-zero tail cannot collapse into a single serial chunk. The
  // n/num_chunks floor keeps the chunk count near num_chunks even when
  // most items are zero-cost (otherwise target would collapse to 1 and
  // every item would close its own chunk — per-item claiming again).
  const uint64_t target =
      std::max((total + num_chunks - 1) / num_chunks,
               (static_cast<uint64_t>(n) + num_chunks - 1) / num_chunks);
  const uint64_t effective_target = target == 0 ? 1 : target;

  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += cost[i] == 0 ? 1 : cost[i];
    if (acc >= effective_target) {
      boundaries.push_back(i + 1);
      acc = 0;
    }
  }
  if (boundaries.back() != n) boundaries.push_back(n);
  return boundaries;
}

template <typename Cost>
void RunWorkChunks(
    std::span<const Cost> cost, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn) {
  if (num_workers == 0) num_workers = 1;
  // ~16 claims per worker: fine enough that no worker idles behind a
  // straggler chunk, coarse enough that claiming vanishes from profiles.
  const std::vector<size_t> chunks = ChunkBoundaries(cost, num_workers * 16);
  const size_t num_chunks = chunks.size() - 1;
  std::atomic<size_t> next_chunk{0};
  ParallelWorkers(num_workers, [&](size_t worker) {
    while (true) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      fn(worker, chunks[c], chunks[c + 1]);
    }
  });
}

}  // namespace

std::vector<size_t> WorkChunkBoundaries(std::span<const uint64_t> cost,
                                        size_t num_chunks) {
  return ChunkBoundaries(cost, num_chunks);
}

void ParallelWorkChunks(
    std::span<const uint64_t> cost, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn) {
  RunWorkChunks(cost, num_workers, fn);
}

void ParallelWorkChunks(
    std::span<const uint32_t> cost, size_t num_workers,
    const std::function<void(size_t worker, size_t begin, size_t end)>& fn) {
  RunWorkChunks(cost, num_workers, fn);
}

void ParallelFor(size_t n, size_t num_workers,
                 const std::function<void(size_t i)>& fn, size_t chunk) {
  if (num_workers == 0) num_workers = 1;
  if (chunk == 0) chunk = 1;
  if (num_workers <= 1 || n <= chunk) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  ParallelWorkers(num_workers, [&](size_t) {
    while (true) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = begin + chunk < n ? begin + chunk : n;
      for (size_t i = begin; i < end; ++i) fn(i);
    }
  });
}

}  // namespace mochy
