#include "motif/streaming.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/scratch_arena.h"
#include "common/timer.h"
#include "motif/stamp_kernels.h"

namespace mochy {

std::string StreamingStats::ToString() const {
  char buffer[240];
  const uint64_t updates = arrivals + removals;
  const double rate =
      elapsed_seconds > 0.0 ? static_cast<double>(updates) / elapsed_seconds
                            : 0.0;
  std::snprintf(buffer, sizeof(buffer),
                "arrivals=%llu removals=%llu instances=+%llu/-%llu "
                "wedges=%llu threads=%zu elapsed=%.3fs (%.0f updates/s)",
                static_cast<unsigned long long>(arrivals),
                static_cast<unsigned long long>(removals),
                static_cast<unsigned long long>(new_instances),
                static_cast<unsigned long long>(removed_instances),
                static_cast<unsigned long long>(num_wedges), num_threads,
                elapsed_seconds, rate);
  return buffer;
}

StreamingEngine::StreamingEngine(const StreamingOptions& options)
    : options_(options) {
  resolved_threads_ =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  stats_.num_threads = resolved_threads_;
}

Result<EdgeId> StreamingEngine::AddEdge(std::span<const NodeId> nodes) {
  Timer timer;
  auto added = graph_.AddEdge(nodes);
  if (!added.ok()) return added.status();
  const MotifCounts delta = EnumerateDelta(added.value());
  counts_ += delta;
  stats_.arrivals += 1;
  stats_.new_instances += static_cast<uint64_t>(delta.Total());
  stats_.num_wedges = graph_.num_wedges();
  stats_.elapsed_seconds += timer.Seconds();
  return added;
}

Result<EdgeId> StreamingEngine::AddEdge(std::initializer_list<NodeId> nodes) {
  return AddEdge(std::span<const NodeId>(nodes.begin(), nodes.size()));
}

Status StreamingEngine::RemoveEdge(EdgeId e) {
  Timer timer;
  if (e >= graph_.num_edges() || !graph_.is_live(e)) {
    return Status::InvalidArgument("edge id not live");
  }
  // Enumerate while `e` is still in the graph: the arrival pass lists
  // exactly the instances containing `e`, which — node sets never
  // mutate in place — are exactly the instances the removal destroys.
  // The counts are small integers held in doubles, so the subtraction
  // reverses the earlier additions bit-exactly.
  const MotifCounts delta = EnumerateDelta(e);
  counts_ -= delta;
  Status removed = graph_.RemoveEdge(e);
  MOCHY_DCHECK(removed.ok());
  stats_.removals += 1;
  stats_.removed_instances += static_cast<uint64_t>(delta.Total());
  stats_.num_wedges = graph_.num_wedges();
  stats_.elapsed_seconds += timer.Seconds();
  return removed;
}

void StreamingEngine::Reset() {
  graph_.Clear();
  counts_ = MotifCounts();
  stats_.num_wedges = 0;
}

Status StreamingEngine::Restore(const std::vector<std::vector<NodeId>>& edges,
                                const std::vector<uint8_t>& live,
                                const MotifCounts& counts, uint64_t arrivals,
                                uint64_t removals) {
  if (live.size() != edges.size()) {
    return Status::InvalidArgument(
        "restore: live flags (" + std::to_string(live.size()) +
        ") and edge log (" + std::to_string(edges.size()) + ") disagree");
  }
  Reset();
  // Rebuild the structural state only: add every logged edge in id
  // order (reproducing the original id assignment), then tombstone the
  // dead ones. DynamicHypergraph updates are O(Δ) each, so this is
  // O(graph), while re-deriving the counts would be O(full recount).
  for (size_t e = 0; e < edges.size(); ++e) {
    auto added = graph_.AddEdge(edges[e]);
    if (!added.ok()) {
      return Status::Internal("restore: edge " + std::to_string(e) +
                              " rejected: " + added.status().message());
    }
    if (added.value() != static_cast<EdgeId>(e)) {
      return Status::Internal("restore: edge id mismatch");
    }
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    if (live[e] != 0) continue;
    MOCHY_RETURN_IF_ERROR(graph_.RemoveEdge(static_cast<EdgeId>(e)));
  }
  counts_ = counts;
  stats_.arrivals = arrivals;
  stats_.removals = removals;
  stats_.num_wedges = graph_.num_wedges();
  return Status::OK();
}

// Counts the motif instances containing `e` in the current graph: the
// delta an arrival adds and, symmetrically, the delta a removal subtracts
// (callers apply the sign). `e` must be live.
MotifCounts StreamingEngine::EnumerateDelta(EdgeId e) {
  const auto nbrs = graph_.neighbors(e);
  if (nbrs.empty()) return {};

  // The delta is the core's census of the instances containing e over
  // the live graph (ContainingCensus): the hub-e pair term once, then the
  // range census over N(e), split into chunks (see docs/STREAMING.md).
  // Each executing thread prepares e's hub masks once for the whole
  // update, not per chunk: the pass is O(Δ) and would otherwise be repaid
  // ~16 times per worker. A removal runs this before graph_.RemoveEdge(e),
  // so edges_of() still lists e, and only e among the removed ids.
  auto prepare = [&]() -> const ScratchArena& {
    ScratchArena& arena = internal::ArenaFor(graph_);
    internal::PrepareHubMasks(graph_, e, /*upper_only=*/false,
                              arena.hub_masks);
    return arena;
  };
  const MotifClassifier classify;

  // Estimated delta work: bucketing N(e), then one sweep of each
  // neighbor's adjacency.
  uint64_t estimate = nbrs.size();
  for (const Neighbor& n : nbrs) estimate += graph_.projected_degree(n.edge);
  const size_t workers = estimate >= options_.parallel_work_threshold
                             ? std::min(resolved_threads_, nbrs.size())
                             : 1;

  // ω ≤ |e|, so |e| sizes the buckets for every key of N(e).
  std::vector<internal::PaddedCensus> partial(workers);
  internal::OpenPairBuckets buckets(graph_.edge_size(e));
  internal::ContainingPairCensus(graph_, e, nbrs, buckets, partial[0].n);
  if (workers == 1) {
    internal::ContainingRangeCensus(graph_, classify, e, nbrs, 0, nbrs.size(),
                                    prepare(), partial[0].n);
    return internal::SumCensus(partial);
  }
  std::vector<uint64_t> cost(nbrs.size());
  for (size_t a = 0; a < nbrs.size(); ++a) {
    cost[a] = graph_.projected_degree(nbrs[a].edge) + 1;
  }
  // Claim Σ-cost-balanced chunks with one atomic each (the hub-loop
  // scheduling idiom); the per-worker censuses are integers, so their sum
  // is the same at any thread count.
  const std::vector<size_t> chunks = WorkChunkBoundaries(cost, workers * 16);
  const size_t num_chunks = chunks.size() - 1;
  std::atomic<size_t> next_chunk{0};
  ParallelWorkers(workers, [&](size_t worker) {
    const ScratchArena& arena = prepare();
    while (true) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      internal::ContainingRangeCensus(graph_, classify, e, nbrs, chunks[c],
                                      chunks[c + 1], arena, partial[worker].n);
    }
  });
  return internal::SumCensus(partial);
}

Result<ReplayResult> ReplayTrace(
    const TemporalTrace& trace, const ReplayOptions& options,
    std::function<void(const WindowResult&)> observer) {
  if (options.window_width == 0) {
    return Status::InvalidArgument("window_width must be positive");
  }
  const bool sliding = options.mode == WindowMode::kSliding;
  const uint64_t horizon =
      options.horizon == 0 ? options.window_width : options.horizon;
  if (sliding && horizon < options.window_width) {
    return Status::InvalidArgument(
        "sliding horizon must be at least window_width");
  }
  if (Status s = trace.Validate(); !s.ok()) return s;

  ReplayResult result;
  StreamingEngine engine(options.streaming);
  if (trace.empty()) {
    result.stats = engine.stats();
    return result;
  }

  constexpr uint64_t kMaxTime = std::numeric_limits<uint64_t>::max();
  const uint64_t origin = trace.arrivals.front().time;
  // kSliding: the live edges oldest-first, as (engine edge id, arrival
  // time). Arrival order is time order (Validate), so eviction only
  // ever pops from the front.
  std::deque<std::pair<EdgeId, uint64_t>> live;
  size_t index = 0;
  while (index < trace.size()) {
    // Jump to the grid window containing the next arrival: gaps emit no
    // windows, so replay cost is bounded by the arrival count even when
    // timestamps are sparse (e.g. Unix seconds replayed at width 1).
    const uint64_t k =
        (trace.arrivals[index].time - origin) / options.window_width;
    const uint64_t window_start = origin + k * options.window_width;
    // A window whose exclusive end would pass 2^64-1 saturates and must
    // swallow the remaining arrivals; an end that merely *equals* the
    // max without saturating is a regular boundary.
    const bool saturated = window_start > kMaxTime - options.window_width;
    const uint64_t window_end =
        saturated ? kMaxTime : window_start + options.window_width;
    if (options.mode == WindowMode::kTumbling) engine.Reset();
    uint64_t evictions = 0;
    if (sliding) {
      // Age out everything the closing window must not count: edges
      // older than `horizon` relative to this window's end leave the
      // graph through the decremental pass. Arrivals of this window are
      // never younger than the cutoff (horizon ≥ width), so evicting
      // before ingesting them is equivalent and keeps the deque simple.
      const uint64_t cutoff = window_end >= horizon ? window_end - horizon : 0;
      while (!live.empty() && live.front().second < cutoff) {
        if (Status s = engine.RemoveEdge(live.front().first); !s.ok()) {
          return s;
        }
        live.pop_front();
        ++evictions;
      }
    }
    uint64_t arrivals = 0;
    while (index < trace.size() &&
           (saturated || trace.arrivals[index].time < window_end)) {
      const TimedEdge& arrival = trace.arrivals[index];
      auto added = engine.AddEdge(std::span<const NodeId>(
          arrival.nodes.data(), arrival.nodes.size()));
      if (!added.ok()) return added.status();
      if (sliding) live.emplace_back(added.value(), arrival.time);
      ++arrivals;
      ++index;
    }
    WindowResult window;
    window.start_time = window_start;
    window.end_time = window_end;
    window.arrivals = arrivals;
    window.evictions = evictions;
    window.num_edges = engine.graph().num_live_edges();
    window.counts = engine.counts();
    if (observer) observer(window);
    result.windows.push_back(std::move(window));
  }
  result.stats = engine.stats();
  return result;
}

ShardedStreamingEngine::ShardedStreamingEngine(size_t num_shards,
                                               const StreamingOptions& options)
    : engine_(options) {
  if (num_shards == 0) num_shards = 1;
  for (size_t s = 0; s < num_shards; ++s) shards_.emplace_back();
}

Status ShardedStreamingEngine::Submit(size_t shard,
                                      std::span<const NodeId> nodes) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  Shard& slot = shards_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.staged.emplace_back(nodes.begin(), nodes.end());
  return Status::OK();
}

Status ShardedStreamingEngine::Submit(size_t shard,
                                      std::initializer_list<NodeId> nodes) {
  return Submit(shard, std::span<const NodeId>(nodes.begin(), nodes.size()));
}

// The linearization point of every submitted edge is its AddEdge call
// below: engine_mutex_ is held, so applications are totally ordered,
// and the swap takes each shard's staged log in submission order.
size_t ShardedStreamingEngine::DrainLocked() {
  size_t applied = 0;
  for (Shard& shard : shards_) {
    {
      // Take the whole staged log in one swap so producers only block
      // for the pointer exchange, never for the counting work.
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.draining.swap(shard.staged);
    }
    for (const std::vector<NodeId>& nodes : shard.draining) {
      const MotifCounts before = engine_.counts();
      auto added = engine_.AddEdge(
          std::span<const NodeId>(nodes.data(), nodes.size()));
      if (!added.ok()) {
        dropped_ += 1;
        continue;
      }
      // Record the arrival's exact count delta against the shard so the
      // per-shard vectors stay mergeable: Σ_s delta_s == counts.
      MotifCounts delta = engine_.counts();
      delta -= before;
      shard.delta += delta;
      ++applied;
    }
    shard.draining.clear();
  }
  return applied;
}

size_t ShardedStreamingEngine::Drain() {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  return DrainLocked();
}

MotifCounts ShardedStreamingEngine::Counts() {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  DrainLocked();
  return engine_.counts();
}

MotifCounts ShardedStreamingEngine::ShardDelta(size_t shard) {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  DrainLocked();
  MOCHY_DCHECK(shard < shards_.size());
  if (shard >= shards_.size()) return MotifCounts();
  return shards_[shard].delta;
}

StreamingStats ShardedStreamingEngine::Stats() {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  DrainLocked();
  return engine_.stats();
}

Result<Hypergraph> ShardedStreamingEngine::Snapshot() {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  DrainLocked();
  return engine_.graph().Snapshot();
}

uint64_t ShardedStreamingEngine::dropped_submissions() {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  DrainLocked();
  return dropped_;
}

}  // namespace mochy
