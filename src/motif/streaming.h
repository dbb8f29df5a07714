/// \file
/// StreamingEngine: exact h-motif counts maintained under hyperedge
/// arrivals and removals.
///
/// The static stack (MotifEngine, motif/engine.h) answers "count this
/// graph": it materializes the projection once, then counts in
/// O(Σ_e |N_e|²). A service absorbing a stream of updates needs the
/// complement — "keep the 26-motif count vector of the *current* graph
/// exact after every update" — and recounting per update is O(graph)
/// each time. StreamingEngine maintains the vector in O(Δ) per update
/// instead: hyperedges never change their node set in place, so an
/// arriving edge `e` can only *create* motif instances and a removed
/// edge can only *destroy* instances (every affected instance contains
/// `e`, and no other instance changes class). The engine enumerates
/// exactly those instances via the projected neighborhood that
/// `DynamicHypergraph` (hypergraph/dynamic.h) maintains incrementally —
/// the same enumeration both directions, added on arrival, subtracted
/// on removal. The full delta-counting contract — which triples an
/// update touches, why both directions are exact, the per-update
/// complexity — is documented in docs/STREAMING.md.
///
/// Counts are bit-identical to `reference::CountMotifsExact` /
/// `MotifEngine::Count(kExact)` on a snapshot of the same edge multiset
/// after every arrival and removal — any interleaving — for every
/// thread count (tests/streaming_test.cc). Result types are shared with
/// the static facade: the engine returns the same `MotifCounts`, and
/// `StreamingStats` mirrors `EngineStats`.
///
/// A StreamingEngine is single-writer: calls to AddEdge/RemoveEdge must
/// be externally serialized; reads between updates are safe. For
/// multiple producer threads, use `ShardedStreamingEngine` below.
#ifndef MOCHY_MOTIF_STREAMING_H_
#define MOCHY_MOTIF_STREAMING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "hypergraph/dynamic.h"
#include "hypergraph/temporal_trace.h"
#include "motif/counts.h"

namespace mochy {

/// Knobs for StreamingEngine.
struct StreamingOptions {
  /// Logical workers for the per-arrival delta pass (0 =
  /// DefaultThreadCount()). The pass is parallelized over the arriving
  /// edge's projected neighbors; arrivals with small neighborhoods run
  /// inline regardless, so the stream's common case pays no
  /// synchronization.
  size_t num_threads = 1;

  /// Delta passes whose estimated work (|N(e)| plus the neighbors'
  /// adjacency sizes) is below this run inline even when num_threads
  /// allows more; fan-out only pays off on hub arrivals.
  uint64_t parallel_work_threshold = 1 << 14;
};

/// Cumulative run statistics over every AddEdge/RemoveEdge so far. The
/// streaming counterpart of EngineStats (motif/engine.h).
struct StreamingStats {
  uint64_t arrivals = 0;           ///< AddEdge calls accepted
  uint64_t removals = 0;           ///< RemoveEdge calls accepted
  uint64_t new_instances = 0;      ///< instances added by arrivals
  uint64_t removed_instances = 0;  ///< instances subtracted by removals
  double elapsed_seconds = 0.0;    ///< wall time inside AddEdge/RemoveEdge
  size_t num_threads = 1;          ///< resolved worker budget
  uint64_t num_wedges = 0;         ///< current |∧| of the graph

  /// One-line summary (arrivals, removals, instances, throughput).
  std::string ToString() const;
};

/// Maintains exact 26-motif counts of a fully dynamic hypergraph, one
/// O(Δ) delta pass per arrival or removal.
class StreamingEngine {
 public:
  /// An engine starts empty; feed it with AddEdge (or ReplayTrace).
  explicit StreamingEngine(const StreamingOptions& options = {});

  /// Ingests one hyperedge (any member order, within-edge duplicates
  /// OK) and updates the count vector by enumerating exactly the motif
  /// instances the arrival creates. Returns the new edge's id.
  Result<EdgeId> AddEdge(std::span<const NodeId> nodes);
  /// Convenience overload of AddEdge for brace-list members.
  Result<EdgeId> AddEdge(std::initializer_list<NodeId> nodes);

  /// Removes a live hyperedge and updates the count vector by running
  /// the same delta enumeration in reverse: every instance containing
  /// `e` in the current graph is enumerated and subtracted, then the
  /// edge leaves the graph. Counts afterwards are bit-identical to a
  /// fresh recount of the remaining multiset (integer subtraction is
  /// exact). O(Δ); InvalidArgument for unknown or already removed ids.
  Status RemoveEdge(EdgeId e);

  /// Exact counts of the current graph (valid between updates).
  const MotifCounts& counts() const { return counts_; }

  /// The maintained graph and its incremental projection.
  const DynamicHypergraph& graph() const { return graph_; }

  /// Cumulative statistics over all updates so far.
  const StreamingStats& stats() const { return stats_; }

  /// Drops the graph and counts but keeps options and capacity; used at
  /// tumbling-window boundaries (and reclaims tombstoned id space).
  void Reset();

  /// Adopts a previously captured state (motif/streaming_wal.h): the
  /// edge log — every id ever assigned, including tombstoned ones, in
  /// id order — is replayed through the graph's structural updates only
  /// (no motif delta enumeration; O(graph) instead of O(recount)), and
  /// the count vector is installed verbatim. Afterwards AddEdge /
  /// RemoveEdge continue bit-identically to the engine the state was
  /// captured from: ids resume at the same point, and the restored
  /// graph + counts are exactly what the delta contract needs. The
  /// caller vouches that `counts` are the exact counts of the live
  /// subset of `edges` (the WAL recovery path verifies this via
  /// checksums; tests verify it against reference::CountMotifsExact).
  Status Restore(const std::vector<std::vector<NodeId>>& edges,
                 const std::vector<uint8_t>& live, const MotifCounts& counts,
                 uint64_t arrivals, uint64_t removals);

 private:
  MotifCounts EnumerateDelta(EdgeId e);

  StreamingOptions options_;
  size_t resolved_threads_ = 1;
  DynamicHypergraph graph_;
  MotifCounts counts_;
  StreamingStats stats_;
};

/// How ReplayTrace turns arrival timestamps into emitted count vectors.
enum class WindowMode {
  /// Counts of the cumulative graph at each window close — the evolving
  /// network including everything that arrived so far.
  kCumulative,
  /// The engine resets at each window boundary: counts of each window's
  /// own graph (e.g. one snapshot per year, the paper's Figure 7 setup).
  kTumbling,
  /// True sliding window: arrivals older than `horizon` relative to the
  /// closing window's end are *evicted* through the decremental pass
  /// (StreamingEngine::RemoveEdge) instead of the engine rebuilding.
  /// With horizon == window_width the emitted series is bit-identical
  /// to kTumbling; a larger horizon yields overlapping windows (e.g.
  /// "last 7 days, emitted daily") no rebuild mode can express.
  kSliding,
};

/// Per-window output of ReplayTrace.
struct WindowResult {
  uint64_t start_time = 0;  ///< window start (inclusive)
  uint64_t end_time = 0;    ///< window end (exclusive)
  uint64_t arrivals = 0;    ///< arrivals that fell into this window
  uint64_t evictions = 0;   ///< edges evicted at this close (kSliding)
  size_t num_edges = 0;     ///< live graph size at window close
  /// Exact counts at window close (cumulative, window, or horizon
  /// graph, per WindowMode).
  MotifCounts counts;
};

/// Knobs for ReplayTrace.
struct ReplayOptions {
  /// Per-arrival engine knobs.
  StreamingOptions streaming;
  /// Window width in trace time units. Window boundaries are aligned to
  /// a grid anchored at the first arrival's timestamp; only windows
  /// containing at least one arrival are emitted (so replay cost is
  /// bounded by the arrival count even for sparse timestamps, e.g. Unix
  /// seconds at width 1). During a gap the cumulative counts are those
  /// of the last emitted window.
  uint64_t window_width = 1;
  /// Cumulative (default), tumbling, or sliding windows.
  WindowMode mode = WindowMode::kCumulative;
  /// kSliding only: the age cutoff. At each window close T, edges whose
  /// arrival time is < T - horizon are evicted, so every emitted vector
  /// counts exactly the arrivals of the trailing `horizon` time units.
  /// 0 means window_width; values below window_width are rejected
  /// (arrivals would expire before their own window closed).
  uint64_t horizon = 0;
};

/// Streams a validated trace through a StreamingEngine and emits one
/// count vector per time window. When `observer` is non-empty it is
/// invoked with each WindowResult as the window closes (for live
/// consumers); the full series is also returned.
struct ReplayResult {
  std::vector<WindowResult> windows;  ///< one entry per window, in order
  StreamingStats stats;               ///< aggregate engine statistics
};
Result<ReplayResult> ReplayTrace(
    const TemporalTrace& trace, const ReplayOptions& options = {},
    std::function<void(const WindowResult&)> observer = {});

/// Multi-producer front end over a single StreamingEngine: k producer
/// threads drive one live count vector.
///
/// Producers call Submit(shard, nodes), which appends the edge to the
/// shard's staging log under that shard's own mutex — producers on
/// different shards never contend, and the per-shard slots are
/// cache-line aligned (kCacheLineBytes) so staging writes on one shard
/// cannot invalidate another shard's line. Staged arrivals enter the
/// graph when Drain() runs: it claims the engine mutex once and applies
/// every staged edge through StreamingEngine::AddEdge, shard by shard
/// in index order and in submission order within each shard.
///
/// \par Linearization point
/// A submitted edge takes effect at the moment Drain() applies it to
/// the engine while holding the engine mutex — not at Submit(), which
/// only stages. Every read (Counts, Stats, Snapshot) drains first and
/// reads under the same mutex, so a reader observes a prefix of each
/// shard's submission order, and any edge staged before the read began
/// is included. Because the maintained vector is an exact multiset
/// count, the *values* are independent of how shard orders interleave:
/// after full drains of the same submissions, counts are bit-identical
/// across runs and thread schedules.
///
/// Per-shard contributions stay mergeable: ShardDelta(s) is the sum of
/// the count deltas of the arrivals shard s has applied, and the
/// ShardDelta vectors of all shards sum bit-exactly to Counts() once
/// drained (tests/streaming_test.cc).
class ShardedStreamingEngine {
 public:
  /// `num_shards` staging slots (≥ 1 enforced); producers map to shards
  /// however the caller likes — shard = producer index is typical.
  explicit ShardedStreamingEngine(size_t num_shards,
                                  const StreamingOptions& options = {});

  /// Number of staging shards.
  size_t num_shards() const { return shards_.size(); }

  /// Stages one hyperedge on `shard` (thread-safe per shard and across
  /// shards; same member rules as StreamingEngine::AddEdge). The edge
  /// becomes visible at the next Drain().
  Status Submit(size_t shard, std::span<const NodeId> nodes);
  /// Convenience overload of Submit for brace-list members.
  Status Submit(size_t shard, std::initializer_list<NodeId> nodes);

  /// Applies every staged arrival to the engine (shard index order,
  /// submission order within a shard) and returns how many were
  /// applied. Thread-safe; concurrent drains serialize on the engine
  /// mutex. Malformed staged edges (empty after normalization) are
  /// counted in dropped_submissions() rather than failing the drain.
  size_t Drain();

  /// Drains, then returns the exact counts of everything submitted
  /// before this call (linearizable read).
  MotifCounts Counts();

  /// Drains, then returns shard `s`'s merged contribution: the sum of
  /// count deltas of the arrivals it applied. Σ_s ShardDelta(s) ==
  /// Counts() bit-exactly.
  MotifCounts ShardDelta(size_t shard);

  /// Drains, then returns the engine's cumulative statistics.
  StreamingStats Stats();

  /// Drains, then freezes the current graph (applied arrivals only).
  Result<Hypergraph> Snapshot();

  /// Submissions rejected at application time (e.g. edges with no
  /// member nodes); read under the engine mutex after a drain.
  uint64_t dropped_submissions();

 private:
  struct alignas(kCacheLineBytes) Shard {
    std::mutex mutex;              // guards `staged` only
    std::vector<std::vector<NodeId>> staged;
    // Applied-side state, guarded by engine_mutex_ (not `mutex`):
    MotifCounts delta;             // merged contribution of this shard
    std::vector<std::vector<NodeId>> draining;  // reused swap buffer
  };

  size_t DrainLocked();  // requires engine_mutex_

  std::mutex engine_mutex_;  // guards engine_, dropped_, Shard::delta
  StreamingEngine engine_;
  uint64_t dropped_ = 0;
  // deque: Shard is immovable (mutex); emplace_back never relocates.
  std::deque<Shard> shards_;
};

}  // namespace mochy

#endif  // MOCHY_MOTIF_STREAMING_H_
