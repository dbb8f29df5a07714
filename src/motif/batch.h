/// \file
/// Batched multi-graph h-motif counting on one shared thread pool.
///
/// A characteristic profile needs counts for the real hypergraph plus five
/// or more null-model randomizations; parameter sweeps need many seeds or
/// sample budgets of one graph. Running a separate MotifEngine per graph
/// serializes the projection builds and leaves workers idle between runs.
/// BatchRunner instead feeds every item — optionally including the null
/// graph *generation* — through one work queue on the shared thread pool,
/// so projection builds of later items overlap with the counting of
/// earlier ones and per-item statistics are gathered in one place.
///
/// \par Determinism
/// Batched results are bit-identical to running one MotifEngine per graph
/// sequentially with the same per-item options: every counting strategy is
/// seed-deterministic regardless of worker count (see motif/engine.h), and
/// the batch never changes an item's seed or sample count.
///
/// \par Thread safety
/// A BatchRunner is not thread-safe; build and Run() it from one thread.
/// Run() itself fans out over the shared pool internally and may be called
/// repeatedly (items are retained).
///
/// \par Scratch reuse
/// The counting kernels take their scratch from per-thread arenas
/// (common/scratch_arena.h) that live as long as the pool workers, so
/// consecutive batch items on one worker reuse the same stamp arrays —
/// no per-item scratch allocation, only an O(1) epoch bump.
#ifndef MOCHY_MOTIF_BATCH_H_
#define MOCHY_MOTIF_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "motif/engine.h"

namespace mochy {

/// One unit of batched work: a hypergraph to count plus the EngineOptions
/// to count it with. Exactly one of `graph` / `make` is set: `graph`
/// borrows an existing hypergraph (it must outlive the Run() call), while
/// `make` generates one on a batch worker — this is how null-model
/// generation is overlapped with counting.
struct BatchItem {
  /// Borrowed input graph; nullptr when `make` is set.
  const Hypergraph* graph = nullptr;
  /// Generator for an owned input graph; empty when `graph` is set. A
  /// failed generation is reported in the item's BatchItemResult::status.
  std::function<Result<Hypergraph>()> make;
  /// Per-item strategy, seed, sample budget, projection policy and memory
  /// budget, … (engine.h). Projection policy, memory budget and spill_dir
  /// are forwarded per item — one batch can mix materialized and
  /// memory-bounded lazy items (several lazy items may share one
  /// spill_dir; each engine's logs are uniquely named scratch), and each
  /// lazy item's EngineStats carries its hit rate, resident bytes and
  /// spill/readmit counters. The batch scheduler owns the thread
  /// budget, so `options.num_threads` is overridden: 1 when the batch
  /// parallelizes across items, the full BatchOptions::num_threads budget
  /// when items run inline (single item, single worker, or far more
  /// workers than items).
  EngineOptions options;
  /// Caller-chosen tag echoed back in BatchItemResult::label.
  std::string label;
};

/// Outcome of one BatchItem. `counts` and `stats` are meaningful only when
/// `status.ok()`.
struct BatchItemResult {
  /// Per-item error (generation, projection build, or counting). A failed
  /// item never poisons the batch: all other items still run and report.
  Status status = Status::OK();
  /// Counts or estimates of all 26 h-motifs.
  MotifCounts counts;
  /// Uniform per-run statistics from the engine (strategy, elapsed, …).
  EngineStats stats;
  /// Seconds spent generating the graph (0 for borrowed graphs).
  double generate_seconds = 0.0;
  /// Seconds spent building the projected graph for this item.
  double projection_seconds = 0.0;
  /// Echo of BatchItem::label.
  std::string label;
};

/// Aggregate statistics over one Run() call.
struct BatchStats {
  /// Number of items in the batch.
  size_t num_items = 0;
  /// Items whose BatchItemResult::status is not OK.
  size_t num_failed = 0;
  /// Batch-level workers used; 1 when items ran inline (sequentially,
  /// each with intra-graph parallelism) instead of item-parallel.
  size_t num_threads = 1;
  /// Wall-clock seconds for the whole Run() call.
  double elapsed_seconds = 0.0;
  /// Sum over items of generate + projection + counting seconds.
  double busy_seconds = 0.0;
  /// busy_seconds / (elapsed_seconds * num_threads) — fraction of the
  /// worker-seconds the batch kept busy; 0 when elapsed is 0.
  double pool_utilization = 0.0;

  /// One-line summary ("items=6 failed=0 threads=4 elapsed=0.8s ...").
  std::string ToString() const;
};

/// Results of a Run() call, in the order the items were added.
struct BatchResult {
  /// Per-item outcomes, index-aligned with the Add() calls.
  std::vector<BatchItemResult> items;
  /// Aggregate batch statistics.
  BatchStats stats;

  /// True when every item succeeded.
  bool all_ok() const { return stats.num_failed == 0; }
  /// The first non-OK item status, or OK when all_ok().
  Status first_error() const;
};

/// Knobs shared by the whole batch.
struct BatchOptions {
  /// Worker budget for the batch; 0 means DefaultThreadCount().
  size_t num_threads = 0;
  /// Process items longest-first (estimated by pin count) so a large
  /// trailing item cannot straggle the batch. Results keep Add() order
  /// regardless; disable to process in Add() order.
  bool longest_first = true;
};

/// Counts many hypergraphs in one call on the shared thread pool.
///
/// Usage:
/// \code
///   BatchRunner runner(BatchOptions{.num_threads = 8});
///   runner.Add(real_graph, options, "real");
///   runner.AddGenerated([&] { return GenerateChungLu(real_graph, cl); },
///                       options, "null-0");
///   BatchResult result = runner.Run();
/// \endcode
class BatchRunner {
 public:
  /// Creates an empty batch with the given shared knobs.
  explicit BatchRunner(BatchOptions options = {});

  /// Adds a borrowed graph; it must outlive Run(). Returns the item index.
  size_t Add(const Hypergraph& graph, EngineOptions options = {},
             std::string label = {});

  /// Adds a generated graph: `make` runs on a batch worker, so generation
  /// overlaps with other items' counting. Returns the item index.
  size_t AddGenerated(std::function<Result<Hypergraph>()> make,
                      EngineOptions options = {}, std::string label = {});

  /// Number of items added so far.
  size_t size() const { return items_.size(); }

  /// Runs every item and blocks until all finish. Per-item failures are
  /// reported in BatchItemResult::status; Run() itself never fails.
  BatchResult Run() const;

 private:
  BatchOptions options_;
  std::vector<BatchItem> items_;
};

/// Convenience wrapper: one Run() over `graphs`, all counted with the same
/// `options`. Item i borrows graphs[i] (no nulls allowed).
BatchResult CountBatch(const std::vector<const Hypergraph*>& graphs,
                       const EngineOptions& options = {},
                       const BatchOptions& batch_options = {});

}  // namespace mochy

#endif  // MOCHY_MOTIF_BATCH_H_
