/// \file
/// MotifEngine: the single entry point for h-motif counting.
///
/// The paper ships three counting algorithms — MoCHy-E (exact,
/// Algorithm 2), MoCHy-A (hyperedge sampling, Algorithm 4) and MoCHy-A+
/// (hyperwedge sampling, Algorithm 5) — and this repo adds MoCHy-A+W
/// (projection-free weighted hyperwedge sampling, motif/mochy_weighted.h).
/// The engine wraps all of them behind one strategy selector so callers
/// (CLI, examples, experiment drivers, services) choose an algorithm with
/// an option instead of a code path, and get uniform run statistics back.
/// Besides the 26 global counts, the engine exposes a second result mode:
/// CountPerEdge() returns the exact per-hyperedge participation rows
/// (Table 4's HM26 features) from the same enumeration kernels.
///
/// \par Engine lifecycle
/// For a single graph, the projection structure is set up once — at
/// engine construction — and reused across any number of Count() calls.
/// What that structure is depends on the ProjectionPolicy: a fully
/// materialized ProjectedGraph (the default), or, for memory-bounded
/// sampling on huge graphs, just the O(|E|) wedge index plus a budgeted
/// lazy-neighborhood memo (see docs/MEMORY.md). When
/// many graphs are counted in one go (batch mode, motif/batch.h), a
/// BatchRunner instead constructs one short-lived engine per item on a
/// worker of the shared pool, so each item's projection lives only while
/// that item is being counted and builds overlap with other items'
/// counting. For a graph that *grows* — a stream of hyperedge
/// arrivals — the sibling StreamingEngine (motif/streaming.h) maintains
/// the same MotifCounts incrementally, O(Δ) per arrival, instead of
/// rebuilding the projection and recounting.
///
/// \par Thread safety
/// A fully constructed MotifEngine is immutable: Count() never mutates
/// engine state, so concurrent Count() calls on one engine are safe. All
/// parallel execution is routed through the shared thread pool
/// (common/parallel); no call here spawns raw threads. The counting
/// kernels draw their scratch (epoch-stamped weight arrays and node sets,
/// common/scratch_arena.h) from each worker's persistent thread-local
/// arena, so repeated Count() calls and batch items reuse grown-to-fit
/// allocations instead of reallocating per run.
///
/// \par Determinism
/// For a fixed (algorithm, seed, sample count), results are bit-identical
/// regardless of num_threads and of whether the run happened alone or
/// inside a batch: exact counting accumulates integers (exactly
/// representable in doubles, so merge order cannot change the sum), and
/// the samplers derive sample n's RNG stream from the seed and n alone,
/// never from the executing worker.
#ifndef MOCHY_MOTIF_ENGINE_H_
#define MOCHY_MOTIF_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"

namespace mochy {

/// Counting strategy.
enum class Algorithm {
  kExact,       ///< MoCHy-E: exact counts
  kEdgeSample,  ///< MoCHy-A: hyperedge sampling (unbiased estimates)
  kLinkSample,  ///< MoCHy-A+: hyperwedge sampling (lower variance than A)
  kWeighted,    ///< MoCHy-A+W: projection-free weighted hyperwedge sampling
  kAuto,        ///< exact on small inputs, MoCHy-A+ beyond a cost budget
};

/// Short stable name used in flags and reports: "exact", "edge-sample",
/// "link-sample", "weighted", "auto".
const char* AlgorithmName(Algorithm algorithm);

/// Inverse of AlgorithmName; also accepts the paper aliases "mochy-e",
/// "mochy-a", "mochy-a+", "mochy-a+w". Errors on anything else.
Result<Algorithm> ParseAlgorithm(std::string_view name);

/// How the engine provides hyperedge neighborhoods to the counting
/// kernels — the memory/speed trade-off of paper Section 3.4. The full
/// memory contract is docs/MEMORY.md.
enum class ProjectionPolicy {
  /// Build the full ProjectedGraph at Create() time: O(|E| + Σ|N_e|)
  /// memory, fastest counting, required by kExact (MoCHy-E).
  kMaterialized,
  /// Never materialize: only the O(|E|) wedge index is precomputed, and
  /// the sampling kernels fetch neighborhoods on demand through a
  /// budgeted, sharded memo (ConcurrentLazyProjection). Estimates are
  /// bit-identical to kMaterialized for the same seed; only statistics
  /// differ. Exact counting is rejected — at Create() when the requested
  /// algorithm resolves to kExact, and at Count() on a lazy engine —
  /// never silently materialized behind the budget.
  kLazy,
  /// Materialize unless the estimated materialized footprint
  /// (EstimateProjectionBytes) exceeds EngineOptions::memory_budget (and
  /// the resolved algorithm is a sampler) — then go lazy. With no budget
  /// (0 = unbounded), always materializes.
  kAuto,
};

/// Short stable name used in flags and reports: "materialized", "lazy",
/// "auto".
const char* ProjectionPolicyName(ProjectionPolicy policy);

/// Inverse of ProjectionPolicyName; also accepts the alias "eager" for
/// kMaterialized. Errors on anything else.
Result<ProjectionPolicy> ParseProjectionPolicy(std::string_view name);

/// Parses a byte count with an optional K/M/G (binary, case-insensitive,
/// optional trailing B) suffix: "268435456", "256M", "1g", "64KB".
/// Errors on anything else; plain "0" is legal (= unbounded budget).
Result<uint64_t> ParseMemoryBudget(std::string_view text);

/// Per-run knobs for MotifEngine::Count.
struct EngineOptions {
  /// Counting strategy; kAuto resolves per input (see ResolveAuto()).
  Algorithm algorithm = Algorithm::kAuto;

  /// Logical workers for counting (and projection building in Create()).
  /// 0 means DefaultThreadCount().
  size_t num_threads = 1;

  /// Sample count for the sampling algorithms (s for MoCHy-A, r for
  /// MoCHy-A+). 0 derives it as sampling_ratio * population, where the
  /// population is |E| (edge sampling) or |∧| (link sampling). Ignored by
  /// kExact.
  uint64_t num_samples = 0;

  /// Used only when num_samples == 0; must then be positive and finite.
  /// Values above 1 oversample the population, which is legal — both
  /// samplers draw with replacement — and lowers estimator variance.
  double sampling_ratio = 0.1;

  /// RNG seed for the sampling algorithms; same seed, sample count and
  /// algorithm => bit-identical estimates, regardless of num_threads
  /// (sample n forks its RNG stream from (seed, n), never from the worker
  /// that happens to process it).
  uint64_t seed = 1;

  /// When true, also evaluates the closed-form estimator variance
  /// (motif/variance, Theorems 2 and 4) and reports the mean relative
  /// variance in EngineStats. Requires enumerating all instances — O(I^2)
  /// pair terms — so this is for small graphs / tests only. Requires a
  /// materialized projection.
  bool estimate_variance = false;

  /// Projection construction policy, read by Create(graph, options):
  /// materialize the projected graph, serve neighborhoods lazily within
  /// `memory_budget`, or pick automatically from the estimated footprint.
  /// Estimates are bit-identical across policies for the same seed;
  /// see docs/MEMORY.md for the contract.
  ProjectionPolicy projection = ProjectionPolicy::kAuto;

  /// Byte budget for projection structure (the unit ParseMemoryBudget
  /// parses). 0 means unbounded: kAuto then always materializes, and
  /// kLazy memoizes without evicting. When positive, kAuto goes lazy as
  /// soon as the estimated materialized footprint exceeds the budget, and
  /// the lazy memo keeps its resident bytes within the budget via the
  /// wedge-admission policy (hypergraph/lazy_projection.h).
  uint64_t memory_budget = 0;

  /// Lazy path only: when non-empty, attaches the disk tier — evicted or
  /// never-admitted neighborhoods are appended to per-shard spill logs
  /// under this directory and re-admitted on touch instead of recomputed
  /// (hypergraph/spill_log.h, docs/STORAGE.md). Counts stay bit-identical
  /// at any budget; only speed and the spill statistics change. Ignored
  /// by materialized engines. Canonicalize() zeroes it like the other
  /// non-result-affecting fields.
  std::string spill_dir;
};

/// Uniform run statistics, filled for every algorithm.
struct EngineStats {
  Algorithm algorithm = Algorithm::kExact;  ///< strategy actually executed
  double elapsed_seconds = 0.0;             ///< counting time (not Create())
  uint64_t samples_used = 0;                ///< 0 for exact counting
  size_t num_threads = 1;                   ///< resolved worker count
  uint64_t num_wedges = 0;                  ///< |∧| of the input
  /// Mean over motifs with a non-zero exact count of
  /// Var[estimate_t] / count_t^2; 0 for exact counting, NaN when
  /// estimate_variance was not requested.
  double relative_variance = 0.0;

  /// Projection policy the engine actually ran with (kAuto resolved).
  ProjectionPolicy projection_policy = ProjectionPolicy::kMaterialized;
  /// Bytes of projection structure resident when the run finished:
  /// the full materialized footprint, or (lazy) memoized neighborhoods
  /// plus the wedge index.
  uint64_t projection_bytes = 0;
  /// High-water projection footprint over the engine's lifetime. Equals
  /// projection_bytes for materialized engines; for lazy engines it is
  /// the summed per-shard memo peak plus the wedge index, which never
  /// exceeds memory_budget + index.
  uint64_t projection_peak_bytes = 0;
  /// Lazy path only: neighborhoods served from the memo during this run.
  uint64_t lazy_memo_hits = 0;
  /// Lazy path only: neighborhoods recomputed from the hypergraph.
  uint64_t lazy_recomputes = 0;
  /// Lazy path only: memoized entries dropped (cumulative over the
  /// engine's lifetime — the memo persists across Count() calls).
  uint64_t lazy_evictions = 0;
  /// lazy_memo_hits / (lazy_memo_hits + lazy_recomputes); 0 when the run
  /// was materialized or touched no neighborhoods. Not deterministic
  /// under concurrency (counts are; see docs/MEMORY.md).
  double lazy_hit_rate = 0.0;
  /// Disk tier only (EngineOptions::spill_dir): neighborhoods appended
  /// to the spill logs, cumulative over the engine's lifetime.
  uint64_t lazy_spills = 0;
  /// Disk tier only: neighborhoods served this run by re-admitting a
  /// spilled record instead of recomputing.
  uint64_t lazy_spill_readmits = 0;
  /// Disk tier only: spill-log reads that failed verification (torn or
  /// corrupt records, injected faults) and fell back to recomputing.
  /// Fallbacks never affect counts — only this counter and speed.
  uint64_t lazy_spill_fallbacks = 0;

  std::string ToString() const;
};

/// Counts plus the statistics of the run that produced them.
struct EngineResult {
  /// Counts (exact) or unbiased estimates (sampling) per h-motif.
  MotifCounts counts;
  /// Uniform run statistics.
  EngineStats stats;
};

/// Per-hyperedge participation counts: rows[e][t-1] = number of
/// h-motif-t instances containing hyperedge e. These are the HM26
/// feature rows of the paper's Table-4 hyperedge-prediction task.
using PerEdgeCounts = std::vector<std::array<double, kNumHMotifs>>;

/// Per-edge rows plus the statistics of the enumeration that produced
/// them.
struct PerEdgeResult {
  /// rows[e][t-1] = instances of motif t containing hyperedge e. Every
  /// instance credits its three member edges, so each column sums to
  /// exactly 3x the global count of that motif.
  PerEdgeCounts rows;
  /// Uniform run statistics (algorithm is always kExact: the rows come
  /// from the exact enumeration).
  EngineStats stats;
};

/// Facade over the MoCHy counting stack: owns the projected graph of one
/// hypergraph and executes any strategy against it. For counting many
/// graphs in one call, see BatchRunner in motif/batch.h.
class MotifEngine {
 public:
  /// Builds the engine of `graph`, which must outlive it; Count() never
  /// mutates the graph, so one engine can serve many calls. The default
  /// options materialize the projected graph on one worker.
  ///
  /// Policy-aware construction: resolves `options.projection` against
  /// `options.memory_budget` and `options.algorithm`. Exact counting
  /// needs the materialized projection, so kAuto falls back to it; an
  /// *explicit* kLazy request combined with a (resolved) kExact
  /// algorithm is rejected with InvalidArgument rather than silently
  /// materializing behind the caller's budget. A lazy engine precomputes
  /// only the O(|E|) wedge index and serves neighborhoods through a
  /// sharded, budgeted memo. Count() calls that later demand what the
  /// resolved policy cannot provide (exact counting or variance
  /// estimation on a lazy engine) are rejected with InvalidArgument.
  ///
  /// Cost note: kAuto with a budget (and kLazy) pays one wedge-index
  /// sweep — the same incidence pass a projection build runs, without
  /// materializing — to make the decision; when kAuto then materializes
  /// anyway, setup costs roughly one extra such sweep over plain
  /// kMaterialized. Pass kMaterialized when you already know it fits.
  static Result<MotifEngine> Create(const Hypergraph& graph,
                                    const EngineOptions& options = {});

  /// Create(graph, options) with only `num_threads` set (0 =
  /// DefaultThreadCount()). perfbench's serve workload still calls this
  /// form; library, tools and tests pass EngineOptions.
  static Result<MotifEngine> Create(const Hypergraph& graph,
                                    size_t num_threads);

  /// Wraps an already-built projection (must match `graph`).
  MotifEngine(const Hypergraph& graph, ProjectedGraph projection);

  /// Movable (the projection is heavy; copying is deliberately disabled).
  MotifEngine(MotifEngine&&) = default;
  /// Move-assignable.
  MotifEngine& operator=(MotifEngine&&) = default;

  /// Counts (kExact) or estimates (sampling strategies) all 26 h-motif
  /// instance counts. Thread-safe: concurrent Count() calls on one engine
  /// are fine — the engine state is read-only except the lazy memo, which
  /// is internally synchronized (and never affects counts, only stats).
  Result<EngineResult> Count(const EngineOptions& options = {}) const;

  /// The per-edge result mode: exact per-hyperedge participation rows
  /// from one parallel pass of the hub primitive the exact counter runs
  /// on (motif/stamp_kernels.h). Only `options.num_threads` is read — the
  /// rows are exact, so there is nothing to sample or seed — and results
  /// are bit-identical at every thread count (rows accumulate integers;
  /// merge order cannot change the sums). Each worker holds one |E|×26
  /// row block, so the worker count is capped at DefaultThreadCount()
  /// (the pool size); stats.num_threads reports the capped count. Requires a materialized projection: rejected with
  /// InvalidArgument on a lazy engine. Thread-safe like Count().
  Result<PerEdgeResult> CountPerEdge(const EngineOptions& options = {}) const;

  /// The wrapped hypergraph.
  const Hypergraph& graph() const { return *graph_; }
  /// The materialized projection. Must not be called on a lazy engine
  /// (check materialized() first); a lazy engine has none by design.
  const ProjectedGraph& projection() const;
  /// Whether this engine holds a full ProjectedGraph (true) or serves
  /// neighborhoods lazily (false).
  bool materialized() const { return materialized_; }
  /// The projection policy this engine resolved to at Create() time.
  ProjectionPolicy projection_policy() const {
    return materialized_ ? ProjectionPolicy::kMaterialized
                         : ProjectionPolicy::kLazy;
  }
  /// |∧| of the input, regardless of policy.
  uint64_t num_wedges() const;

  /// The strategy kAuto resolves to for this input under `options`.
  Algorithm ResolveAuto(const EngineOptions& options) const;

  /// Normalizes `options` to the canonical form two calls share exactly
  /// when Count() is guaranteed to return bit-identical counts for them
  /// on this engine's graph — the equivalence the serve-layer result
  /// cache keys count queries by (serve/query.h serializes the result).
  /// Resolves kAuto to the concrete strategy and a zero num_samples to
  /// the derived sample count, then zeroes every field that cannot
  /// affect results: num_threads (counting is thread-count-invariant),
  /// projection policy and memory_budget (estimates are bit-identical
  /// across policies), sampling_ratio (subsumed by the resolved sample
  /// count), and — for exact counting — seed, samples and
  /// estimate_variance too. The canonical form is itself a valid
  /// argument to Count().
  EngineOptions Canonicalize(const EngineOptions& options) const;

 private:
  explicit MotifEngine(const Hypergraph& graph);

  const Hypergraph* graph_;  // not owned
  ProjectedGraph projection_;  // empty on lazy engines
  // Lazy-engine state: the wedge index (address-stable across engine
  // moves — the memo shards point into it) and the sharded memo.
  std::unique_ptr<ProjectedDegrees> degrees_;
  std::unique_ptr<ConcurrentLazyProjection> lazy_;
  bool materialized_ = true;
  uint64_t exact_cost_ = 0;  // Σ_e |N_e|² — MoCHy-E work estimate (Thm 1)
  uint64_t materialized_bytes_ = 0;  // actual, or (lazy) the estimate
};

}  // namespace mochy

#endif  // MOCHY_MOTIF_ENGINE_H_
