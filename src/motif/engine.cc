#include "motif/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/mochy_weighted.h"
#include "motif/stamp_kernels.h"
#include "motif/variance.h"

namespace mochy {

namespace {

// kAuto switches from MoCHy-E to MoCHy-A+ once the exact work estimate
// Σ_e |N_e|² (Theorem 1, dominating term) exceeds this many region
// evaluations. MoCHy-E no longer runs that pair loop, so the estimate is
// now high; it is kept so that kAuto's choices do not change.
constexpr uint64_t kAutoExactCostLimit = 50'000'000;

uint64_t ResolveSamples(const EngineOptions& options, uint64_t population) {
  if (options.num_samples > 0) return options.num_samples;
  const double derived =
      options.sampling_ratio * static_cast<double>(population);
  return derived < 1.0 ? 1 : static_cast<uint64_t>(derived);
}

/// Mean over motifs with a non-zero exact count of Var[est] / count².
double MeanRelativeVariance(const VarianceTerms& terms, Algorithm algorithm,
                            uint64_t samples, uint64_t num_edges,
                            uint64_t num_wedges) {
  double sum = 0.0;
  int nonzero = 0;
  for (int t = 1; t <= kNumHMotifs; ++t) {
    const double count = terms.counts[t];
    if (count <= 0.0) continue;
    const double var =
        algorithm == Algorithm::kEdgeSample
            ? MochyAVariance(terms, t, samples, num_edges)
            : MochyAPlusVariance(terms, t, samples, num_wedges);
    sum += var / (count * count);
    ++nonzero;
  }
  return nonzero == 0 ? 0.0 : sum / nonzero;
}

/// The materialized engine: builds the full projected graph of `graph` on
/// `num_threads` (resolved, ≥ 1) workers and wraps both.
Result<MotifEngine> Materialize(const Hypergraph& graph, size_t num_threads) {
  auto projection = ProjectedGraph::Build(graph, num_threads);
  if (!projection.ok()) return projection.status();
  return MotifEngine(graph, std::move(projection).value());
}

}  // namespace

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kExact:
      return "exact";
    case Algorithm::kEdgeSample:
      return "edge-sample";
    case Algorithm::kLinkSample:
      return "link-sample";
    case Algorithm::kWeighted:
      return "weighted";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(std::string_view name) {
  if (name == "exact" || name == "mochy-e") return Algorithm::kExact;
  if (name == "edge-sample" || name == "mochy-a") return Algorithm::kEdgeSample;
  if (name == "link-sample" || name == "mochy-a+") {
    return Algorithm::kLinkSample;
  }
  if (name == "weighted" || name == "mochy-a+w") return Algorithm::kWeighted;
  if (name == "auto") return Algorithm::kAuto;
  return Status::InvalidArgument(
      "unknown algorithm '" + std::string(name) +
      "' (want exact|edge-sample|link-sample|weighted|auto)");
}

const char* ProjectionPolicyName(ProjectionPolicy policy) {
  switch (policy) {
    case ProjectionPolicy::kMaterialized:
      return "materialized";
    case ProjectionPolicy::kLazy:
      return "lazy";
    case ProjectionPolicy::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<ProjectionPolicy> ParseProjectionPolicy(std::string_view name) {
  if (name == "materialized" || name == "eager") {
    return ProjectionPolicy::kMaterialized;
  }
  if (name == "lazy") return ProjectionPolicy::kLazy;
  if (name == "auto") return ProjectionPolicy::kAuto;
  return Status::InvalidArgument("unknown projection policy '" +
                                 std::string(name) +
                                 "' (want materialized|lazy|auto)");
}

Result<uint64_t> ParseMemoryBudget(std::string_view text) {
  const auto fail = [&] {
    return Status::InvalidArgument(
        "cannot parse memory budget '" + std::string(text) +
        "' (want bytes with an optional K/M/G suffix, e.g. 256M)");
  };
  if (text.empty()) return fail();
  uint64_t value = 0;
  size_t i = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') break;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return fail();  // overflow
    value = value * 10 + digit;
  }
  if (i == 0) return fail();  // no digits
  uint64_t shift = 0;
  if (i < text.size()) {
    switch (text[i]) {
      case 'k':
      case 'K':
        shift = 10;
        break;
      case 'm':
      case 'M':
        shift = 20;
        break;
      case 'g':
      case 'G':
        shift = 30;
        break;
      default:
        return fail();
    }
    ++i;
    if (i < text.size() && (text[i] == 'b' || text[i] == 'B')) ++i;
  }
  if (i != text.size()) return fail();  // trailing junk
  if (shift > 0 && value > (UINT64_MAX >> shift)) return fail();
  return value << shift;
}

std::string EngineStats::ToString() const {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "algorithm=%s threads=%zu samples=%llu wedges=%llu elapsed=%.3fs",
      AlgorithmName(algorithm), num_threads,
      static_cast<unsigned long long>(samples_used),
      static_cast<unsigned long long>(num_wedges), elapsed_seconds);
  std::string text = buffer;
  if (projection_policy == ProjectionPolicy::kLazy) {
    std::snprintf(buffer, sizeof(buffer),
                  " projection=lazy hit-rate=%.2f recomputes=%llu "
                  "resident=%.1fMB",
                  lazy_hit_rate,
                  static_cast<unsigned long long>(lazy_recomputes),
                  static_cast<double>(projection_bytes) / 1048576.0);
    text += buffer;
    if (lazy_spills > 0 || lazy_spill_readmits > 0 ||
        lazy_spill_fallbacks > 0) {
      std::snprintf(buffer, sizeof(buffer),
                    " spills=%llu readmits=%llu spill-fallbacks=%llu",
                    static_cast<unsigned long long>(lazy_spills),
                    static_cast<unsigned long long>(lazy_spill_readmits),
                    static_cast<unsigned long long>(lazy_spill_fallbacks));
      text += buffer;
    }
  }
  return text;
}

Result<MotifEngine> MotifEngine::Create(const Hypergraph& graph,
                                        size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  return Create(graph, options);
}

Result<MotifEngine> MotifEngine::Create(const Hypergraph& graph,
                                        const EngineOptions& options) {
  const size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  // kAuto with no budget always materializes, so only the remaining
  // cases pay for the wedge-index pass below.
  if (options.projection == ProjectionPolicy::kMaterialized ||
      (options.projection == ProjectionPolicy::kAuto &&
       options.memory_budget == 0)) {
    return Materialize(graph, num_threads);
  }

  // The lazy-vs-materialized decision needs only the wedge index — an
  // O(|E|)-memory pass that also yields the Theorem-1 exact-cost
  // estimate for kAuto algorithm resolution.
  ProjectedDegrees degrees = ComputeProjectedDegrees(graph, num_threads);
  uint64_t exact_cost = 0;
  for (uint32_t d : degrees.degree) {
    exact_cost += static_cast<uint64_t>(d) * d;
  }
  Algorithm algorithm = options.algorithm;
  if (algorithm == Algorithm::kAuto) {
    algorithm = (degrees.num_wedges == 0 || exact_cost <= kAutoExactCostLimit)
                    ? Algorithm::kExact
                    : Algorithm::kLinkSample;
  }

  // Exact counting (MoCHy-E) runs on the materialized structure only.
  // kAuto falls back to it (the documented resolution, docs/MEMORY.md);
  // an *explicit* kLazy request must not silently materialize behind the
  // caller's memory budget, so it errors instead — consistently with
  // Count()'s rejection of kExact on a lazy engine.
  if (algorithm == Algorithm::kExact) {
    if (options.projection == ProjectionPolicy::kLazy) {
      return Status::InvalidArgument(
          "ProjectionPolicy::kLazy cannot serve exact counting (MoCHy-E "
          "needs the materialized projection, which would ignore the "
          "memory budget); pick a sampling algorithm, or use kAuto / "
          "kMaterialized");
    }
    return Materialize(graph, num_threads);
  }

  const uint64_t estimate = EstimateProjectionBytes(degrees);
  const bool lazy =
      options.projection == ProjectionPolicy::kLazy ||
      (options.memory_budget > 0 && estimate > options.memory_budget);
  if (!lazy) return Materialize(graph, num_threads);

  MotifEngine engine(graph);
  engine.materialized_ = false;
  engine.exact_cost_ = exact_cost;
  engine.materialized_bytes_ = estimate;
  engine.degrees_ = std::make_unique<ProjectedDegrees>(std::move(degrees));
  LazyProjectionOptions lazy_options;
  lazy_options.memory_budget_bytes =
      options.memory_budget == 0 ? UINT64_MAX : options.memory_budget;
  lazy_options.spill_dir = options.spill_dir;
  auto memo = ConcurrentLazyProjection::Create(graph, *engine.degrees_,
                                               lazy_options);
  if (!memo.ok()) return memo.status();
  engine.lazy_ = std::move(memo).value();
  return engine;
}

MotifEngine::MotifEngine(const Hypergraph& graph) : graph_(&graph) {}

MotifEngine::MotifEngine(const Hypergraph& graph, ProjectedGraph projection)
    : graph_(&graph), projection_(std::move(projection)) {
  MOCHY_CHECK(projection_.num_edges() == graph.num_edges())
      << "projection does not match hypergraph";
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const uint64_t degree = projection_.degree(e);
    exact_cost_ += degree * degree;
  }
  materialized_bytes_ = projection_.MemoryBytes();
}

const ProjectedGraph& MotifEngine::projection() const {
  MOCHY_CHECK(materialized_)
      << "projection() called on a lazy engine (no materialized projection)";
  return projection_;
}

uint64_t MotifEngine::num_wedges() const {
  return materialized_ ? projection_.num_wedges() : degrees_->num_wedges;
}

Algorithm MotifEngine::ResolveAuto(const EngineOptions& options) const {
  if (options.algorithm != Algorithm::kAuto) return options.algorithm;
  if (num_wedges() == 0) return Algorithm::kExact;
  return exact_cost_ <= kAutoExactCostLimit ? Algorithm::kExact
                                            : Algorithm::kLinkSample;
}

EngineOptions MotifEngine::Canonicalize(const EngineOptions& options) const {
  EngineOptions canonical;
  canonical.algorithm = ResolveAuto(options);
  canonical.num_threads = 0;
  canonical.projection = ProjectionPolicy::kAuto;
  canonical.memory_budget = 0;
  canonical.spill_dir.clear();  // disk tier never affects counts
  canonical.sampling_ratio = 0.0;
  if (canonical.algorithm == Algorithm::kExact) {
    // Exact counting ignores the sampling knobs, and its closed-form
    // relative variance is identically 0 — none of these can change what
    // Count() returns.
    canonical.num_samples = 0;
    canonical.seed = 0;
    canonical.estimate_variance = false;
  } else {
    const uint64_t population = canonical.algorithm == Algorithm::kEdgeSample
                                    ? graph_->num_edges()
                                    : num_wedges();
    canonical.num_samples = ResolveSamples(options, population);
    canonical.seed = options.seed;
    // kWeighted has no closed-form variance (Count() rejects the flag),
    // so the canonical form pins it to the only value Count() accepts.
    canonical.estimate_variance = canonical.algorithm == Algorithm::kWeighted
                                      ? false
                                      : options.estimate_variance;
  }
  return canonical;
}

Result<EngineResult> MotifEngine::Count(const EngineOptions& options) const {
  const Algorithm algorithm = ResolveAuto(options);
  // The ratio only matters when a sampling strategy actually derives its
  // sample count from it; exact counting ignores both knobs.
  if (algorithm != Algorithm::kExact && options.num_samples == 0 &&
      (!(options.sampling_ratio > 0.0) ||
       !std::isfinite(options.sampling_ratio))) {
    return Status::InvalidArgument(
        "sampling_ratio must be positive and finite when num_samples is 0");
  }
  if (!materialized_ && algorithm == Algorithm::kExact) {
    return Status::InvalidArgument(
        "exact counting (MoCHy-E) needs a materialized projection, but this "
        "engine was created with ProjectionPolicy::kLazy; recreate it with "
        "kMaterialized (or kAuto, which falls back for exact counting)");
  }
  if (!materialized_ && options.estimate_variance) {
    return Status::InvalidArgument(
        "estimate_variance enumerates all instances over the materialized "
        "projection; not available on a lazy engine");
  }
  if (algorithm == Algorithm::kWeighted && options.estimate_variance) {
    return Status::InvalidArgument(
        "estimate_variance covers the MoCHy-A/A+ closed forms (Theorems 2 "
        "and 4); the weighted estimator has none — drop the flag");
  }
  const size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;

  EngineResult result;
  result.stats.algorithm = algorithm;
  result.stats.num_threads = num_threads;
  result.stats.num_wedges = num_wedges();
  result.stats.relative_variance = std::numeric_limits<double>::quiet_NaN();
  result.stats.projection_policy = projection_policy();

  LazyProjection::Stats lazy_stats;
  Timer timer;
  switch (algorithm) {
    case Algorithm::kExact: {
      result.counts = CountMotifsExact(*graph_, projection_, num_threads);
      result.stats.relative_variance = 0.0;
      break;
    }
    case Algorithm::kEdgeSample: {
      MochyAOptions sampler;
      sampler.num_samples = ResolveSamples(options, graph_->num_edges());
      sampler.seed = options.seed;
      sampler.num_threads = num_threads;
      if (materialized_) {
        result.counts = CountMotifsEdgeSample(*graph_, projection_, sampler);
      } else {
        auto counts =
            CountMotifsEdgeSampleLazy(*graph_, *degrees_, *lazy_, sampler,
                                      &lazy_stats);
        if (!counts.ok()) return counts.status();
        result.counts = std::move(counts).value();
      }
      result.stats.samples_used = sampler.num_samples;
      break;
    }
    case Algorithm::kLinkSample: {
      MochyAPlusOptions sampler;
      sampler.num_samples = ResolveSamples(options, num_wedges());
      sampler.seed = options.seed;
      sampler.num_threads = num_threads;
      if (materialized_) {
        result.counts = CountMotifsWedgeSample(*graph_, projection_, sampler);
      } else {
        auto counts = CountMotifsWedgeSampleLazy(*graph_, *degrees_, *lazy_,
                                                 sampler, &lazy_stats);
        if (!counts.ok()) return counts.status();
        result.counts = std::move(counts).value();
      }
      result.stats.samples_used = sampler.num_samples;
      break;
    }
    case Algorithm::kWeighted: {
      // Projection-free, so it runs on lazy engines too. Draws are one
      // sequential stream and the per-sample work runs on the pool; stats
      // report the workers it ran on (1 when there is nothing to draw).
      MochyWeightedOptions sampler;
      sampler.num_samples = ResolveSamples(options, num_wedges());
      sampler.seed = options.seed;
      sampler.num_threads = num_threads;
      result.stats.num_threads = 1;
      result.stats.samples_used = sampler.num_samples;
      if (num_wedges() > 0) {
        auto weighted = CountMotifsWeightedWedge(*graph_, sampler);
        if (!weighted.ok()) return weighted.status();
        result.counts = weighted.value().counts;
        result.stats.num_threads = weighted.value().num_threads;
      }
      // No hyperwedges means no instances: the zero vector is exact, the
      // same answer every other strategy returns on such inputs.
      break;
    }
    case Algorithm::kAuto:
      return Status::Internal("kAuto survived ResolveAuto");
  }
  result.stats.elapsed_seconds = timer.Seconds();

  if (materialized_) {
    result.stats.projection_bytes = materialized_bytes_;
    result.stats.projection_peak_bytes = materialized_bytes_;
  } else {
    const uint64_t index_bytes = degrees_->MemoryBytes();
    result.stats.projection_bytes = lazy_stats.bytes_used + index_bytes;
    result.stats.projection_peak_bytes = lazy_stats.peak_bytes + index_bytes;
    result.stats.lazy_memo_hits = lazy_stats.memo_hits;
    result.stats.lazy_recomputes = lazy_stats.computations;
    result.stats.lazy_evictions = lazy_stats.evictions;
    result.stats.lazy_hit_rate = lazy_stats.HitRate();
    result.stats.lazy_spills = lazy_stats.spills;
    result.stats.lazy_spill_readmits = lazy_stats.spill_readmits;
    result.stats.lazy_spill_fallbacks = lazy_stats.spill_fallbacks;
  }

  if (options.estimate_variance && algorithm != Algorithm::kExact &&
      result.stats.samples_used > 0) {
    const VarianceTerms terms = ComputeVarianceTerms(*graph_, projection_);
    result.stats.relative_variance = MeanRelativeVariance(
        terms, algorithm, result.stats.samples_used, graph_->num_edges(),
        projection_.num_wedges());
  }
  return result;
}

Result<PerEdgeResult> MotifEngine::CountPerEdge(
    const EngineOptions& options) const {
  if (!materialized_) {
    return Status::InvalidArgument(
        "per-edge counts enumerate all instances over the materialized "
        "projection, but this engine was created with "
        "ProjectionPolicy::kLazy; recreate it with kMaterialized (or kAuto)");
  }
  // One |E|×26 row block per worker: size the blocks by the workers that
  // can actually run (at most the pool), not by the request, so a huge
  // threads= cannot allocate a block per phantom thread.
  const size_t num_threads = std::min(
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads,
      DefaultThreadCount());

  PerEdgeResult result;
  result.stats.algorithm = Algorithm::kExact;
  result.stats.num_threads = num_threads;
  result.stats.num_wedges = num_wedges();
  result.stats.relative_variance = 0.0;
  result.stats.projection_policy = ProjectionPolicy::kMaterialized;

  Timer timer;
  const size_t num_edges = graph_->num_edges();
  // Each instance credits its three member edges, through the same two
  // parts as CountMotifsExact: at hub e_i, row i takes every pair of N(e_i)
  // by its as-if-open class and each neighbor e_j the classes of its own
  // pairs (one vector per key); each closed triple then adds its class
  // minus its three as-if-open classes to its three rows. Every increment
  // and partial sum is an integer below 2^53, exact in a double, so the
  // merge below is bit-identical in any order and at any thread count —
  // and the worker rows can be PerEdgeCounts, the result type, themselves.
  using OpenRow = std::array<double, kNumOpenMotifs>;  // ids 17-22
  std::vector<PerEdgeCounts> partial(
      num_threads, PerEdgeCounts(num_edges, std::array<double, kNumHMotifs>{}));
  std::vector<std::vector<OpenRow>> key_rows(num_threads);
  internal::ForEachHubClassParallel(
      *graph_, projection_, num_threads,
      [&](size_t worker, EdgeId ei, const internal::OpenPairBuckets& buckets) {
        PerEdgeCounts& rows = partial[worker];
        std::vector<OpenRow>& by_key = key_rows[worker];
        by_key.assign(buckets.num_keys(), OpenRow{});
        buckets.ForEachKeyPair([&](size_t a, size_t b, uint64_t pairs, int id) {
          if (id == 0) return;
          MOCHY_DCHECK(IsOpenMotif(id));
          rows[ei][id - 1] += static_cast<double>(pairs);
          const int slot = id - kFirstOpenMotif;
          by_key[a][slot] += static_cast<double>(buckets.count(b) - (a == b));
          if (a != b) by_key[b][slot] += static_cast<double>(buckets.count(a));
        });
        const auto nbrs = projection_.neighbors(ei);
        for (size_t p = 0; p < nbrs.size(); ++p) {
          const OpenRow& add = by_key[buckets.key_index(p)];
          auto& row = rows[nbrs[p].edge];
          for (int slot = 0; slot < kNumOpenMotifs; ++slot) {
            row[kFirstOpenMotif - 1 + slot] += add[slot];
          }
        }
      },
      [&partial](size_t worker, EdgeId ei, EdgeId ej, EdgeId ek, int id,
                 int open_i, int open_j, int open_k) {
        PerEdgeCounts& rows = partial[worker];
        for (EdgeId e : {ei, ej, ek}) {
          auto& row = rows[e];
          if (id != 0) row[id - 1] += 1.0;
          for (int open : {open_i, open_j, open_k}) {
            if (open != 0) row[open - 1] -= 1.0;
          }
        }
      });
  result.rows = std::move(partial[0]);
  for (size_t t = 1; t < num_threads; ++t) {
    for (size_t e = 0; e < num_edges; ++e) {
      for (int m = 0; m < kNumHMotifs; ++m) {
        result.rows[e][m] += partial[t][e][m];
      }
    }
  }
  result.stats.elapsed_seconds = timer.Seconds();
  result.stats.projection_bytes = materialized_bytes_;
  result.stats.projection_peak_bytes = materialized_bytes_;
  return result;
}

}  // namespace mochy
