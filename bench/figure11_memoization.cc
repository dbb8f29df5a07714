// Regenerates Figure 11: memory-bounded MoCHy-A+ under different
// memoization budgets — now running through the engine's projection
// policy (ProjectionPolicy::kLazy + EngineOptions::memory_budget) — plus
// the raw eviction-policy ablation DESIGN.md calls out.
//
// Paper shape to verify: speed rises with the memo budget, the lazy path
// never materializes the full projection (peak projection bytes stay
// within the budget), and estimates are bit-identical to the materialized
// engine for the same seed. Exits 1 on any divergence.
#include <cinttypes>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "hypergraph/lazy_projection.h"
#include "motif/engine.h"
#include "motif/mochy_aplus.h"

int main() {
  using namespace mochy;
  bench::PrintHeader(
      "Figure 11: memory-bounded MoCHy-A+ — engine projection policy + "
      "eviction ablation");

  GeneratorConfig config =
      DefaultConfig(Domain::kThreads, bench::BenchScale(0.35));
  config.seed = 5;
  const Hypergraph graph = GenerateDomainHypergraph(config).value();

  // Materialized reference: the engine default, full projection resident.
  EngineOptions build;
  build.num_threads = 2;
  const MotifEngine eager = MotifEngine::Create(graph, build).value();
  const uint64_t full_bytes = eager.projection().MemoryBytes();

  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.num_samples =
      std::max<uint64_t>(1, eager.projection().num_wedges() / 10);
  options.seed = 3;
  options.num_threads = 2;

  Timer eager_timer;
  const EngineResult reference = eager.Count(options).value();
  const double eager_seconds = eager_timer.Seconds();
  std::printf("dataset: |E| = %zu, |wedges| = %llu, materialized projection "
              "%.1f MB, r = %llu, eager time %.3fs\n",
              graph.num_edges(),
              static_cast<unsigned long long>(eager.num_wedges()),
              full_bytes / 1048576.0,
              static_cast<unsigned long long>(options.num_samples),
              eager_seconds);

  std::printf("\nengine path (--projection lazy --memory-budget B):\n");
  std::printf("%9s | %10s %9s %12s %12s %10s\n", "budget%", "time(s)",
              "hit-rate", "recomputes", "peak bytes", "vs eager");
  for (double percent : {0.1, 1.0, 10.0, 50.0}) {
    EngineOptions lazy_options = options;
    lazy_options.projection = ProjectionPolicy::kLazy;
    lazy_options.memory_budget =
        std::max<uint64_t>(1, static_cast<uint64_t>(full_bytes * percent /
                                                    100.0));
    Timer timer;
    const MotifEngine engine =
        MotifEngine::Create(graph, lazy_options).value();
    const EngineResult lazy = engine.Count(lazy_options).value();
    const double seconds = timer.Seconds();
    for (int t = 1; t <= kNumHMotifs; ++t) {
      if (lazy.counts[t] != reference.counts[t]) {
        std::printf("FATAL: lazy estimate diverges from materialized at "
                    "motif %d (budget %.1f%%)\n",
                    t, percent);
        return 1;
      }
    }
    if (lazy.stats.projection_peak_bytes >= full_bytes) {
      std::printf("FATAL: lazy peak projection bytes (%" PRIu64
                  ") not below the materialized footprint (%" PRIu64 ")\n",
                  lazy.stats.projection_peak_bytes, full_bytes);
      return 1;
    }
    std::printf("%8.1f%% | %10.3f %9.2f %12llu %12llu %9.2fx\n", percent,
                seconds, lazy.stats.lazy_hit_rate,
                static_cast<unsigned long long>(lazy.stats.lazy_recomputes),
                static_cast<unsigned long long>(
                    lazy.stats.projection_peak_bytes),
                seconds > 0.0 ? eager_seconds / seconds : 0.0);
  }

  // Single-threaded eviction-policy ablation under partial budgets
  // (wedge-admission is the production default; degree / LRU / random
  // retained from the paper's comparison). The engine always runs the
  // default policy, so this drives its lazy kernel directly, one memo
  // shard per policy.
  const ProjectedDegrees degrees = ComputeProjectedDegrees(graph, 2);
  MochyAPlusOptions sampling;
  sampling.num_samples = options.num_samples;
  sampling.seed = 3;

  struct PolicyEntry {
    EvictionPolicy policy;
    const char* name;
  };
  const PolicyEntry policies[] = {
      {EvictionPolicy::kWedgeAdmission, "wedge"},
      {EvictionPolicy::kDegreePriority, "degree"},
      {EvictionPolicy::kLru, "lru"},
      {EvictionPolicy::kRandom, "random"},
  };

  std::printf("\neviction ablation (single-threaded on-the-fly):\n");
  std::printf("%9s | %8s | %10s %12s %12s %8s\n", "budget%", "policy",
              "time(s)", "computes", "hits", "speedup");
  double base_time = -1.0;
  for (double percent : {0.0, 0.1, 1.0, 10.0, 100.0}) {
    for (const PolicyEntry& entry : policies) {
      LazyProjectionOptions lazy;
      lazy.memory_budget_bytes =
          static_cast<uint64_t>(full_bytes * percent / 100.0);
      lazy.policy = entry.policy;
      LazyProjection::Stats stats;
      Timer timer;
      auto memo = ConcurrentLazyProjection::Create(graph, degrees, lazy,
                                                   /*num_shards=*/1)
                      .value();
      const MotifCounts counts =
          CountMotifsWedgeSampleLazy(graph, degrees, *memo, sampling, &stats)
              .value();
      const double seconds = timer.Seconds();
      for (int t = 1; t <= kNumHMotifs; ++t) {
        if (counts[t] != reference.counts[t]) {
          std::printf("FATAL: %s-policy estimate diverges from materialized "
                      "at motif %d (budget %.1f%%)\n",
                      entry.name, t, percent);
          return 1;
        }
      }
      if (base_time < 0.0) base_time = seconds;
      std::printf("%8.1f%% | %8s | %10.3f %12llu %12llu %7.2fx\n", percent,
                  entry.name, seconds,
                  static_cast<unsigned long long>(stats.computations),
                  static_cast<unsigned long long>(stats.memo_hits),
                  base_time / seconds);
      if (percent == 0.0) break;  // policies are identical at zero budget
    }
  }
  std::printf(
      "\nshape check: more budget -> fewer recomputations -> faster, with\n"
      "the reuse-aware policies (wedge-admission, degree) ahead of\n"
      "LRU/random at partial budgets. Note: the paper's 2x-at-1%% point\n"
      "relies on the extreme projected-degree skew of threads-ubuntu; our\n"
      "synthetic degree distribution is flatter, so the same speedup\n"
      "appears at a larger budget (see EXPERIMENTS.md).\n");
  return 0;
}
