#include "motif/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/rng.h"
#include "hypergraph/builder.h"
#include "motif/mochy_e.h"
#include "motif/mochy_weighted.h"
#include "motif/reference.h"
#include "serve/query.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph PaperExample() {
  // Figure 2: e1={L,K,F}, e2={L,H,K}, e3={B,G,L}, e4={S,R,F}.
  return MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
}

TEST(AlgorithmNameTest, RoundTripsThroughParse) {
  for (Algorithm a : {Algorithm::kExact, Algorithm::kEdgeSample,
                      Algorithm::kLinkSample, Algorithm::kWeighted,
                      Algorithm::kAuto}) {
    auto parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), a);
  }
}

TEST(AlgorithmNameTest, AcceptsPaperAliases) {
  EXPECT_EQ(ParseAlgorithm("mochy-e").value(), Algorithm::kExact);
  EXPECT_EQ(ParseAlgorithm("mochy-a").value(), Algorithm::kEdgeSample);
  EXPECT_EQ(ParseAlgorithm("mochy-a+").value(), Algorithm::kLinkSample);
  EXPECT_EQ(ParseAlgorithm("mochy-a+w").value(), Algorithm::kWeighted);
  EXPECT_FALSE(ParseAlgorithm("mochy-b").ok());
  EXPECT_FALSE(ParseAlgorithm("").ok());
}

TEST(MotifEngineTest, RejectsInvalidSamplingRatio) {
  const Hypergraph g = PaperExample();
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.sampling_ratio = 0.0;
  EXPECT_FALSE(engine.Count(options).ok());
  options.sampling_ratio = -0.5;
  EXPECT_FALSE(engine.Count(options).ok());
  options.sampling_ratio = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine.Count(options).ok());
  // Oversampling (> 1) is legal: both samplers draw with replacement.
  options.sampling_ratio = 1.5;
  EXPECT_TRUE(engine.Count(options).ok());
  options.sampling_ratio = 0.0;
  options.num_samples = 10;  // explicit sample count bypasses the ratio
  EXPECT_TRUE(engine.Count(options).ok());
  // Exact counting ignores the sampling knobs entirely.
  options.algorithm = Algorithm::kExact;
  options.num_samples = 0;
  options.sampling_ratio = 0.0;
  EXPECT_TRUE(engine.Count(options).ok());
}

TEST(MotifEngineTest, ExactMatchesBruteForceOnRandomGraphs) {
  // Property sweep: the facade's exact mode must agree with the
  // independent O(|E|^3) set-algebra counter on every random graph.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const size_t nodes = 10 + (seed % 4) * 10;
    const size_t edges = 15 + (seed % 3) * 10;
    const Hypergraph g = testing::RandomHypergraph(nodes, edges, 1, 6, seed);
    const MotifEngine engine = MotifEngine::Create(g).value();
    EngineOptions options;
    options.algorithm = Algorithm::kExact;
    const EngineResult result = engine.Count(options).value();
    const MotifCounts brute = testing::BruteForceCounts(g);
    for (int t = 1; t <= kNumHMotifs; ++t) {
      EXPECT_DOUBLE_EQ(result.counts[t], brute[t])
          << "motif " << t << " seed " << seed;
    }
    EXPECT_EQ(result.stats.algorithm, Algorithm::kExact);
    EXPECT_EQ(result.stats.samples_used, 0u);
    EXPECT_DOUBLE_EQ(result.stats.relative_variance, 0.0);
  }
}

TEST(MotifEngineTest, ExactIsThreadCountInvariant) {
  const Hypergraph g = testing::RandomHypergraph(40, 90, 1, 6, 11);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kExact;
  const EngineResult serial = engine.Count(options).value();
  options.num_threads = 4;
  const EngineResult parallel = engine.Count(options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(serial.counts[t], parallel.counts[t]) << "motif " << t;
  }
}

TEST(MotifEngineTest, SamplingModesAreDeterministicInSeed) {
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 3);
  const MotifEngine engine = MotifEngine::Create(g).value();
  for (Algorithm a : {Algorithm::kEdgeSample, Algorithm::kLinkSample}) {
    EngineOptions options;
    options.algorithm = a;
    options.num_samples = 200;
    options.seed = 99;
    const EngineResult once = engine.Count(options).value();
    options.num_threads = 4;  // per-sample RNG fork: threads don't matter
    const EngineResult again = engine.Count(options).value();
    for (int t = 1; t <= kNumHMotifs; ++t) {
      EXPECT_DOUBLE_EQ(once.counts[t], again.counts[t])
          << AlgorithmName(a) << " motif " << t;
    }
  }
}

TEST(MotifEngineTest, SamplingModesConvergeToExact) {
  // With the whole population sampled many times over, both unbiased
  // estimators must land close to the exact counts (fixed seeds keep this
  // deterministic; tolerance covers the residual sampling noise).
  const Hypergraph g = testing::RandomHypergraph(25, 45, 1, 5, 7);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions exact_options;
  exact_options.algorithm = Algorithm::kExact;
  const MotifCounts exact = engine.Count(exact_options).value().counts;
  ASSERT_GT(exact.Total(), 0.0);

  for (Algorithm a : {Algorithm::kEdgeSample, Algorithm::kLinkSample}) {
    EngineOptions options;
    options.algorithm = a;
    options.num_samples = 60000;
    options.seed = 5;
    const EngineResult result = engine.Count(options).value();
    EXPECT_LT(result.counts.RelativeError(exact), 0.05)
        << AlgorithmName(a) << " did not converge";
    EXPECT_EQ(result.stats.samples_used, 60000u);
  }
}

TEST(MotifEngineTest, VarianceEstimateShrinksWithMoreSamples) {
  const Hypergraph g = testing::RandomHypergraph(20, 35, 1, 5, 13);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.estimate_variance = true;
  options.num_samples = 100;
  const double coarse =
      engine.Count(options).value().stats.relative_variance;
  options.num_samples = 1000;
  const double fine = engine.Count(options).value().stats.relative_variance;
  EXPECT_GT(coarse, 0.0);
  EXPECT_LT(fine, coarse);
  // Var ~ 1/r (Theorems 2 and 4): 10x the samples => ~10x smaller.
  EXPECT_NEAR(coarse / fine, 10.0, 2.0);
}

TEST(MotifEngineTest, AutoPicksExactOnSmallInputs) {
  const Hypergraph g = PaperExample();
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;  // algorithm = kAuto
  const EngineResult result = engine.Count(options).value();
  EXPECT_EQ(result.stats.algorithm, Algorithm::kExact);
  EXPECT_EQ(engine.ResolveAuto(options), Algorithm::kExact);
  const MotifCounts brute = testing::BruteForceCounts(g);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(result.counts[t], brute[t]) << "motif " << t;
  }
}

TEST(MotifEngineTest, MatchesFreeFunctionExactCounter) {
  const Hypergraph g = testing::RandomHypergraph(35, 70, 1, 6, 29);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kExact;
  const EngineResult facade = engine.Count(options).value();
  const MotifCounts direct = CountMotifsExact(g);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(facade.counts[t], direct[t]) << "motif " << t;
  }
}

TEST(MotifEngineTest, HandlesEmptyAndWedgeFreeGraphs) {
  // A single hyperedge has no wedges: sampling modes must return all-zero
  // estimates instead of dividing by zero.
  auto single = MakeHypergraph({{0, 1, 2}}).value();
  const MotifEngine engine = MotifEngine::Create(single).value();
  for (Algorithm a : {Algorithm::kExact, Algorithm::kEdgeSample,
                      Algorithm::kLinkSample, Algorithm::kWeighted,
                      Algorithm::kAuto}) {
    EngineOptions options;
    options.algorithm = a;
    options.num_samples = 10;
    const EngineResult result = engine.Count(options).value();
    EXPECT_DOUBLE_EQ(result.counts.Total(), 0.0) << AlgorithmName(a);
  }
}

// Random hypergraph with a skewed size distribution and deliberate
// duplicate edges kept (dedup off) — the weighted sampler's alias table
// and the per-edge credit assignment must both survive duplicates.
Hypergraph SkewedDuplicateGraph(uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  std::vector<std::vector<NodeId>> added;
  for (size_t e = 0; e < 50; ++e) {
    if (!added.empty() && rng.UniformInt(4) == 0) {
      const auto& dup = added[rng.UniformInt(added.size())];
      builder.AddEdge(std::span<const NodeId>(dup.data(), dup.size()));
      added.push_back(dup);
      continue;
    }
    const size_t size = std::min<uint64_t>(rng.Zipf(6, 1.2) + 1, 25);
    const auto ids = rng.SampleDistinct(25, size);
    std::vector<NodeId> edge(ids.begin(), ids.end());
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
    added.push_back(std::move(edge));
  }
  BuildOptions options;
  options.dedup_edges = false;
  options.num_nodes = 25;
  return std::move(builder).Build(options).value();
}

TEST(MotifEngineWeightedTest, BitIdenticalToFreeFunctionAtEveryThreadCount) {
  // kWeighted must be a promotion, not a reimplementation: at 1, 2, and
  // the default thread count the facade's estimates are bit-identical to
  // the single-threaded CountMotifsWeightedWedge kernel with the same
  // sample budget and seed (the draws are one sequential stream, so the
  // thread knob may never leak into the results), and the stats report
  // the workers the per-sample work ran on.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph g = SkewedDuplicateGraph(seed);
    const MotifEngine engine = MotifEngine::Create(g).value();
    MochyWeightedOptions direct_options;
    direct_options.num_samples = 500;
    direct_options.seed = 40 + seed;
    const MochyWeightedResult direct =
        CountMotifsWeightedWedge(g, direct_options).value();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{0}}) {
      EngineOptions options;
      options.algorithm = Algorithm::kWeighted;
      options.num_samples = 500;
      options.seed = 40 + seed;
      options.num_threads = threads;
      const EngineResult facade = engine.Count(options).value();
      for (int t = 1; t <= kNumHMotifs; ++t) {
        EXPECT_EQ(facade.counts[t], direct.counts[t])
            << "motif " << t << " seed " << seed << " threads " << threads;
      }
      EXPECT_EQ(facade.stats.algorithm, Algorithm::kWeighted);
      EXPECT_EQ(facade.stats.samples_used, 500u);
      const size_t requested = threads == 0 ? DefaultThreadCount() : threads;
      EXPECT_EQ(facade.stats.num_threads,
                std::min(requested, DefaultThreadCount()));
    }
  }
}

TEST(MotifEngineWeightedTest, DeterministicInSeedAndRatioDrivesBudget) {
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 17);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kWeighted;
  options.num_samples = 300;
  options.seed = 9;
  const EngineResult once = engine.Count(options).value();
  const EngineResult again = engine.Count(options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(once.counts[t], again.counts[t]) << "motif " << t;
  }
  // With num_samples unset the budget derives from ratio * |wedges|,
  // exactly like the other samplers.
  options.num_samples = 0;
  options.sampling_ratio = 0.5;
  const EngineResult derived = engine.Count(options).value();
  const uint64_t expected = static_cast<uint64_t>(
      0.5 * static_cast<double>(engine.num_wedges()));
  EXPECT_EQ(derived.stats.samples_used, std::max<uint64_t>(1, expected));
}

TEST(MotifEngineWeightedTest, RejectsVarianceEstimation) {
  // Theorems 2 and 4 cover MoCHy-A/A+ only; the weighted estimator has
  // no closed-form variance, so asking for one is an error, not a 0.
  const Hypergraph g = PaperExample();
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kWeighted;
  options.num_samples = 10;
  options.estimate_variance = true;
  const auto result = engine.Count(options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MotifEngineWeightedTest, RunsProjectionFreeOnLazyEngines) {
  // The weighted sampler never touches the projection, so it must work
  // on a lazy engine and agree bit-for-bit with the materialized path.
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 23);
  EngineOptions create;
  create.projection = ProjectionPolicy::kLazy;
  create.algorithm = Algorithm::kLinkSample;
  const MotifEngine lazy = MotifEngine::Create(g, create).value();
  const MotifEngine materialized = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kWeighted;
  options.num_samples = 400;
  options.seed = 3;
  const EngineResult from_lazy = lazy.Count(options).value();
  const EngineResult from_materialized = materialized.Count(options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(from_lazy.counts[t], from_materialized.counts[t])
        << "motif " << t;
  }
}

TEST(MotifEngineWeightedTest, CanonicalizeAndCacheKey) {
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 29);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions options;
  options.algorithm = Algorithm::kWeighted;
  options.num_samples = 123;
  options.seed = 7;
  options.num_threads = 8;          // scheduling knob: canonicalized away
  options.estimate_variance = true; // unsupported: forced off in the key
  const EngineOptions canonical = engine.Canonicalize(options);
  EXPECT_EQ(canonical.algorithm, Algorithm::kWeighted);
  EXPECT_EQ(canonical.num_samples, 123u);
  EXPECT_EQ(canonical.seed, 7u);
  EXPECT_EQ(canonical.num_threads, 0u);
  EXPECT_FALSE(canonical.estimate_variance);
  Query query(*FindQuerySpec("count"));
  query.engine = options;
  const QueryOperand operand{&g, &engine, 0};
  const std::string key = QueryCacheKey(*query.spec, query, &operand);
  EXPECT_NE(key.find("alg=weighted"), std::string::npos) << key;
  EXPECT_NE(key.find("samples=123"), std::string::npos) << key;
  EXPECT_NE(key.find("seed=7"), std::string::npos) << key;
  // kAuto never resolves to the weighted estimator; it must be opted
  // into explicitly.
  EngineOptions auto_options;
  EXPECT_NE(engine.ResolveAuto(auto_options), Algorithm::kWeighted);
}

TEST(MotifEnginePerEdgeTest, MatchesFreeFunctionRowsExactly) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph g = SkewedDuplicateGraph(100 + seed);
    const MotifEngine engine = MotifEngine::Create(g).value();
    const PerEdgeResult result = engine.CountPerEdge().value();
    const auto oracle =
        reference::ComputePerEdgeMotifCounts(g, engine.projection());
    ASSERT_EQ(result.rows.size(), g.num_edges());
    ASSERT_EQ(oracle.size(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      for (int m = 0; m < kNumHMotifs; ++m) {
        EXPECT_EQ(result.rows[e][m], oracle[e][m])
            << "edge " << e << " motif " << m + 1 << " seed " << seed;
      }
    }
  }
}

TEST(MotifEnginePerEdgeTest, ColumnsSumToThriceGlobalCounts) {
  // Every instance has exactly 3 member edges, so summing any motif's
  // column over all edges triple-counts the global total — integer
  // arithmetic in doubles, so the identity is exact, not approximate.
  const Hypergraph g = testing::RandomHypergraph(35, 70, 1, 6, 41);
  const MotifEngine engine = MotifEngine::Create(g).value();
  const PerEdgeResult per_edge = engine.CountPerEdge().value();
  const MotifCounts global = engine.Count().value().counts;
  for (int m = 0; m < kNumHMotifs; ++m) {
    double column = 0.0;
    for (const auto& row : per_edge.rows) column += row[m];
    EXPECT_EQ(column, 3.0 * global[m + 1]) << "motif " << m + 1;
  }
}

TEST(MotifEnginePerEdgeTest, BitIdenticalAtEveryThreadCount) {
  const Hypergraph g = testing::RandomHypergraph(40, 90, 1, 6, 43);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions serial;
  serial.num_threads = 1;
  const PerEdgeResult baseline = engine.CountPerEdge(serial).value();
  for (size_t threads : {size_t{2}, size_t{0}}) {
    EngineOptions options;
    options.num_threads = threads;
    const PerEdgeResult result = engine.CountPerEdge(options).value();
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      for (int m = 0; m < kNumHMotifs; ++m) {
        EXPECT_EQ(result.rows[e][m], baseline.rows[e][m])
            << "edge " << e << " motif " << m + 1 << " threads " << threads;
      }
    }
  }
}

TEST(MotifEnginePerEdgeTest, HugeThreadRequestIsCappedAtPoolSize) {
  // One |E|×26 row block per worker: a threads=4096 request (the wire
  // maximum) must size its blocks by the workers that can run, not by
  // the request, and still produce the serial rows bit for bit.
  const Hypergraph g = testing::RandomHypergraph(40, 90, 1, 6, 53);
  const MotifEngine engine = MotifEngine::Create(g).value();
  EngineOptions serial;
  serial.num_threads = 1;
  const PerEdgeResult baseline = engine.CountPerEdge(serial).value();
  EngineOptions huge;
  huge.num_threads = 4096;
  const PerEdgeResult result = engine.CountPerEdge(huge).value();
  EXPECT_LE(result.stats.num_threads, DefaultThreadCount());
  ASSERT_EQ(result.rows.size(), baseline.rows.size());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (int m = 0; m < kNumHMotifs; ++m) {
      EXPECT_EQ(result.rows[e][m], baseline.rows[e][m])
          << "edge " << e << " motif " << m + 1;
    }
  }
}

TEST(MotifEnginePerEdgeTest, RequiresMaterializedProjection) {
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 47);
  EngineOptions create;
  create.projection = ProjectionPolicy::kLazy;
  create.algorithm = Algorithm::kLinkSample;
  const MotifEngine lazy = MotifEngine::Create(g, create).value();
  const auto result = lazy.CountPerEdge();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MotifEngineTest, StatsReportWedgesAndElapsedTime) {
  const Hypergraph g = testing::RandomHypergraph(30, 60, 1, 5, 31);
  const MotifEngine engine = MotifEngine::Create(g).value();
  const EngineResult result = engine.Count().value();
  EXPECT_EQ(result.stats.num_wedges, engine.projection().num_wedges());
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
  const std::string report = result.stats.ToString();
  EXPECT_NE(report.find("algorithm="), std::string::npos);
  EXPECT_NE(report.find("elapsed="), std::string::npos);
}

}  // namespace
}  // namespace mochy
