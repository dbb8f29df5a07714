// Memory-bounded counting: LazyProjection / ConcurrentLazyProjection
// semantics, and the engine-level ProjectionPolicy contract — sampled
// estimates are bit-identical across kMaterialized / kLazy / kAuto for
// every strategy and thread count, budgets are respected, admission
// prefers high-wedge hubs, and the lazy statistics flow through
// EngineStats and BatchRunner. The prose version of these guarantees is
// docs/MEMORY.md.
#include "hypergraph/lazy_projection.h"

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "hypergraph/builder.h"
#include "hypergraph/projection.h"
#include "motif/batch.h"
#include "motif/engine.h"
#include "motif/mochy_aplus.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

void ExpectSameNeighborhood(const std::vector<Neighbor>& got,
                            std::span<const Neighbor> expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].edge, expected[i].edge);
    EXPECT_EQ(got[i].weight, expected[i].weight);
  }
}

class LazyProjectionPolicySweep
    : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(LazyProjectionPolicySweep, AlwaysReturnsExactNeighborhoods) {
  const Hypergraph g = testing::RandomHypergraph(40, 70, 1, 6, 13);
  const ProjectedGraph reference = ProjectedGraph::Build(g).value();
  LazyProjectionOptions options;
  options.policy = GetParam();
  options.memory_budget_bytes = 2048;  // forces evictions
  LazyProjection lazy(g, options);
  Rng rng(3);
  for (int access = 0; access < 500; ++access) {
    const EdgeId e = static_cast<EdgeId>(rng.UniformInt(g.num_edges()));
    ExpectSameNeighborhood(lazy.Neighborhood(e), reference.neighbors(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LazyProjectionPolicySweep,
                         ::testing::Values(EvictionPolicy::kWedgeAdmission,
                                           EvictionPolicy::kDegreePriority,
                                           EvictionPolicy::kLru,
                                           EvictionPolicy::kRandom));

TEST(LazyProjectionTest, ZeroBudgetNeverMemoizes) {
  const Hypergraph g = testing::RandomHypergraph(20, 30, 1, 5, 1);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 0;
  LazyProjection lazy(g, options);
  for (int i = 0; i < 10; ++i) lazy.Neighborhood(0);
  EXPECT_EQ(lazy.stats().memo_hits, 0u);
  EXPECT_EQ(lazy.stats().computations, 10u);
  EXPECT_EQ(lazy.stats().bytes_used, 0u);
}

TEST(LazyProjectionTest, DefaultBudgetIsExplicitNotUnbounded) {
  // The satellite bugfix: defaults memoize within the documented budget
  // constant, they are neither "off" nor "unbounded".
  LazyProjectionOptions options;
  EXPECT_EQ(options.memory_budget_bytes, kDefaultLazyMemoBudgetBytes);
  EXPECT_GT(kDefaultLazyMemoBudgetBytes, 0u);
  const Hypergraph g = testing::RandomHypergraph(20, 30, 1, 5, 1);
  LazyProjection lazy(g, options);
  lazy.Neighborhood(0);
  lazy.Neighborhood(0);
  EXPECT_EQ(lazy.stats().memo_hits, 1u);  // defaults do memoize
}

TEST(LazyProjectionTest, RequireMemoizationWithZeroBudgetIsRejected) {
  const Hypergraph g = testing::RandomHypergraph(20, 30, 1, 5, 1);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 0;
  options.require_memoization = true;
  EXPECT_FALSE(ValidateLazyProjectionOptions(options).ok());
  EXPECT_FALSE(LazyProjection::Create(g, options).ok());
  const ProjectedDegrees degrees = ComputeProjectedDegrees(g);
  auto rejected = ConcurrentLazyProjection::Create(g, degrees, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // Budgets below one empty memo entry are equally useless.
  options.memory_budget_bytes = LazyEntryBytes(0) - 1;
  EXPECT_FALSE(ValidateLazyProjectionOptions(options).ok());
  // An explicit shard count must not dilute a required budget to nothing.
  options.memory_budget_bytes = 1000;
  EXPECT_FALSE(
      ConcurrentLazyProjection::Create(g, degrees, options, /*num_shards=*/64)
          .ok());
  EXPECT_TRUE(
      ConcurrentLazyProjection::Create(g, degrees, options, /*num_shards=*/4)
          .ok());
  // A workable budget with the same flag is fine.
  options.memory_budget_bytes = 1 << 20;
  EXPECT_TRUE(ValidateLazyProjectionOptions(options).ok());
  auto memo = ConcurrentLazyProjection::Create(g, degrees, options);
  ASSERT_TRUE(memo.ok());
  MochyAPlusOptions sampling;
  sampling.num_samples = 10;
  EXPECT_TRUE(
      CountMotifsWedgeSampleLazy(g, degrees, *memo.value(), sampling).ok());
}

TEST(LazyProjectionTest, WedgeSampleRejectsMismatchedWedgeIndex) {
  const Hypergraph g = testing::RandomHypergraph(20, 30, 1, 5, 1);
  const Hypergraph other = testing::RandomHypergraph(20, 12, 1, 5, 2);
  const ProjectedDegrees degrees = ComputeProjectedDegrees(g);
  auto memo = ConcurrentLazyProjection::Create(g, degrees, {});
  ASSERT_TRUE(memo.ok());
  MochyAPlusOptions sampling;
  sampling.num_samples = 10;
  auto counts = CountMotifsWedgeSampleLazy(
      g, ComputeProjectedDegrees(other), *memo.value(), sampling);
  ASSERT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), StatusCode::kInvalidArgument);
}

TEST(LazyProjectionTest, LargeBudgetComputesEachOnce) {
  const Hypergraph g = testing::RandomHypergraph(20, 30, 1, 5, 2);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 64 << 20;
  LazyProjection lazy(g, options);
  for (int round = 0; round < 3; ++round) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) lazy.Neighborhood(e);
  }
  EXPECT_EQ(lazy.stats().computations, g.num_edges());
  EXPECT_EQ(lazy.stats().memo_hits, 2u * g.num_edges());
  EXPECT_EQ(lazy.stats().evictions, 0u);
}

TEST(LazyProjectionTest, BudgetIsRespected) {
  const Hypergraph g = testing::RandomHypergraph(40, 80, 2, 8, 3);
  for (EvictionPolicy policy :
       {EvictionPolicy::kWedgeAdmission, EvictionPolicy::kDegreePriority,
        EvictionPolicy::kLru, EvictionPolicy::kRandom}) {
    LazyProjectionOptions options;
    options.policy = policy;
    options.memory_budget_bytes = 4096;
    LazyProjection lazy(g, options);
    Rng rng(7);
    for (int access = 0; access < 300; ++access) {
      lazy.Neighborhood(static_cast<EdgeId>(rng.UniformInt(g.num_edges())));
      EXPECT_LE(lazy.stats().bytes_used, options.memory_budget_bytes);
      EXPECT_LE(lazy.stats().peak_bytes, options.memory_budget_bytes);
      EXPECT_GE(lazy.stats().peak_bytes, lazy.stats().bytes_used);
    }
  }
}

TEST(LazyProjectionTest, LruKeepsHotEntry) {
  const Hypergraph g = testing::RandomHypergraph(30, 50, 2, 6, 4);
  LazyProjectionOptions options;
  options.policy = EvictionPolicy::kLru;
  options.memory_budget_bytes = 3000;
  LazyProjection lazy(g, options);
  // Touch edge 0 between every other access; it should stay cached, i.e.
  // at most one computation of edge 0's neighborhood beyond the first few.
  lazy.Neighborhood(0);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    lazy.Neighborhood(static_cast<EdgeId>(rng.UniformInt(g.num_edges())));
    lazy.Neighborhood(0);
  }
  // Edge 0 is re-accessed 100 times; nearly all must be hits.
  EXPECT_GT(lazy.stats().memo_hits, 90u);
}

/// A star hypergraph: edge 0 overlaps every leaf (high projected degree —
/// the high-wedge hub), leaves overlap only edge 0.
Hypergraph MakeStar(int num_leaves) {
  std::vector<std::vector<NodeId>> edges;
  edges.push_back({});
  for (NodeId v = 0; v < static_cast<NodeId>(num_leaves); ++v) {
    edges[0].push_back(v);
  }
  for (NodeId v = 0; v < static_cast<NodeId>(num_leaves); ++v) {
    edges.push_back({v, static_cast<NodeId>(100 + v)});
  }
  return MakeHypergraph(edges).value();
}

TEST(LazyProjectionTest, DegreePolicyPrefersHighDegree) {
  auto g = MakeStar(20);
  LazyProjectionOptions options;
  options.policy = EvictionPolicy::kDegreePriority;
  // Enough for the hub's 20-neighbor list but not for everything.
  options.memory_budget_bytes = 600;
  LazyProjection lazy(g, options);
  lazy.Neighborhood(0);
  // Churn through the leaves.
  for (EdgeId e = 1; e <= 20; ++e) lazy.Neighborhood(e);
  const uint64_t computations = lazy.stats().computations;
  // The hub must still be cached: accessing it again is a hit.
  lazy.Neighborhood(0);
  EXPECT_EQ(lazy.stats().computations, computations);
  EXPECT_GT(lazy.stats().memo_hits, 0u);
}

TEST(LazyProjectionTest, DeclinedNewcomerEvictsNothing) {
  // Hub (projected degree 20), leaves, and a mid edge over 10 private
  // leaf nodes (projected degree 10). Budget fits hub + one leaf
  // exactly; the mid newcomer outranks the leaf but cannot fit even
  // after evicting it — it must be declined WITHOUT evicting the leaf,
  // not evict-then-decline.
  std::vector<std::vector<NodeId>> edges;
  edges.push_back({});
  for (NodeId v = 0; v < 20; ++v) edges[0].push_back(v);
  for (NodeId v = 0; v < 20; ++v) {
    edges.push_back({v, static_cast<NodeId>(100 + v)});
  }
  std::vector<NodeId> mid;
  for (NodeId v = 100; v < 110; ++v) mid.push_back(v);
  edges.push_back(mid);  // edge 21
  auto g = MakeHypergraph(edges).value();

  LazyProjectionOptions options;
  options.policy = EvictionPolicy::kDegreePriority;
  // hub entry = 20*8+64 = 224, leaf = 2*8+64 = 80, mid = 10*8+64 = 144.
  options.memory_budget_bytes = 304;  // hub + one leaf, nothing to spare
  LazyProjection lazy(g, options);
  lazy.Neighborhood(0);   // hub admitted (224)
  lazy.Neighborhood(1);   // leaf admitted (304 total)
  ASSERT_EQ(lazy.stats().bytes_used, 304u);
  lazy.Neighborhood(21);  // mid: rank 10 > leaf's 2, but 80 freed < 144
  EXPECT_EQ(lazy.stats().evictions, 0u);
  const uint64_t computations = lazy.stats().computations;
  lazy.Neighborhood(1);   // the leaf must still be resident
  EXPECT_EQ(lazy.stats().computations, computations);
}

TEST(LazyProjectionTest, WedgeAdmissionPrefersHighWedgeHubs) {
  auto g = MakeStar(20);
  const ProjectedDegrees degrees = ComputeProjectedDegrees(g);
  ASSERT_EQ(degrees.degree[0], 20u);  // the hub touches every leaf
  LazyProjectionOptions options;
  options.policy = EvictionPolicy::kWedgeAdmission;
  options.memory_budget_bytes = 600;
  LazyProjection lazy =
      LazyProjection::Create(g, options, &degrees).value();
  // Leaves first: they fill the memo as low-score residents.
  for (EdgeId e = 1; e <= 20; ++e) lazy.Neighborhood(e);
  // The hub's score (degree 20 × a 20-node sweep) outranks every leaf
  // (degree 1 × a 2-node sweep): admitting it evicts leaves.
  lazy.Neighborhood(0);
  const uint64_t after_hub = lazy.stats().computations;
  lazy.Neighborhood(0);
  EXPECT_EQ(lazy.stats().computations, after_hub)
      << "hub was not admitted over the resident leaves";
  EXPECT_GT(lazy.stats().evictions, 0u);
  // And churning the leaves again cannot displace it: low-score leaves
  // are declined (recomputed), the hub stays a hit.
  for (EdgeId e = 1; e <= 20; ++e) lazy.Neighborhood(e);
  const uint64_t after_churn = lazy.stats().computations;
  EXPECT_GT(after_churn, after_hub);
  lazy.Neighborhood(0);
  EXPECT_EQ(lazy.stats().computations, after_churn)
      << "leaf churn displaced the high-wedge hub";
}

TEST(ConcurrentLazyProjectionTest, ExactUnderConcurrencyAndBudget) {
  const Hypergraph g = testing::RandomHypergraph(50, 90, 2, 7, 11);
  const ProjectedGraph reference = ProjectedGraph::Build(g).value();
  const ProjectedDegrees degrees = ComputeProjectedDegrees(g);
  LazyProjectionOptions options;
  options.memory_budget_bytes = 8192;
  auto lazy =
      ConcurrentLazyProjection::Create(g, degrees, options).value();
  ParallelWorkers(4, [&](size_t worker) {
    NeighborhoodBuilder builder(g.num_edges());
    std::vector<Neighbor> out;
    LazyProjection::Stats local;
    Rng rng(100 + worker);
    for (int access = 0; access < 300; ++access) {
      const EdgeId e = static_cast<EdgeId>(rng.UniformInt(g.num_edges()));
      lazy->Neighborhood(e, builder, &out, &local);
      ASSERT_EQ(out.size(), reference.neighbors(e).size());
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i].edge, reference.neighbors(e)[i].edge);
        ASSERT_EQ(out[i].weight, reference.neighbors(e)[i].weight);
      }
    }
  });
  const LazyProjection::Stats shared = lazy->shared_stats();
  EXPECT_LE(shared.bytes_used, options.memory_budget_bytes);
  EXPECT_LE(shared.peak_bytes, options.memory_budget_bytes);
}

// ---------------------------------------------------------------------
// Engine-level ProjectionPolicy contract.
// ---------------------------------------------------------------------

struct EngineCase {
  Algorithm algorithm;
  size_t num_threads;
};

class ProjectionPolicyEquivalence
    : public ::testing::TestWithParam<EngineCase> {};

TEST_P(ProjectionPolicyEquivalence, LazyAndAutoMatchMaterializedBitForBit) {
  const auto [algorithm, num_threads] = GetParam();
  const Hypergraph g = testing::RandomHypergraph(60, 120, 2, 7, 21);

  EngineOptions options;
  options.algorithm = algorithm;
  options.num_threads = num_threads;
  options.num_samples = 200;
  options.seed = 97;

  options.projection = ProjectionPolicy::kMaterialized;
  const MotifEngine eager = MotifEngine::Create(g, options).value();
  const EngineResult reference = eager.Count(options).value();
  EXPECT_EQ(reference.stats.projection_policy,
            ProjectionPolicy::kMaterialized);
  EXPECT_GT(reference.stats.projection_bytes, 0u);

  // kLazy, under a tiny budget that forces evictions mid-run.
  options.projection = ProjectionPolicy::kLazy;
  options.memory_budget = 4096;
  const MotifEngine lazy = MotifEngine::Create(g, options).value();
  EXPECT_FALSE(lazy.materialized());
  const EngineResult bounded = lazy.Count(options).value();
  EXPECT_EQ(bounded.stats.projection_policy, ProjectionPolicy::kLazy);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(reference.counts[t], bounded.counts[t]) << "motif " << t;
  }

  // kAuto with a budget below the estimated footprint resolves to lazy and
  // still matches.
  options.projection = ProjectionPolicy::kAuto;
  options.memory_budget = 1;
  const MotifEngine chosen = MotifEngine::Create(g, options).value();
  EXPECT_FALSE(chosen.materialized());
  const EngineResult auto_result = chosen.Count(options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(reference.counts[t], auto_result.counts[t]) << "motif " << t;
  }

  // kAuto with no budget (0 = unbounded) materializes — the status quo.
  options.memory_budget = 0;
  const MotifEngine unbounded = MotifEngine::Create(g, options).value();
  EXPECT_TRUE(unbounded.materialized());
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, ProjectionPolicyEquivalence,
    ::testing::Values(EngineCase{Algorithm::kEdgeSample, 1},
                      EngineCase{Algorithm::kEdgeSample, 2},
                      EngineCase{Algorithm::kEdgeSample, 0},
                      EngineCase{Algorithm::kLinkSample, 1},
                      EngineCase{Algorithm::kLinkSample, 2},
                      EngineCase{Algorithm::kLinkSample, 0}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      const char* name = info.param.algorithm == Algorithm::kEdgeSample
                             ? "MochyA"
                             : "MochyAPlus";
      return std::string(name) + "Threads" +
             std::to_string(info.param.num_threads);
    });

TEST(ProjectionPolicyTest, TinyBudgetEvictsAndStaysExact) {
  const Hypergraph g = testing::RandomHypergraph(60, 120, 2, 7, 23);
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.num_samples = 300;
  options.seed = 5;
  options.projection = ProjectionPolicy::kLazy;
  options.memory_budget = 2048;
  const MotifEngine lazy = MotifEngine::Create(g, options).value();
  const EngineResult bounded = lazy.Count(options).value();
  EXPECT_GT(bounded.stats.lazy_evictions, 0u) << "budget too large to test";
  options.projection = ProjectionPolicy::kMaterialized;
  const EngineResult reference =
      MotifEngine::Create(g, options).value().Count(options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(reference.counts[t], bounded.counts[t]) << "motif " << t;
  }
}

TEST(ProjectionPolicyTest, ExactOnLazyEngineIsRejected) {
  const Hypergraph g = testing::RandomHypergraph(30, 50, 2, 6, 29);
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.projection = ProjectionPolicy::kLazy;
  const MotifEngine lazy = MotifEngine::Create(g, options).value();
  EngineOptions exact = options;
  exact.algorithm = Algorithm::kExact;
  auto counted = lazy.Count(exact);
  ASSERT_FALSE(counted.ok());
  EXPECT_EQ(counted.status().code(), StatusCode::kInvalidArgument);
  EngineOptions variance = options;
  variance.estimate_variance = true;
  EXPECT_FALSE(lazy.Count(variance).ok());
}

TEST(ProjectionPolicyTest, ExactUnderAutoFallsBackExplicitLazyIsRejected) {
  const Hypergraph g = testing::RandomHypergraph(30, 50, 2, 6, 29);
  // kAuto: exact counting falls back to materialized, budget or not.
  EngineOptions options;
  options.algorithm = Algorithm::kExact;
  options.projection = ProjectionPolicy::kAuto;
  options.memory_budget = 1;  // far below the footprint
  const MotifEngine engine = MotifEngine::Create(g, options).value();
  EXPECT_TRUE(engine.materialized());
  EXPECT_TRUE(engine.Count(options).ok());
  // Explicit kLazy must not silently materialize behind the budget.
  options.projection = ProjectionPolicy::kLazy;
  auto rejected = MotifEngine::Create(g, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProjectionPolicyTest, RunStatsSurfaceLazyCounters) {
  const Hypergraph g = testing::RandomHypergraph(60, 120, 2, 7, 31);
  const uint64_t materialized_bytes =
      ProjectedGraph::Build(g).value().MemoryBytes();
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.num_samples = 250;
  options.projection = ProjectionPolicy::kLazy;
  options.memory_budget = materialized_bytes / 8;
  const MotifEngine engine = MotifEngine::Create(g, options).value();
  const EngineStats stats = engine.Count(options).value().stats;
  EXPECT_EQ(stats.projection_policy, ProjectionPolicy::kLazy);
  EXPECT_GT(stats.lazy_recomputes, 0u);
  EXPECT_GT(stats.lazy_memo_hits + stats.lazy_recomputes, 0u);
  EXPECT_GE(stats.lazy_hit_rate, 0.0);
  EXPECT_LE(stats.lazy_hit_rate, 1.0);
  EXPECT_GT(stats.projection_bytes, 0u);
  EXPECT_GE(stats.projection_peak_bytes, stats.projection_bytes);
  // The acceptance shape: lazy peak strictly below the materialized
  // footprint, and the memo share of it within the configured budget.
  EXPECT_LT(stats.projection_peak_bytes, materialized_bytes);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("projection=lazy"), std::string::npos);
  EXPECT_NE(text.find("hit-rate"), std::string::npos);
}

TEST(ProjectionPolicyTest, BatchForwardsPerItemPoliciesAndStats) {
  const Hypergraph a = testing::RandomHypergraph(50, 100, 2, 7, 41);
  const Hypergraph b = testing::RandomHypergraph(50, 100, 2, 7, 43);

  EngineOptions eager;
  eager.algorithm = Algorithm::kLinkSample;
  eager.num_samples = 150;
  eager.seed = 11;
  eager.projection = ProjectionPolicy::kMaterialized;
  EngineOptions lazy = eager;
  lazy.projection = ProjectionPolicy::kLazy;
  lazy.memory_budget = 16384;

  BatchRunner runner(BatchOptions{.num_threads = 2});
  runner.Add(a, eager, "a-materialized");
  runner.Add(b, lazy, "b-lazy");
  const BatchResult batched = runner.Run();
  ASSERT_TRUE(batched.all_ok()) << batched.first_error().ToString();
  EXPECT_EQ(batched.items[0].stats.projection_policy,
            ProjectionPolicy::kMaterialized);
  EXPECT_EQ(batched.items[1].stats.projection_policy,
            ProjectionPolicy::kLazy);
  EXPECT_GT(batched.items[1].stats.lazy_recomputes, 0u);

  // Bit-identical to the same items run alone, policy included.
  const EngineResult alone_a =
      MotifEngine::Create(a, eager).value().Count(eager).value();
  const EngineResult alone_b =
      MotifEngine::Create(b, lazy).value().Count(lazy).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(batched.items[0].counts[t], alone_a.counts[t]);
    EXPECT_DOUBLE_EQ(batched.items[1].counts[t], alone_b.counts[t]);
  }
}

TEST(ProjectionPolicyTest, ParseHelpersRoundTrip) {
  EXPECT_EQ(ParseProjectionPolicy("materialized").value(),
            ProjectionPolicy::kMaterialized);
  EXPECT_EQ(ParseProjectionPolicy("eager").value(),
            ProjectionPolicy::kMaterialized);
  EXPECT_EQ(ParseProjectionPolicy("lazy").value(), ProjectionPolicy::kLazy);
  EXPECT_EQ(ParseProjectionPolicy("auto").value(), ProjectionPolicy::kAuto);
  EXPECT_FALSE(ParseProjectionPolicy("mmap").ok());
  for (ProjectionPolicy policy :
       {ProjectionPolicy::kMaterialized, ProjectionPolicy::kLazy,
        ProjectionPolicy::kAuto}) {
    EXPECT_EQ(ParseProjectionPolicy(ProjectionPolicyName(policy)).value(),
              policy);
  }

  EXPECT_EQ(ParseMemoryBudget("0").value(), 0u);
  EXPECT_EQ(ParseMemoryBudget("12345").value(), 12345u);
  EXPECT_EQ(ParseMemoryBudget("64K").value(), 64ull << 10);
  EXPECT_EQ(ParseMemoryBudget("256M").value(), 256ull << 20);
  EXPECT_EQ(ParseMemoryBudget("256MB").value(), 256ull << 20);
  EXPECT_EQ(ParseMemoryBudget("1g").value(), 1ull << 30);
  EXPECT_FALSE(ParseMemoryBudget("").ok());
  EXPECT_FALSE(ParseMemoryBudget("M").ok());
  EXPECT_FALSE(ParseMemoryBudget("12Q").ok());
  EXPECT_FALSE(ParseMemoryBudget("12MBx").ok());
  EXPECT_FALSE(ParseMemoryBudget("99999999999999999999999").ok());
}

TEST(ProjectionPolicyTest, EstimateTracksActualFootprint) {
  const Hypergraph g = testing::RandomHypergraph(60, 120, 2, 7, 47);
  const uint64_t actual = ProjectedGraph::Build(g).value().MemoryBytes();
  const uint64_t estimate =
      EstimateProjectionBytes(ComputeProjectedDegrees(g));
  // The estimate reconstructs the CSR sizing exactly; only container
  // slack can differ.
  EXPECT_GT(estimate, 0u);
  EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(actual),
              0.05 * static_cast<double>(actual));
}

}  // namespace
}  // namespace mochy
