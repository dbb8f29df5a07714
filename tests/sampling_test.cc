// Tests for MoCHy-A (hyperedge sampling) and MoCHy-A+ (hyperwedge
// sampling): determinism, unbiasedness (Theorems 2 and 4), exhaustive-
// sampling consistency, and agreement of the on-the-fly variant.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <set>

#include "hypergraph/builder.h"
#include "motif/engine.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/reference.h"
#include "motif/sorted_draws.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

struct Fixture {
  Hypergraph graph;
  ProjectedGraph projection;
  MotifCounts exact;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  f.graph = testing::RandomHypergraph(30, 60, 1, 6, seed);
  f.projection = ProjectedGraph::Build(f.graph).value();
  f.exact = CountMotifsExact(f.graph, f.projection);
  return f;
}

TEST(MochyATest, DeterministicForFixedSeed) {
  const Fixture f = MakeFixture(1);
  MochyAOptions options;
  options.num_samples = 50;
  options.seed = 99;
  const MotifCounts a = CountMotifsEdgeSample(f.graph, f.projection, options);
  const MotifCounts b = CountMotifsEdgeSample(f.graph, f.projection, options);
  for (int t = 1; t <= kNumHMotifs; ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(MochyATest, ThreadCountDoesNotChangeEstimate) {
  const Fixture f = MakeFixture(2);
  MochyAOptions options;
  options.num_samples = 64;
  options.seed = 5;
  options.num_threads = 1;
  const MotifCounts serial =
      CountMotifsEdgeSample(f.graph, f.projection, options);
  options.num_threads = 4;
  const MotifCounts parallel =
      CountMotifsEdgeSample(f.graph, f.projection, options);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(serial[t], parallel[t]) << "motif " << t;
  }
}

TEST(MochyATest, MeanOverManyTrialsApproachesExact) {
  // Unbiasedness (Theorem 2): average estimates over independent seeds and
  // compare with the exact counts.
  const Fixture f = MakeFixture(3);
  const int kTrials = 300;
  MotifCounts sum;
  for (int trial = 0; trial < kTrials; ++trial) {
    MochyAOptions options;
    options.num_samples = 20;
    options.seed = 1000 + trial;
    sum += CountMotifsEdgeSample(f.graph, f.projection, options);
  }
  sum *= 1.0 / kTrials;
  const double err = sum.RelativeError(f.exact);
  EXPECT_LT(err, 0.08) << "mean of estimates deviates from exact counts";
}

TEST(MochyAPlusTest, DeterministicForFixedSeed) {
  const Fixture f = MakeFixture(4);
  MochyAPlusOptions options;
  options.num_samples = 50;
  options.seed = 99;
  const MotifCounts a =
      CountMotifsWedgeSample(f.graph, f.projection, options);
  const MotifCounts b =
      CountMotifsWedgeSample(f.graph, f.projection, options);
  for (int t = 1; t <= kNumHMotifs; ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(MochyAPlusTest, ThreadCountDoesNotChangeEstimate) {
  const Fixture f = MakeFixture(5);
  MochyAPlusOptions options;
  options.num_samples = 64;
  options.seed = 7;
  options.num_threads = 1;
  const MotifCounts serial =
      CountMotifsWedgeSample(f.graph, f.projection, options);
  options.num_threads = 4;
  const MotifCounts parallel =
      CountMotifsWedgeSample(f.graph, f.projection, options);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(serial[t], parallel[t]) << "motif " << t;
  }
}

TEST(MochyAPlusTest, MeanOverManyTrialsApproachesExact) {
  const Fixture f = MakeFixture(6);
  const int kTrials = 300;
  MotifCounts sum;
  for (int trial = 0; trial < kTrials; ++trial) {
    MochyAPlusOptions options;
    options.num_samples = 20;
    options.seed = 2000 + trial;
    sum += CountMotifsWedgeSample(f.graph, f.projection, options);
  }
  sum *= 1.0 / kTrials;
  const double err = sum.RelativeError(f.exact);
  EXPECT_LT(err, 0.08);
}

TEST(MochyAPlusTest, LowerErrorThanMochyAAtEqualRatio) {
  // Section 3.3: at alpha = s/|E| = r/|∧|, MoCHy-A+ has smaller variance.
  // Compare the mean absolute relative error over repeated trials.
  const Fixture f = MakeFixture(7);
  const double alpha = 0.2;
  const uint64_t s = std::max<uint64_t>(
      1, static_cast<uint64_t>(alpha * f.graph.num_edges()));
  const uint64_t r = std::max<uint64_t>(
      1, static_cast<uint64_t>(alpha * f.projection.num_wedges()));
  const int kTrials = 120;
  double err_a = 0.0, err_ap = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    MochyAOptions oa;
    oa.num_samples = s;
    oa.seed = 3000 + trial;
    err_a += CountMotifsEdgeSample(f.graph, f.projection, oa)
                 .RelativeError(f.exact);
    MochyAPlusOptions op;
    op.num_samples = r;
    op.seed = 3000 + trial;
    err_ap += CountMotifsWedgeSample(f.graph, f.projection, op)
                  .RelativeError(f.exact);
  }
  EXPECT_LT(err_ap, err_a)
      << "MoCHy-A+ should be more accurate at matched sampling ratio";
}

TEST(MochyAPlusTest, ZeroWedgeGraphGivesZeroes) {
  auto g = MakeHypergraph({{0, 1}, {2, 3}}).value();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  MochyAPlusOptions options;
  options.num_samples = 10;
  const MotifCounts counts = CountMotifsWedgeSample(g, p, options);
  EXPECT_DOUBLE_EQ(counts.Total(), 0.0);
}

TEST(MochyATest, ZeroSamplesGivesZeroes) {
  const Fixture f = MakeFixture(8);
  MochyAOptions options;
  options.num_samples = 0;
  EXPECT_DOUBLE_EQ(
      CountMotifsEdgeSample(f.graph, f.projection, options).Total(), 0.0);
}

class OnTheFlyEquivalence
    : public ::testing::TestWithParam<std::tuple<EvictionPolicy, uint64_t>> {};

TEST_P(OnTheFlyEquivalence, MatchesEagerForAnyBudgetAndPolicy) {
  const auto [policy, budget] = GetParam();
  const Fixture f = MakeFixture(9);
  MochyAPlusOptions options;
  options.num_samples = 80;
  options.seed = 31;
  const MotifCounts eager =
      CountMotifsWedgeSample(f.graph, f.projection, options);

  // The engine's lazy policy at this budget (0 = unbounded there)...
  EngineOptions engine_options;
  engine_options.algorithm = Algorithm::kLinkSample;
  engine_options.projection = ProjectionPolicy::kLazy;
  engine_options.memory_budget = budget;
  engine_options.num_samples = options.num_samples;
  engine_options.seed = options.seed;
  const MotifEngine engine =
      MotifEngine::Create(f.graph, engine_options).value();
  const MotifCounts fly = engine.Count(engine_options).value().counts;
  // ...and its lazy kernel on a single memo shard under this policy.
  const ProjectedDegrees degrees = ComputeProjectedDegrees(f.graph);
  LazyProjectionOptions lazy;
  lazy.memory_budget_bytes = budget;
  lazy.policy = policy;
  auto memo =
      ConcurrentLazyProjection::Create(f.graph, degrees, lazy, 1).value();
  const MotifCounts policy_fly =
      CountMotifsWedgeSampleLazy(f.graph, degrees, *memo, options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(eager[t], fly[t]) << "motif " << t;
    EXPECT_DOUBLE_EQ(eager[t], policy_fly[t]) << "motif " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndPolicies, OnTheFlyEquivalence,
    ::testing::Combine(::testing::Values(EvictionPolicy::kWedgeAdmission,
                                         EvictionPolicy::kDegreePriority,
                                         EvictionPolicy::kLru,
                                         EvictionPolicy::kRandom),
                       ::testing::Values<uint64_t>(0, 512, 4096, 1 << 20)));

TEST(OnTheFlyTest, MemoizationReducesComputations) {
  const Fixture f = MakeFixture(10);
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.projection = ProjectionPolicy::kLazy;
  options.num_samples = 200;
  options.seed = 77;
  options.num_threads = 1;

  EngineOptions no_memo = options;
  no_memo.memory_budget = 1;  // below one memo entry: nothing is kept
  const EngineStats stats_none = MotifEngine::Create(f.graph, no_memo)
                                     .value()
                                     .Count(no_memo)
                                     .value()
                                     .stats;

  EngineOptions big_memo = options;
  big_memo.memory_budget = 16 << 20;
  const EngineStats stats_big = MotifEngine::Create(f.graph, big_memo)
                                    .value()
                                    .Count(big_memo)
                                    .value()
                                    .stats;

  EXPECT_EQ(stats_none.lazy_memo_hits, 0u);
  EXPECT_GT(stats_big.lazy_memo_hits, 0u);
  EXPECT_LT(stats_big.lazy_recomputes, stats_none.lazy_recomputes);
}

// MoCHy-A+ counts its samples sorted and grouped by e_i, each distinct
// wedge once times its number of draws, in blocks of 65,536 samples split
// across workers. Each case below must match the per-sample oracle bit
// for bit: materialized and lazy (4 KB memo plus a spill dir), at 1, 2
// and 4 threads.
void ExpectWedgeSampleMatchesReference(const Hypergraph& graph,
                                       uint64_t num_samples,
                                       const std::string& label) {
  const ProjectedGraph projection = ProjectedGraph::Build(graph).value();
  MochyAPlusOptions options;
  options.num_samples = num_samples;
  options.seed = 5;
  options.num_threads = 1;
  const MotifCounts want =
      reference::CountMotifsWedgeSample(graph, projection, options);
  ASSERT_GT(want.Total(), 0.0) << label;
  testing::ScopedTempDir tmp;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::string context = label + " threads=" + std::to_string(threads);
    options.num_threads = threads;
    const MotifCounts materialized =
        CountMotifsWedgeSample(graph, projection, options);
    EngineOptions lazy;
    lazy.algorithm = Algorithm::kLinkSample;
    lazy.projection = ProjectionPolicy::kLazy;
    lazy.memory_budget = 4096;
    lazy.spill_dir = tmp.dir();
    lazy.num_samples = num_samples;
    lazy.seed = options.seed;
    lazy.num_threads = threads;
    const MotifCounts spilled =
        MotifEngine::Create(graph, lazy).value().Count(lazy).value().counts;
    for (int t = 1; t <= kNumHMotifs; ++t) {
      ASSERT_EQ(materialized[t], want[t]) << context << " motif " << t;
      ASSERT_EQ(spilled[t], want[t]) << context << " lazy, motif " << t;
    }
  }
}

/// A star: hub edge 0 over nodes [0, 2·leaves), and pairwise disjoint
/// leaves that each take one or two hub nodes and zero to two private
/// nodes, so every wedge is {0, leaf} (one e_i group) and N(0) holds
/// several keys (ω, [|e| > ω]).
Hypergraph StarGraph(NodeId leaves) {
  std::vector<std::vector<NodeId>> edges(1);
  for (NodeId v = 0; v < 2 * leaves; ++v) edges[0].push_back(v);
  for (NodeId t = 0; t < leaves; ++t) {
    std::vector<NodeId> leaf = {2 * t};
    if (t % 2 == 0) leaf.push_back(2 * t + 1);
    for (NodeId p = 0; p < t % 3; ++p) leaf.push_back(2 * leaves + 2 * t + p);
    edges.push_back(leaf);
  }
  return MakeHypergraph(edges).value();
}

TEST(MochyAPlusSortedTest, HeavyDuplicatesMatchReference) {
  const Fixture f = MakeFixture(12);
  ExpectWedgeSampleMatchesReference(f.graph, 10 * f.projection.num_wedges(),
                                    "r=10|wedges|");
}

TEST(MochyAPlusSortedTest, OneHubGroupSplitAcrossChunksMatchesReference) {
  const Hypergraph graph = StarGraph(120);
  const ProjectedGraph projection = ProjectedGraph::Build(graph).value();
  ASSERT_EQ(projection.upper_neighbors(0).size(), projection.num_wedges());
  ExpectWedgeSampleMatchesReference(graph, 10 * projection.num_wedges(),
                                    "star");
}

TEST(MochyAPlusSortedTest, MoreSamplesThanOneBlockMatchReference) {
  const Fixture f = MakeFixture(13);
  ExpectWedgeSampleMatchesReference(f.graph, 65536 + 4465, "r > block");
}

// MoCHy-A draws on the same front end: each distinct edge is counted once
// by ContainingCensus, times its number of draws, on cost-balanced chunks.
// The same three cases must match its per-sample oracle bit for bit.
void ExpectEdgeSampleMatchesReference(const Hypergraph& graph,
                                      uint64_t num_samples,
                                      const std::string& label) {
  const ProjectedGraph projection = ProjectedGraph::Build(graph).value();
  MochyAOptions options;
  options.num_samples = num_samples;
  options.seed = 5;
  options.num_threads = 1;
  const MotifCounts want =
      reference::CountMotifsEdgeSample(graph, projection, options);
  ASSERT_GT(want.Total(), 0.0) << label;
  testing::ScopedTempDir tmp;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    const std::string context = label + " threads=" + std::to_string(threads);
    options.num_threads = threads;
    const MotifCounts materialized =
        CountMotifsEdgeSample(graph, projection, options);
    EngineOptions lazy;
    lazy.algorithm = Algorithm::kEdgeSample;
    lazy.projection = ProjectionPolicy::kLazy;
    lazy.memory_budget = 4096;
    lazy.spill_dir = tmp.dir();
    lazy.num_samples = num_samples;
    lazy.seed = options.seed;
    lazy.num_threads = threads;
    const MotifCounts spilled =
        MotifEngine::Create(graph, lazy).value().Count(lazy).value().counts;
    for (int t = 1; t <= kNumHMotifs; ++t) {
      ASSERT_EQ(materialized[t], want[t]) << context << " motif " << t;
      ASSERT_EQ(spilled[t], want[t]) << context << " lazy, motif " << t;
    }
  }
}

TEST(MochyASortedTest, HeavyDuplicatesMatchReference) {
  const Fixture f = MakeFixture(12);
  ExpectEdgeSampleMatchesReference(f.graph, 10 * f.graph.num_edges(),
                                   "r=10|E|");
}

TEST(MochyASortedTest, StarGraphMatchesReference) {
  const Hypergraph graph = StarGraph(120);
  ExpectEdgeSampleMatchesReference(graph, 10 * graph.num_edges(), "star");
}

TEST(MochyASortedTest, MoreSamplesThanOneBlockMatchReference) {
  const Fixture f = MakeFixture(13);
  ExpectEdgeSampleMatchesReference(f.graph, 65536 + 4465, "r > block");
}

TEST(MochyASortedTest, LazyFetchesEachDistinctEdgeOncePerRun) {
  // N(e) once for the run of e, then N(e_j) once per e_j ∈ N(e): the
  // memo sees 1 + |N(e)| lookups per distinct drawn edge, not per draw.
  const Fixture f = MakeFixture(14);
  MochyAOptions options;
  options.num_samples = 10 * f.graph.num_edges();
  options.seed = 3;
  std::set<EdgeId> drawn;
  const Rng base(options.seed);
  for (uint64_t n = 0; n < options.num_samples; ++n) {
    Rng rng = base.Fork(n);
    drawn.insert(static_cast<EdgeId>(rng.UniformInt(f.graph.num_edges())));
  }
  uint64_t want = 0;
  for (const EdgeId e : drawn) want += 1 + f.projection.degree(e);
  ASSERT_LT(drawn.size(), options.num_samples);

  const ProjectedDegrees degrees = ComputeProjectedDegrees(f.graph);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    options.num_threads = threads;
    auto memo = ConcurrentLazyProjection::Create(f.graph, degrees, {}).value();
    LazyProjection::Stats stats;
    ASSERT_TRUE(
        CountMotifsEdgeSampleLazy(f.graph, degrees, *memo, options, &stats)
            .ok());
    EXPECT_EQ(stats.memo_hits + stats.computations, want)
        << "threads=" << threads;
  }
}

// The front end's parts against the obvious implementations.
TEST(SortedDrawsTest, RadixGroupingMatchesStdSort) {
  const uint64_t above32 = (uint64_t{1} << 32) + 12345;
  for (const uint64_t population :
       {uint64_t{1}, uint64_t{2}, uint64_t{256}, uint64_t{257},
        uint64_t{65536}, uint64_t{65537}, above32, ~uint64_t{0}}) {
    for (const size_t n : {size_t{1}, size_t{1000}, size_t{65536}}) {
      // Uniform keys, and keys clustered below the population, which
      // share their high bytes.
      for (const bool clustered : {false, true}) {
        const std::string context = "population=" + std::to_string(population) +
                                    " n=" + std::to_string(n) +
                                    (clustered ? " clustered" : "");
        Rng rng(population ^ n);
        std::vector<uint64_t> keys(n);
        const uint64_t cluster = std::min<uint64_t>(population, 300);
        for (uint64_t& key : keys) {
          key = clustered ? population - 1 - rng.UniformInt(cluster)
                          : rng.UniformInt(population);
        }
        std::vector<uint64_t> want = keys;
        std::sort(want.begin(), want.end());
        std::vector<uint64_t> scratch(n);
        const std::span<uint64_t> sorted =
            internal::RadixSortDraws(keys, scratch, population);
        ASSERT_TRUE(std::equal(sorted.begin(), sorted.end(), want.begin(),
                               want.end()))
            << context;

        std::vector<uint64_t> want_keys;
        std::vector<uint64_t> want_times;
        for (const uint64_t key : want) {
          if (!want_keys.empty() && want_keys.back() == key) {
            ++want_times.back();
          } else {
            want_keys.push_back(key);
            want_times.push_back(1);
          }
        }
        const size_t runs = internal::GroupRuns(sorted, keys, scratch);
        ASSERT_EQ(runs, want_keys.size()) << context;
        for (size_t r = 0; r < runs; ++r) {
          ASSERT_EQ(keys[r], want_keys[r]) << context << " run " << r;
          ASSERT_EQ(scratch[r], want_times[r]) << context << " run " << r;
        }
      }
    }
  }
}

TEST(SortedDrawsTest, GallopMatchesUpperBound) {
  // Hubs with no wedges are zero-width entries: leading, scattered, and
  // long runs of them, then a long zero tail.
  Rng rng(11);
  std::vector<uint64_t> prefix = {0};
  auto add = [&](uint64_t width) { prefix.push_back(prefix.back() + width); };
  for (int e = 0; e < 5; ++e) add(0);
  for (int block = 0; block < 40; ++block) {
    for (int e = 0; e < 50; ++e) {
      add(rng.Bernoulli(0.4) ? 0 : rng.UniformInt(6));
    }
    for (uint64_t e = rng.UniformInt(400); e > 0; --e) add(0);
  }
  add(1);
  for (int e = 0; e < 1000; ++e) add(0);
  const uint64_t wedges = prefix.back();
  ASSERT_GT(wedges, 0u);

  // Dense: every wedge index, twice. Sparse: r ≪ |E| sorted draws.
  std::vector<uint64_t> dense;
  for (uint64_t k = 0; k < wedges; ++k) dense.insert(dense.end(), {k, k});
  std::vector<uint64_t> sparse;
  for (int s = 0; s < 12; ++s) sparse.push_back(rng.UniformInt(wedges));
  std::sort(sparse.begin(), sparse.end());
  for (const auto* draws : {&dense, &sparse}) {
    size_t hub = 0;
    for (const uint64_t k : *draws) {
      hub = internal::GallopHub(prefix, hub, k);
      const size_t want = static_cast<size_t>(
          std::upper_bound(prefix.begin(), prefix.end(), k) - prefix.begin() -
          1);
      ASSERT_EQ(hub, want) << "k=" << k;
    }
  }
}

// The lazy samplers hold an |E|-sized neighborhood builder per worker, so
// their workers are capped at the pool: a huge thread request must not
// allocate a builder per requested thread, and must not change the
// estimate.
long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(SamplerThreadsTest, HugeThreadRequestIsCappedAtThePool) {
  const Hypergraph graph = testing::RandomHypergraph(6000, 12000, 2, 4, 21);
  ASSERT_GE(graph.num_edges(), 11000u);
  const ProjectedDegrees degrees = ComputeProjectedDegrees(graph);
  LazyProjectionOptions budget;
  budget.memory_budget_bytes = 64 << 10;
  auto run = [&](size_t threads) {
    MochyAOptions a;
    a.num_samples = 2000;
    a.seed = 9;
    a.num_threads = threads;
    MochyAPlusOptions ap;
    ap.num_samples = 20000;
    ap.seed = 9;
    ap.num_threads = threads;
    auto a_memo =
        ConcurrentLazyProjection::Create(graph, degrees, budget).value();
    auto ap_memo =
        ConcurrentLazyProjection::Create(graph, degrees, budget).value();
    return std::make_pair(
        CountMotifsEdgeSampleLazy(graph, degrees, *a_memo, a).value(),
        CountMotifsWedgeSampleLazy(graph, degrees, *ap_memo, ap).value());
  };
  const auto serial = run(1);
  const long before_kb = PeakRssKb();
  const auto huge = run(4096);
  const long growth_kb = PeakRssKb() - before_kb;
  // One builder is |E| counters (~48 KB here): 4096 of them would be
  // ~200 MB.
  EXPECT_LT(growth_kb, 32 << 10) << "peak RSS grew " << growth_kb << " KB";
  for (int t = 1; t <= kNumHMotifs; ++t) {
    ASSERT_EQ(huge.first[t], serial.first[t]) << "mochy-a motif " << t;
    ASSERT_EQ(huge.second[t], serial.second[t]) << "mochy-a+ motif " << t;
  }
}

}  // namespace
}  // namespace mochy
