// Tests for MoCHy-A+W (motif/mochy_weighted.h), the projection-free
// weighted-wedge estimator: determinism in the seed, exactness of the
// weight normalizer W, unbiasedness against the brute-force counts of
// small graphs (fixed seeds — every expectation here is deterministic),
// and the no-wedge failure mode. The draws are one sequential stream and
// the per-sample work runs on the pool; bit-identity across thread counts
// is checked against the frozen loop in kernel_diff_test.cc, so
// same-seed bit-identity is the determinism contract checked here.
#include <gtest/gtest.h>

#include <cmath>

#include "hypergraph/builder.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/mochy_weighted.h"
#include "motif/reference.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph SmallGraph(uint64_t seed) {
  return testing::RandomHypergraph(/*num_nodes=*/24, /*num_edges=*/40,
                                   /*min_size=*/2, /*max_size=*/5, seed);
}

TEST(MochyWeightedTest, SameSeedIsBitIdentical) {
  const Hypergraph graph = SmallGraph(3);
  MochyWeightedOptions options;
  options.num_samples = 500;
  options.seed = 99;
  const MochyWeightedResult a = CountMotifsWeightedWedge(graph, options).value();
  const MochyWeightedResult b = CountMotifsWeightedWedge(graph, options).value();
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(a.counts[t], b.counts[t]) << "motif " << t;
  }
  EXPECT_EQ(a.estimated_num_wedges, b.estimated_num_wedges);
  EXPECT_EQ(a.total_weight, b.total_weight);

  // A different seed must actually draw a different sample path.
  options.seed = 100;
  const MochyWeightedResult c = CountMotifsWeightedWedge(graph, options).value();
  EXPECT_NE(a.counts.Total(), c.counts.Total());
}

TEST(MochyWeightedTest, TotalWeightIsExact) {
  const Hypergraph graph = SmallGraph(5);
  const MochyWeightedResult result =
      CountMotifsWeightedWedge(graph, {}).value();
  // W = Σ_v C(|E_v|, 2) counts each wedge once per shared node, which is
  // exactly the projection's total weight Σ w(i,j).
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  EXPECT_EQ(result.total_weight, projection.total_weight());
}

TEST(MochyWeightedTest, MeanOverSeedsApproachesBruteForce) {
  // Unbiasedness, empirically: the mean estimate over many independent
  // seeds must approach the brute-force counts of the same graph. Seeds
  // are fixed, so this is a deterministic regression gate, not a flaky
  // statistical test.
  const Hypergraph graph = SmallGraph(11);
  const MotifCounts want = testing::BruteForceCounts(graph);
  ASSERT_GT(want.Total(), 0.0);

  std::vector<MotifCounts> estimates;
  std::vector<double> wedge_estimates;
  MochyWeightedOptions options;
  options.num_samples = 400;
  for (uint64_t trial = 0; trial < 64; ++trial) {
    options.seed = 1000 + trial;
    const MochyWeightedResult result =
        CountMotifsWeightedWedge(graph, options).value();
    estimates.push_back(result.counts);
    wedge_estimates.push_back(result.estimated_num_wedges);
  }
  const MotifCounts mean = MotifCounts::Mean(estimates);
  EXPECT_LT(mean.RelativeError(want), 0.05)
      << "mean\n" << mean.ToString() << "want\n" << want.ToString();

  double wedge_mean = 0.0;
  for (const double w : wedge_estimates) wedge_mean += w;
  wedge_mean /= static_cast<double>(wedge_estimates.size());
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  const double true_wedges = static_cast<double>(projection.num_wedges());
  EXPECT_LT(std::abs(wedge_mean - true_wedges) / true_wedges, 0.05);
}

TEST(MochyWeightedTest, LargeSampleTracksExactOnFigure2) {
  // The golden Figure-2 graph (motifs 10, 21, 22 once each): a heavy
  // sample budget on a 4-edge graph must land near the exact vector.
  HypergraphBuilder builder;
  builder.AddEdge({0, 1, 2});
  builder.AddEdge({0, 1, 3});
  builder.AddEdge({0, 4, 5});
  builder.AddEdge({2, 6, 7});
  const Hypergraph graph = std::move(builder).Build({}).value();
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  const MotifCounts want = reference::CountMotifsExact(graph, projection, 1);
  ASSERT_EQ(want.Total(), 3.0);

  MochyWeightedOptions options;
  options.num_samples = 20000;
  options.seed = 17;
  const MochyWeightedResult result =
      CountMotifsWeightedWedge(graph, options).value();
  EXPECT_LT(result.counts.RelativeError(want), 0.1)
      << result.counts.ToString();
}

TEST(MochyWeightedTest, FailsWithoutWedges) {
  // Disjoint edges: no node has degree >= 2, so there is nothing to
  // sample and the estimator must say so instead of dividing by W = 0.
  HypergraphBuilder builder;
  builder.AddEdge({0, 1});
  builder.AddEdge({2, 3});
  const Hypergraph graph = std::move(builder).Build({}).value();
  EXPECT_FALSE(CountMotifsWeightedWedge(graph, {}).ok());

  EXPECT_FALSE(CountMotifsWeightedWedge(Hypergraph(), {}).ok());
}

}  // namespace
}  // namespace mochy
