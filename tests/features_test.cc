// Tests for the hyperedge-prediction feature pipeline (HM26 / HM7 / HC).
#include "ml/features.h"

#include <gtest/gtest.h>

#include <set>

#include "gen/generators.h"
#include "gen/perturb.h"
#include "hypergraph/builder.h"
#include "hypergraph/projection.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "motif/reference.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

struct TaskFixture {
  Hypergraph history;
  std::vector<std::vector<NodeId>> candidates;
};

TaskFixture MakeFixture(uint64_t seed) {
  TaskFixture f;
  GeneratorConfig config = DefaultConfig(Domain::kCoauthorship, 0.12);
  config.seed = seed;
  f.history = GenerateDomainHypergraph(config).value();
  // Candidates: additional edges from the same generator (a later period).
  config.seed = seed + 999;
  const Hypergraph future = GenerateDomainHypergraph(config).value();
  for (EdgeId e = 0; e < std::min<size_t>(60, future.num_edges()); ++e) {
    const auto span = future.edge(e);
    if (span.size() < 2) continue;
    f.candidates.emplace_back(span.begin(), span.end());
  }
  return f;
}

TEST(FeaturesTest, HandcraftedFeatureShape) {
  auto g = MakeHypergraph({{0, 1, 2}, {1, 2, 3}, {4, 5}}).value();
  const auto rows = ComputeHandcraftedFeatures(g);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_EQ(row.size(), 7u);
  // Edge 2 = {4,5}: both nodes have degree 1 and one neighbor; size 2.
  EXPECT_DOUBLE_EQ(rows[2][0], 1.0);  // mean degree
  EXPECT_DOUBLE_EQ(rows[2][1], 1.0);  // max degree
  EXPECT_DOUBLE_EQ(rows[2][2], 1.0);  // min degree
  EXPECT_DOUBLE_EQ(rows[2][3], 1.0);  // mean neighbors
  EXPECT_DOUBLE_EQ(rows[2][6], 2.0);  // size
  // Node 1 and 2 have degree 2; node 0 degree 1.
  EXPECT_DOUBLE_EQ(rows[0][1], 2.0);
  EXPECT_DOUBLE_EQ(rows[0][2], 1.0);
  // Node 1's neighbors: {0, 2, 3} -> 3.
  EXPECT_DOUBLE_EQ(rows[0][4], 3.0);
}

TEST(FeaturesTest, TaskShapeAndLabels) {
  const TaskFixture f = MakeFixture(1);
  const PredictionTask task =
      BuildHyperedgePredictionTask(f.history, f.candidates).value();
  const size_t n = f.candidates.size();
  ASSERT_EQ(task.hm26.size(), 2 * n);
  ASSERT_EQ(task.hm7.size(), 2 * n);
  ASSERT_EQ(task.hc.size(), 2 * n);
  EXPECT_EQ(task.hm26.num_features(), 26u);
  EXPECT_EQ(task.hm7.num_features(), 7u);
  EXPECT_EQ(task.hc.num_features(), 7u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(task.hm26.labels[i], 1);
    EXPECT_EQ(task.hm26.labels[n + i], 0);
  }
  EXPECT_TRUE(task.hm26.Validate().ok());
  EXPECT_TRUE(task.hm7.Validate().ok());
  EXPECT_TRUE(task.hc.Validate().ok());
}

TEST(FeaturesTest, Hm7SelectsDistinctHighVarianceFeatures) {
  const TaskFixture f = MakeFixture(2);
  const PredictionTask task =
      BuildHyperedgePredictionTask(f.history, f.candidates).value();
  std::set<int> indices(task.hm7_feature_indices.begin(),
                        task.hm7_feature_indices.end());
  EXPECT_EQ(indices.size(), 7u);
  for (int idx : indices) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, kNumHMotifs);
  }
  // HM7 columns must be copies of the chosen HM26 columns.
  for (size_t row = 0; row < task.hm7.size(); ++row) {
    for (int f7 = 0; f7 < 7; ++f7) {
      EXPECT_DOUBLE_EQ(
          task.hm7.features[row][static_cast<size_t>(f7)],
          task.hm26.features[row][static_cast<size_t>(
              task.hm7_feature_indices[static_cast<size_t>(f7)])]);
    }
  }
}

TEST(FeaturesTest, MotifFeaturesSeparateRealFromFake) {
  // The paper's core claim for Table 4: HM features are informative.
  // A logistic model on HM26 should beat chance clearly.
  const TaskFixture f = MakeFixture(3);
  PredictionTaskOptions options;
  options.seed = 5;
  const PredictionTask task =
      BuildHyperedgePredictionTask(f.history, f.candidates, options).value();
  Dataset train, test;
  ASSERT_TRUE(TrainTestSplit(task.hm26, 0.3, 7, &train, &test).ok());
  LogisticRegression clf;
  ASSERT_TRUE(clf.Fit(train).ok());
  EXPECT_GT(AucScore(test.labels, clf.PredictAll(test)), 0.6);
}

TEST(FeaturesTest, DeterministicInSeed) {
  const TaskFixture f = MakeFixture(4);
  PredictionTaskOptions options;
  options.seed = 21;
  const PredictionTask a =
      BuildHyperedgePredictionTask(f.history, f.candidates, options).value();
  const PredictionTask b =
      BuildHyperedgePredictionTask(f.history, f.candidates, options).value();
  EXPECT_EQ(a.hm26.features, b.hm26.features);
  EXPECT_EQ(a.hc.features, b.hc.features);
}

TEST(FeaturesTest, BatchedRowsMatchFullGraphPerEdgeOracle) {
  // The pipeline now computes each candidate's HM26 row from its 2-hop
  // neighborhood subgraph on a BatchRunner worker. The free-function
  // kernel over the FULL combined graph is the oracle: reconstruct the
  // combined hypergraph exactly as BuildHyperedgePredictionTask does
  // (history, then real candidates, then fakes from the same seeded
  // perturbation) and demand bit-identical rows.
  const TaskFixture f = MakeFixture(6);
  PredictionTaskOptions options;
  options.seed = 11;
  const PredictionTask task =
      BuildHyperedgePredictionTask(f.history, f.candidates, options).value();

  BuildOptions candidate_build;
  candidate_build.dedup_edges = false;
  candidate_build.num_nodes = f.history.num_nodes();
  const Hypergraph candidate_graph =
      MakeHypergraph(f.candidates, candidate_build).value();
  PerturbOptions perturb;
  perturb.replace_fraction = options.replace_fraction;
  perturb.seed = options.seed;
  const std::vector<std::vector<NodeId>> fakes =
      MakeFakeHyperedges(candidate_graph, perturb).value();

  HypergraphBuilder builder;
  for (EdgeId e = 0; e < f.history.num_edges(); ++e) {
    builder.AddEdge(f.history.edge(e));
  }
  for (const auto& edge : f.candidates) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  for (const auto& edge : fakes) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  const Hypergraph combined =
      std::move(builder).Build(candidate_build).value();
  const auto projection = ProjectedGraph::Build(combined, 1).value();
  const auto oracle_rows =
      reference::ComputePerEdgeMotifCounts(combined, projection);

  const size_t base = f.history.num_edges();
  const size_t n = f.candidates.size();
  ASSERT_EQ(task.hm26.size(), 2 * n);
  for (size_t i = 0; i < 2 * n; ++i) {
    for (int t = 0; t < kNumHMotifs; ++t) {
      EXPECT_EQ(task.hm26.features[i][static_cast<size_t>(t)],
                oracle_rows[base + i][t])
          << "candidate " << i << " motif " << t + 1;
    }
  }
}

TEST(FeaturesTest, RowsAreThreadCountInvariant) {
  const TaskFixture f = MakeFixture(7);
  PredictionTaskOptions serial;
  serial.seed = 13;
  serial.num_threads = 1;
  PredictionTaskOptions parallel = serial;
  parallel.num_threads = 4;
  const PredictionTask a =
      BuildHyperedgePredictionTask(f.history, f.candidates, serial).value();
  const PredictionTask b =
      BuildHyperedgePredictionTask(f.history, f.candidates, parallel).value();
  EXPECT_EQ(a.hm26.features, b.hm26.features);
  EXPECT_EQ(a.hm7_feature_indices, b.hm7_feature_indices);
}

TEST(FeaturesTest, RejectsEmptyCandidates) {
  const TaskFixture f = MakeFixture(5);
  EXPECT_FALSE(BuildHyperedgePredictionTask(f.history, {}).ok());
}

}  // namespace
}  // namespace mochy
