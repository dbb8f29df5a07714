// Tests for batched multi-graph counting (motif/batch.h): bit-identical
// results vs. sequential per-graph engines for every strategy, per-item
// option overrides, error isolation, scheduling stats, and the batched
// characteristic-profile pipeline built on top of it.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "motif/batch.h"
#include "motif/engine.h"
#include "profile/significance.h"
#include "random/chung_lu.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

std::vector<Hypergraph> TestGraphs() {
  std::vector<Hypergraph> graphs;
  graphs.push_back(testing::RandomHypergraph(40, 90, 2, 6, 3));
  graphs.push_back(testing::RandomHypergraph(25, 50, 2, 5, 5));
  graphs.push_back(testing::RandomHypergraph(60, 120, 2, 7, 7));
  return graphs;
}

// Counts `graph` the pre-batch way: its own engine, sequential call.
MotifCounts SequentialCount(const Hypergraph& graph,
                            const EngineOptions& options) {
  auto engine = MotifEngine::Create(graph);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine.value().Count(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value().counts;
}

TEST(BatchTest, BitIdenticalToSequentialForEveryStrategy) {
  const std::vector<Hypergraph> graphs = TestGraphs();
  for (Algorithm algorithm :
       {Algorithm::kExact, Algorithm::kEdgeSample, Algorithm::kLinkSample,
        Algorithm::kAuto}) {
    EngineOptions options;
    options.algorithm = algorithm;
    options.num_samples = 500;
    options.seed = 17;

    BatchOptions batch_options;
    batch_options.num_threads = 4;
    BatchRunner runner(batch_options);
    for (const Hypergraph& g : graphs) runner.Add(g, options);
    const BatchResult batch = runner.Run();

    ASSERT_TRUE(batch.all_ok()) << batch.first_error().ToString();
    ASSERT_EQ(batch.items.size(), graphs.size());
    for (size_t i = 0; i < graphs.size(); ++i) {
      const MotifCounts expected = SequentialCount(graphs[i], options);
      for (int t = 1; t <= kNumHMotifs; ++t) {
        EXPECT_DOUBLE_EQ(batch.items[i].counts[t], expected[t])
            << "algorithm=" << AlgorithmName(algorithm) << " graph=" << i
            << " motif=" << t;
      }
    }
  }
}

TEST(BatchTest, ThreadCountDoesNotChangeResults) {
  const std::vector<Hypergraph> graphs = TestGraphs();
  EngineOptions options;
  options.algorithm = Algorithm::kLinkSample;
  options.num_samples = 300;
  options.seed = 23;

  std::vector<BatchResult> results;
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    BatchOptions batch_options;
    batch_options.num_threads = threads;
    BatchRunner runner(batch_options);
    for (const Hypergraph& g : graphs) runner.Add(g, options);
    results.push_back(runner.Run());
  }
  for (const BatchResult& result : results) {
    ASSERT_TRUE(result.all_ok());
    for (size_t i = 0; i < graphs.size(); ++i) {
      for (int t = 1; t <= kNumHMotifs; ++t) {
        EXPECT_DOUBLE_EQ(result.items[i].counts[t],
                         results[0].items[i].counts[t]);
      }
    }
  }
}

TEST(BatchTest, PerItemOverridesApply) {
  const Hypergraph g = testing::RandomHypergraph(40, 80, 2, 6, 11);

  EngineOptions exact;
  exact.algorithm = Algorithm::kExact;
  EngineOptions sampled;
  sampled.algorithm = Algorithm::kLinkSample;
  sampled.num_samples = 128;
  sampled.seed = 5;
  EngineOptions other_seed = sampled;
  other_seed.seed = 99;

  BatchOptions batch_options;
  batch_options.num_threads = 4;
  BatchRunner runner(batch_options);
  runner.Add(g, exact, "exact");
  runner.Add(g, sampled, "sampled");
  runner.Add(g, other_seed, "reseeded");
  const BatchResult batch = runner.Run();

  ASSERT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.items[0].stats.algorithm, Algorithm::kExact);
  EXPECT_EQ(batch.items[0].stats.samples_used, 0u);
  EXPECT_EQ(batch.items[0].label, "exact");
  EXPECT_EQ(batch.items[1].stats.algorithm, Algorithm::kLinkSample);
  EXPECT_EQ(batch.items[1].stats.samples_used, 128u);
  EXPECT_EQ(batch.items[1].label, "sampled");
  // Item 2 differs from item 1 only by seed; estimates must differ (same
  // graph, same budget) while both match their sequential counterparts.
  bool any_difference = false;
  for (int t = 1; t <= kNumHMotifs; ++t) {
    if (batch.items[1].counts[t] != batch.items[2].counts[t]) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
  const MotifCounts expected = SequentialCount(g, other_seed);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(batch.items[2].counts[t], expected[t]);
  }
}

TEST(BatchTest, FailingItemDoesNotPoisonBatch) {
  const Hypergraph good = testing::RandomHypergraph(30, 60, 2, 5, 13);

  BatchRunner runner(BatchOptions{.num_threads = 4});
  runner.Add(good, {}, "first");
  runner.AddGenerated(
      []() -> Result<Hypergraph> {
        return Status::InvalidArgument("synthetic generator failure");
      },
      {}, "broken");
  runner.Add(good, {}, "last");
  const BatchResult batch = runner.Run();

  EXPECT_FALSE(batch.all_ok());
  EXPECT_EQ(batch.stats.num_failed, 1u);
  EXPECT_EQ(batch.first_error().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch.items[0].status.ok());
  EXPECT_FALSE(batch.items[1].status.ok());
  EXPECT_TRUE(batch.items[2].status.ok());

  const MotifCounts expected = SequentialCount(good, {});
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(batch.items[0].counts[t], expected[t]);
    EXPECT_DOUBLE_EQ(batch.items[2].counts[t], expected[t]);
  }
}

TEST(BatchTest, GeneratedItemsCountTheGeneratedGraph) {
  const Hypergraph source = testing::RandomHypergraph(40, 80, 2, 6, 19);
  ChungLuOptions cl;
  cl.seed = 101;

  BatchRunner runner(BatchOptions{.num_threads = 2});
  runner.AddGenerated([&]() { return GenerateChungLu(source, cl); });
  const BatchResult batch = runner.Run();
  ASSERT_TRUE(batch.all_ok()) << batch.first_error().ToString();
  EXPECT_GT(batch.items[0].generate_seconds, 0.0);

  const Hypergraph null_graph = GenerateChungLu(source, cl).value();
  const MotifCounts expected = SequentialCount(null_graph, {});
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(batch.items[0].counts[t], expected[t]);
  }
}

TEST(BatchTest, EmptyBatchAndEmptyItem) {
  BatchRunner runner;
  const BatchResult batch = runner.Run();
  EXPECT_EQ(batch.items.size(), 0u);
  EXPECT_TRUE(batch.all_ok());
  EXPECT_TRUE(batch.first_error().ok());

  // An item with neither graph nor generator reports, not crashes.
  const BatchResult bad =
      CountBatch({nullptr}, EngineOptions{}, BatchOptions{});
  ASSERT_EQ(bad.items.size(), 1u);
  EXPECT_EQ(bad.items[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(BatchTest, CountBatchConvenienceWrapper) {
  const std::vector<Hypergraph> graphs = TestGraphs();
  std::vector<const Hypergraph*> pointers;
  for (const Hypergraph& g : graphs) pointers.push_back(&g);

  EngineOptions options;
  options.algorithm = Algorithm::kExact;
  const BatchResult batch = CountBatch(pointers, options);
  ASSERT_TRUE(batch.all_ok());
  for (size_t i = 0; i < graphs.size(); ++i) {
    const MotifCounts expected = testing::BruteForceCounts(graphs[i]);
    for (int t = 1; t <= kNumHMotifs; ++t) {
      EXPECT_DOUBLE_EQ(batch.items[i].counts[t], expected[t]);
    }
  }
}

TEST(BatchTest, StatsAreCoherent) {
  const std::vector<Hypergraph> graphs = TestGraphs();
  BatchRunner runner(BatchOptions{.num_threads = 2});
  for (const Hypergraph& g : graphs) runner.Add(g);
  const BatchResult batch = runner.Run();

  ASSERT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.stats.num_items, graphs.size());
  EXPECT_EQ(batch.stats.num_failed, 0u);
  EXPECT_GE(batch.stats.num_threads, 1u);
  EXPECT_LE(batch.stats.num_threads, 2u);
  EXPECT_GT(batch.stats.elapsed_seconds, 0.0);
  EXPECT_GT(batch.stats.busy_seconds, 0.0);
  EXPECT_GT(batch.stats.pool_utilization, 0.0);
  EXPECT_NE(batch.stats.ToString().find("items=3"), std::string::npos);
  for (const BatchItemResult& item : batch.items) {
    EXPECT_GE(item.projection_seconds, 0.0);
    EXPECT_EQ(item.generate_seconds, 0.0);  // all borrowed
  }
}

TEST(BatchedProfileTest, MatchesManualPipeline) {
  // The batched CP pipeline must reproduce, bit for bit, what a manual
  // one-engine-per-graph pipeline computes with the same seed derivation.
  const Hypergraph g = testing::RandomHypergraph(40, 80, 2, 6, 29);
  CharacteristicProfileOptions options;
  options.num_random_graphs = 3;
  options.seed = 31;
  const CharacteristicProfile profile =
      ComputeCharacteristicProfile(g, options).value();

  std::vector<MotifCounts> random_counts;
  for (int i = 0; i < options.num_random_graphs; ++i) {
    ChungLuOptions cl;
    cl.seed = options.seed + 0x9e3779b9u * static_cast<uint64_t>(i + 1);
    const Hypergraph null_graph = GenerateChungLu(g, cl).value();
    random_counts.push_back(SequentialCount(null_graph, {}));
  }
  const MotifCounts expected_mean = MotifCounts::Mean(random_counts);
  const ProfileVector expected_cp = NormalizeProfile(
      ComputeSignificance(profile.real_counts, expected_mean));

  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(profile.random_mean[t], expected_mean[t]);
    EXPECT_DOUBLE_EQ(profile.cp[t - 1], expected_cp[t - 1]);
  }
  EXPECT_EQ(profile.batch.num_items,
            static_cast<size_t>(options.num_random_graphs) + 1);
  EXPECT_EQ(profile.batch.num_failed, 0u);
}

TEST(BatchedProfileTest, ThreadCountInvariant) {
  const Hypergraph g = testing::RandomHypergraph(35, 70, 2, 5, 37);
  CharacteristicProfileOptions a_options;
  a_options.num_random_graphs = 4;
  a_options.seed = 41;
  a_options.num_threads = 1;
  CharacteristicProfileOptions b_options = a_options;
  b_options.num_threads = 6;
  // Also exercise the sampling path, whose seeds must be worker-invariant.
  CharacteristicProfileOptions c_options = b_options;
  c_options.sample_ratio = 0.5;
  CharacteristicProfileOptions d_options = c_options;
  d_options.num_threads = 2;

  const auto a = ComputeCharacteristicProfile(g, a_options).value();
  const auto b = ComputeCharacteristicProfile(g, b_options).value();
  const auto c = ComputeCharacteristicProfile(g, c_options).value();
  const auto d = ComputeCharacteristicProfile(g, d_options).value();
  for (int i = 0; i < kNumHMotifs; ++i) {
    EXPECT_DOUBLE_EQ(a.cp[i], b.cp[i]);
    EXPECT_DOUBLE_EQ(c.cp[i], d.cp[i]);
  }
}

TEST(BatchedProfileTest, PerturbNullModel) {
  const Hypergraph g = testing::RandomHypergraph(40, 80, 2, 6, 53);
  CharacteristicProfileOptions options;
  options.num_random_graphs = 3;
  options.seed = 59;
  options.null_model = NullModel::kPerturb;
  options.perturb_fraction = 0.5;

  const auto a = ComputeCharacteristicProfile(g, options).value();
  const auto b = ComputeCharacteristicProfile(g, options).value();
  CharacteristicProfileOptions chung_lu = options;
  chung_lu.null_model = NullModel::kChungLu;
  const auto c = ComputeCharacteristicProfile(g, chung_lu).value();

  bool differs_from_chung_lu = false;
  for (int i = 0; i < kNumHMotifs; ++i) {
    EXPECT_DOUBLE_EQ(a.cp[i], b.cp[i]);  // deterministic for a seed
    if (a.random_mean[i + 1] != c.random_mean[i + 1]) {
      differs_from_chung_lu = true;
    }
  }
  EXPECT_TRUE(differs_from_chung_lu);
  // Both null models preserve the hyperedge-size multiset, so the real
  // counts are the same object either way.
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(a.real_counts[t], c.real_counts[t]);
  }
}

TEST(BatchedProfileTest, ReportsTable3Columns) {
  const Hypergraph g = testing::RandomHypergraph(40, 90, 2, 6, 43);
  CharacteristicProfileOptions options;
  options.num_random_graphs = 2;
  options.seed = 47;
  const CharacteristicProfile profile =
      ComputeCharacteristicProfile(g, options).value();

  const ProfileVector expected_rc =
      RelativeCounts(profile.real_counts, profile.random_mean);
  const auto expected_rd =
      RankDifference(profile.real_counts, profile.random_mean);
  for (int i = 0; i < kNumHMotifs; ++i) {
    EXPECT_DOUBLE_EQ(profile.relative_counts[i], expected_rc[i]);
    EXPECT_EQ(profile.rank_difference[i], expected_rd[i]);
  }
}

}  // namespace
}  // namespace mochy
