// Tests for per-hyperedge motif participation counts (the
// reference::ComputePerEdgeMotifCounts oracle and MotifEngine::CountPerEdge),
// the HM26 features of the paper's Table 4 case study. Two oracles pin
// the rows down: every instance contains exactly three hyperedges, so
// summing any motif's column over all rows must give exactly 3x the
// global count, and an independent brute-force enumeration (direct set
// algebra, no projection) must reproduce every row bit-exactly.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "hypergraph/builder.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/engine.h"
#include "motif/reference.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

using PerEdgeRows = std::vector<std::array<double, kNumHMotifs>>;

PerEdgeRows ComputeRows(const Hypergraph& graph) {
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  return reference::ComputePerEdgeMotifCounts(graph, projection);
}

/// Independent oracle: classify every unordered triple with plain set
/// algebra and credit the instance to its three member rows.
PerEdgeRows BruteForceRows(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<std::set<NodeId>> sets(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto span = graph.edge(e);
    sets[e] = std::set<NodeId>(span.begin(), span.end());
  }
  PerEdgeRows rows(m);
  for (auto& row : rows) row.fill(0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      for (size_t k = j + 1; k < m; ++k) {
        const int id = testing::BruteForceClassify(sets[i], sets[j], sets[k]);
        if (id == 0) continue;
        rows[i][id - 1] += 1.0;
        rows[j][id - 1] += 1.0;
        rows[k][id - 1] += 1.0;
      }
    }
  }
  return rows;
}

TEST(PerEdgeTest, RowsMatchBruteForceBitExactly) {
  for (const uint64_t seed : {2u, 23u, 47u}) {
    const Hypergraph graph = testing::RandomHypergraph(
        /*num_nodes=*/20, /*num_edges=*/30, /*min_size=*/1, /*max_size=*/6,
        seed);
    const PerEdgeRows got = ComputeRows(graph);
    const PerEdgeRows want = BruteForceRows(graph);
    ASSERT_EQ(got.size(), graph.num_edges()) << "seed " << seed;
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      for (int t = 0; t < kNumHMotifs; ++t) {
        EXPECT_EQ(got[e][t], want[e][t])
            << "seed " << seed << " edge " << e << " motif " << (t + 1);
      }
    }
  }
}

TEST(PerEdgeTest, ColumnsSumToThreeTimesGlobalCounts) {
  // Every instance contributes to exactly 3 rows, so per-motif column
  // sums are 3x the global exact counts — integer-exact, no tolerance.
  const Hypergraph graph = testing::RandomHypergraph(
      /*num_nodes=*/28, /*num_edges=*/55, /*min_size=*/2, /*max_size=*/6, 71);
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  const MotifCounts global =
      reference::CountMotifsExact(graph, projection, 1);
  ASSERT_GT(global.Total(), 0.0);

  const PerEdgeRows rows =
      reference::ComputePerEdgeMotifCounts(graph, projection);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    double column = 0.0;
    for (const auto& row : rows) column += row[t - 1];
    EXPECT_EQ(column, 3.0 * global[t]) << "motif " << t;
  }
}

TEST(PerEdgeTest, GoldenFigure2Rows) {
  // Figure-2 graph: e0={0,1,2}, e1={0,1,3}, e2={0,4,5}, e3={2,6,7} with
  // exactly three instances — {e0,e1,e2} (motif 10), {e0,e1,e3} (21),
  // {e0,e2,e3} (22) — and none containing all of e1..e3 without e0's
  // overlap. Rows follow directly.
  HypergraphBuilder builder;
  builder.AddEdge({0, 1, 2});
  builder.AddEdge({0, 1, 3});
  builder.AddEdge({0, 4, 5});
  builder.AddEdge({2, 6, 7});
  const Hypergraph graph = std::move(builder).Build({}).value();
  const PerEdgeRows rows = ComputeRows(graph);
  ASSERT_EQ(rows.size(), 4u);

  auto row_total = [&](EdgeId e) {
    double sum = 0.0;
    for (const double c : rows[e]) sum += c;
    return sum;
  };
  // e0 sits in all three instances; e1 in two; e2 and e3 in the two
  // instances that contain them.
  EXPECT_EQ(rows[0][10 - 1], 1.0);
  EXPECT_EQ(rows[0][21 - 1], 1.0);
  EXPECT_EQ(rows[0][22 - 1], 1.0);
  EXPECT_EQ(row_total(0), 3.0);
  EXPECT_EQ(rows[1][10 - 1], 1.0);
  EXPECT_EQ(rows[1][21 - 1], 1.0);
  EXPECT_EQ(row_total(1), 2.0);
  EXPECT_EQ(rows[2][10 - 1], 1.0);
  EXPECT_EQ(rows[2][22 - 1], 1.0);
  EXPECT_EQ(row_total(2), 2.0);
  EXPECT_EQ(rows[3][21 - 1], 1.0);
  EXPECT_EQ(rows[3][22 - 1], 1.0);
  EXPECT_EQ(row_total(3), 2.0);
}

TEST(PerEdgeTest, EnginePathMatchesFreeFunctionAndBruteForce) {
  // The promoted engine strategy (MotifEngine::CountPerEdge) must agree
  // bit-exactly with both the free-function kernel it wraps and the
  // independent brute-force oracle — the free function stays as the
  // bit-identity reference for the engine path.
  for (const uint64_t seed : {5u, 61u}) {
    const Hypergraph graph = testing::RandomHypergraph(
        /*num_nodes=*/20, /*num_edges=*/30, /*min_size=*/1, /*max_size=*/6,
        seed);
    const MotifEngine engine = MotifEngine::Create(graph).value();
    const PerEdgeResult result = engine.CountPerEdge().value();
    const PerEdgeRows oracle = ComputeRows(graph);
    const PerEdgeRows brute = BruteForceRows(graph);
    ASSERT_EQ(result.rows.size(), graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      for (int t = 0; t < kNumHMotifs; ++t) {
        EXPECT_EQ(result.rows[e][t], oracle[e][t])
            << "seed " << seed << " edge " << e << " motif " << (t + 1);
        EXPECT_EQ(result.rows[e][t], brute[e][t])
            << "seed " << seed << " edge " << e << " motif " << (t + 1);
      }
    }
    EXPECT_EQ(result.stats.algorithm, Algorithm::kExact);
  }
}

TEST(PerEdgeTest, EmptyAndTinyGraphs) {
  EXPECT_TRUE(ComputeRows(Hypergraph()).empty());
  // Two edges cannot form a triple: rows exist but stay all-zero.
  HypergraphBuilder builder;
  builder.AddEdge({0, 1});
  builder.AddEdge({1, 2});
  const Hypergraph graph = std::move(builder).Build({}).value();
  const PerEdgeRows rows = ComputeRows(graph);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    for (const double c : row) EXPECT_EQ(c, 0.0);
  }
}

}  // namespace
}  // namespace mochy
