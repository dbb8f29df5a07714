#include "hypergraph/stats.h"

#include <gtest/gtest.h>

#include "hypergraph/builder.h"
#include "motif/mochy_e.h"
#include "motif/reference.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

TEST(StatsTest, PaperExample) {
  auto g =
      MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
  const DatasetStats s = ComputeStats(g);
  EXPECT_EQ(s.num_nodes, 8u);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.max_edge_size, 3u);
  EXPECT_EQ(s.num_pins, 12u);
  EXPECT_DOUBLE_EQ(s.mean_edge_size, 3.0);
  EXPECT_EQ(s.num_wedges, 4u);  // paper: ∧12, ∧13, ∧23, ∧14
  EXPECT_EQ(s.max_degree, 3u);  // node L
}

TEST(StatsTest, HistogramsSumToTotals) {
  const Hypergraph g = testing::RandomHypergraph(30, 50, 1, 6, 21);
  const auto degree_hist = DegreeHistogram(g);
  uint64_t nodes = 0, pins_from_degrees = 0;
  for (size_t d = 0; d < degree_hist.size(); ++d) {
    nodes += degree_hist[d];
    pins_from_degrees += degree_hist[d] * d;
  }
  EXPECT_EQ(nodes, g.num_nodes());
  EXPECT_EQ(pins_from_degrees, g.num_pins());

  const auto size_hist = EdgeSizeHistogram(g);
  uint64_t edges = 0, pins_from_sizes = 0;
  for (size_t s = 0; s < size_hist.size(); ++s) {
    edges += size_hist[s];
    pins_from_sizes += size_hist[s] * s;
  }
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_EQ(pins_from_sizes, g.num_pins());
}

TEST(StatsTest, FormatRowContainsName) {
  const DatasetStats s;
  EXPECT_NE(FormatStatsRow("my-dataset", s).find("my-dataset"),
            std::string::npos);
}

TEST(PerEdgeTest, RowsSumToThreeTimesCounts) {
  const Hypergraph g = testing::RandomHypergraph(25, 40, 1, 5, 31);
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  const auto rows = reference::ComputePerEdgeMotifCounts(g, p);
  const MotifCounts exact = CountMotifsExact(g, p);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    double row_sum = 0.0;
    for (const auto& row : rows) row_sum += row[t - 1];
    EXPECT_DOUBLE_EQ(row_sum, 3.0 * exact[t]) << "motif " << t;
  }
}

TEST(PerEdgeTest, IsolatedEdgeHasZeroRow) {
  auto g = MakeHypergraph({{0, 1}, {1, 2}, {2, 3}, {10, 11}}).value();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  const auto rows = reference::ComputePerEdgeMotifCounts(g, p);
  for (int t = 0; t < kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(rows[3][t], 0.0);
  }
  // The chain instance touches edges 0, 1, 2.
  double touched = 0.0;
  for (int e = 0; e < 3; ++e) {
    for (int t = 0; t < kNumHMotifs; ++t) touched += rows[e][t];
  }
  EXPECT_DOUBLE_EQ(touched, 3.0);
}

}  // namespace
}  // namespace mochy
