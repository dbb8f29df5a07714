#include "hypergraph/projection.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "hypergraph/builder.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph PaperExample() {
  return MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
}

TEST(ProjectionTest, PaperExampleWedges) {
  const Hypergraph g = PaperExample();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  // Paper: four hyperwedges ∧12, ∧13, ∧23, ∧14 (1-based edges).
  EXPECT_EQ(p.num_wedges(), 4u);
  EXPECT_EQ(p.Weight(0, 1), 2u);  // e1 ∩ e2 = {L, K}
  EXPECT_EQ(p.Weight(0, 2), 1u);  // {L}
  EXPECT_EQ(p.Weight(1, 2), 1u);  // {L}
  EXPECT_EQ(p.Weight(0, 3), 1u);  // {F}
  EXPECT_EQ(p.Weight(1, 3), 0u);
  EXPECT_EQ(p.Weight(2, 3), 0u);
  EXPECT_EQ(p.Weight(2, 2), 0u);  // self
}

TEST(ProjectionTest, NeighborListsSortedAndSymmetric) {
  const Hypergraph g = PaperExample();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  EXPECT_EQ(p.degree(0), 3u);
  EXPECT_EQ(p.degree(3), 1u);
  for (EdgeId e = 0; e < p.num_edges(); ++e) {
    const auto nbrs = p.neighbors(e);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1].edge, nbrs[i].edge);
      }
      // Symmetry: the reverse direction exists with the same weight.
      EXPECT_EQ(p.Weight(nbrs[i].edge, e), nbrs[i].weight);
    }
  }
}

TEST(ProjectionTest, WedgeAtEnumeratesAllWedgesOnce) {
  const Hypergraph g = PaperExample();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  std::set<std::pair<EdgeId, EdgeId>> wedges;
  for (uint64_t k = 0; k < p.num_wedges(); ++k) {
    const auto [i, j] = p.WedgeAt(k);
    EXPECT_LT(i, j);
    EXPECT_GT(p.Weight(i, j), 0u);
    EXPECT_TRUE(wedges.emplace(i, j).second) << "duplicate wedge";
  }
  EXPECT_EQ(wedges.size(), p.num_wedges());
}

TEST(ProjectionTest, UpperNeighborsAreTheLargerIdSuffix) {
  std::vector<Hypergraph> graphs;
  graphs.push_back(PaperExample());
  for (uint64_t seed = 0; seed < 4; ++seed) {
    graphs.push_back(testing::RandomHypergraph(25, 40, 1, 6, seed));
  }
  for (const Hypergraph& g : graphs) {
    const ProjectedGraph p = ProjectedGraph::Build(g).value();
    uint64_t total = 0;
    for (EdgeId e = 0; e < p.num_edges(); ++e) {
      std::vector<std::pair<EdgeId, uint32_t>> want;
      for (const Neighbor& n : p.neighbors(e)) {
        if (n.edge > e) want.emplace_back(n.edge, n.weight);
      }
      std::vector<std::pair<EdgeId, uint32_t>> got;
      for (const Neighbor& n : p.upper_neighbors(e)) {
        got.emplace_back(n.edge, n.weight);
      }
      EXPECT_EQ(got, want) << "edge " << e;
      total += got.size();
    }
    EXPECT_EQ(total, p.num_wedges());
  }
}

TEST(ProjectionTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph g = testing::RandomHypergraph(25, 30, 1, 6, seed);
    const ProjectedGraph p = ProjectedGraph::Build(g).value();
    uint64_t expected_wedges = 0;
    for (EdgeId a = 0; a < g.num_edges(); ++a) {
      for (EdgeId b = a + 1; b < g.num_edges(); ++b) {
        const uint32_t w = static_cast<uint32_t>(g.IntersectionSize(a, b));
        EXPECT_EQ(p.Weight(a, b), w) << "seed " << seed;
        if (w > 0) ++expected_wedges;
      }
    }
    EXPECT_EQ(p.num_wedges(), expected_wedges) << "seed " << seed;
  }
}

TEST(ProjectionTest, ParallelBuildMatchesSerial) {
  const Hypergraph g = testing::RandomHypergraph(60, 120, 1, 8, 3);
  const ProjectedGraph serial = ProjectedGraph::Build(g, 1).value();
  const ProjectedGraph parallel = ProjectedGraph::Build(g, 4).value();
  EXPECT_EQ(serial.num_wedges(), parallel.num_wedges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto a = serial.neighbors(e);
    const auto b = parallel.neighbors(e);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].edge, b[i].edge);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST(ProjectionTest, TotalWeightIsSumOfPairIntersections) {
  const Hypergraph g = testing::RandomHypergraph(20, 25, 1, 5, 11);
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  uint64_t expected = 0;
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    for (EdgeId b = a + 1; b < g.num_edges(); ++b) {
      expected += g.IntersectionSize(a, b);
    }
  }
  EXPECT_EQ(p.total_weight(), expected);
}

TEST(ProjectedDegreesTest, MatchesFullProjection) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Hypergraph g = testing::RandomHypergraph(40, 60, 1, 6, seed + 100);
    const ProjectedGraph p = ProjectedGraph::Build(g).value();
    const ProjectedDegrees d = ComputeProjectedDegrees(g, (seed % 2) + 1);
    EXPECT_EQ(d.num_wedges, p.num_wedges());
    ASSERT_EQ(d.degree.size(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(d.degree[e], p.degree(e)) << "seed " << seed;
    }
    ASSERT_EQ(d.wedge_prefix.size(), g.num_edges() + 1);
    EXPECT_EQ(d.wedge_prefix.back(), p.num_wedges());
  }
}

TEST(ProjectionTest, DisconnectedGraphHasNoWedges) {
  auto g = MakeHypergraph({{0, 1}, {2, 3}, {4, 5}}).value();
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  EXPECT_EQ(p.num_wedges(), 0u);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(p.degree(e), 0u);
}

}  // namespace
}  // namespace mochy
