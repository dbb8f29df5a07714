// Differential regression tests for the stamp-array counting kernels.
//
// The production MoCHy-E/A/A+ kernels (stamp arrays + chunked claiming)
// must be BIT-identical to the retained pre-stamp baselines
// (motif/reference.h) on every graph, seed and thread count: exact counts
// are integers and the samplers rescale identical integral raw counts, so
// the comparisons below use EXPECT_EQ, not tolerances. Graphs cover
// varied degree skew, duplicate hyperedges (dedup disabled, as null
// models do) and the paper's Figure-2 running example.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "gen/generators.h"
#include "hypergraph/builder.h"
#include "motif/engine.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/mochy_weighted.h"
#include "motif/reference.h"
#include "motif/stamp_kernels.h"
#include "motif/streaming.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

void ExpectBitIdentical(const MotifCounts& got, const MotifCounts& want,
                        const std::string& label) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(got[t], want[t]) << label << ": motif " << t;
  }
}

/// Random hypergraph with duplicate hyperedges retained: duplicates reach
/// the counting kernels when null models disable dedup, and their triples
/// must classify to id 0 in both kernel generations.
Hypergraph RandomWithDuplicates(size_t num_nodes, size_t num_edges,
                                size_t min_size, size_t max_size,
                                uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  std::vector<NodeId> edge;
  std::vector<std::vector<NodeId>> pool;
  for (size_t e = 0; e < num_edges; ++e) {
    // One edge in four repeats an earlier one verbatim.
    if (!pool.empty() && rng.UniformInt(4) == 0) {
      const auto& dup = pool[rng.UniformInt(pool.size())];
      builder.AddEdge(std::span<const NodeId>(dup.data(), dup.size()));
      continue;
    }
    const size_t size = static_cast<size_t>(rng.UniformRange(
        static_cast<int64_t>(min_size), static_cast<int64_t>(max_size)));
    const auto ids = rng.SampleDistinct(num_nodes, std::min(size, num_nodes));
    edge.assign(ids.begin(), ids.end());
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
    pool.push_back(edge);
  }
  BuildOptions options;
  options.num_nodes = num_nodes;
  options.dedup_edges = false;
  return std::move(builder).Build(options).value();
}

/// The test corpus: low-skew sparse, high-skew dense (few nodes, many
/// edges => heavy-tailed projected degrees), a domain-generator graph and
/// a duplicate-heavy graph.
std::vector<Hypergraph> DiffCorpus() {
  std::vector<Hypergraph> graphs;
  graphs.push_back(testing::RandomHypergraph(60, 80, 2, 5, 11));
  graphs.push_back(testing::RandomHypergraph(25, 120, 2, 9, 23));
  GeneratorConfig config = DefaultConfig(Domain::kContact, 0.05);
  config.seed = 7;
  graphs.push_back(GenerateDomainHypergraph(config).value());
  graphs.push_back(RandomWithDuplicates(40, 90, 2, 6, 31));
  return graphs;
}

std::vector<size_t> ThreadCounts() {
  return {1, 2, DefaultThreadCount()};
}

TEST(KernelDiffTest, ExactMatchesReferenceAtEveryThreadCount) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    const MotifCounts want = reference::CountMotifsExact(graph, projection, 1);
    for (size_t threads : ThreadCounts()) {
      ExpectBitIdentical(
          CountMotifsExact(graph, projection, threads), want,
          "exact m=" + std::to_string(graph.num_edges()) + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST(KernelDiffTest, ExactMatchesBruteForce) {
  // Absolute correctness, not just agreement with the old kernel.
  for (const Hypergraph& graph : DiffCorpus()) {
    if (graph.num_edges() > 130) continue;  // brute force is O(|E|^3)
    ExpectBitIdentical(CountMotifsExact(graph, 2),
                       testing::BruteForceCounts(graph), "brute-force");
  }
}

TEST(KernelDiffTest, EdgeSampleMatchesReference) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    for (uint64_t seed : {1u, 77u}) {
      MochyAOptions options;
      options.num_samples = 64;
      options.seed = seed;
      const MotifCounts want =
          reference::CountMotifsEdgeSample(graph, projection, options);
      for (size_t threads : ThreadCounts()) {
        options.num_threads = threads;
        ExpectBitIdentical(
            CountMotifsEdgeSample(graph, projection, options), want,
            "mochy-a seed=" + std::to_string(seed) + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST(KernelDiffTest, WedgeSampleMatchesReference) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    for (uint64_t seed : {1u, 77u}) {
      MochyAPlusOptions options;
      options.num_samples = 64;
      options.seed = seed;
      const MotifCounts want =
          reference::CountMotifsWedgeSample(graph, projection, options);
      for (size_t threads : ThreadCounts()) {
        options.num_threads = threads;
        ExpectBitIdentical(
            CountMotifsWedgeSample(graph, projection, options), want,
            "mochy-a+ seed=" + std::to_string(seed) + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST(KernelDiffTest, ZeroThreadsMeansDefaultThreadCount) {
  // The raw entry points must accept 0 (PR-2 contract) and still produce
  // the single-thread result bit-for-bit.
  const Hypergraph graph = testing::RandomHypergraph(40, 60, 2, 5, 5);
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  ExpectBitIdentical(CountMotifsExact(graph, projection, 0),
                     CountMotifsExact(graph, projection, 1), "exact 0-threads");

  MochyAOptions a;
  a.num_samples = 32;
  a.num_threads = 0;
  MochyAOptions a1 = a;
  a1.num_threads = 1;
  ExpectBitIdentical(CountMotifsEdgeSample(graph, projection, a),
                     CountMotifsEdgeSample(graph, projection, a1),
                     "mochy-a 0-threads");

  MochyAPlusOptions ap;
  ap.num_samples = 32;
  ap.num_threads = 0;
  MochyAPlusOptions ap1 = ap;
  ap1.num_threads = 1;
  ExpectBitIdentical(CountMotifsWedgeSample(graph, projection, ap),
                     CountMotifsWedgeSample(graph, projection, ap1),
                     "mochy-a+ 0-threads");
}

TEST(KernelDiffTest, Figure2GoldenVector) {
  // Figure 2 running example; full 26-motif golden vector (motifs 10, 21,
  // 22 each once — see tests/golden_test.cc for the construction).
  const Hypergraph graph =
      MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  MotifCounts want;
  want[10] = 1.0;
  want[21] = 1.0;
  want[22] = 1.0;
  for (size_t threads : ThreadCounts()) {
    ExpectBitIdentical(CountMotifsExact(graph, projection, threads), want,
                       "figure-2 stamped");
  }
  ExpectBitIdentical(reference::CountMotifsExact(graph, projection, 1), want,
                     "figure-2 reference");
}

/// Graphs with duplicate hyperedges retained, across density and skew.
std::vector<Hypergraph> DuplicateSweep() {
  std::vector<Hypergraph> graphs;
  graphs.push_back(RandomWithDuplicates(40, 90, 2, 6, 31));
  graphs.push_back(RandomWithDuplicates(15, 60, 2, 5, 37));
  graphs.push_back(RandomWithDuplicates(80, 70, 1, 8, 41));
  return graphs;
}

Hypergraph Figure2Graph() {
  return MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
}

TEST(KernelDiffTest, WeightedMatchesReference) {
  std::vector<Hypergraph> graphs = DuplicateSweep();
  graphs.push_back(Figure2Graph());
  // Samples run in blocks: one sample, a block's edges, and a short last
  // block after several full ones.
  const uint64_t block = kWeightedSampleBlock;
  for (const Hypergraph& graph : graphs) {
    for (uint64_t seed : {1u, 77u}) {
      for (uint64_t samples :
           {uint64_t{1}, block - 1, block, block + 1, 3 * block + 17}) {
        MochyWeightedOptions options;
        options.num_samples = samples;
        options.seed = seed;
        const MochyWeightedResult want =
            reference::CountMotifsWeightedWedge(graph, options).value();
        for (size_t threads : ThreadCounts()) {
          options.num_threads = threads;
          const MochyWeightedResult got =
              CountMotifsWeightedWedge(graph, options).value();
          const std::string label =
              "weighted m=" + std::to_string(graph.num_edges()) +
              " seed=" + std::to_string(seed) +
              " samples=" + std::to_string(samples) +
              " threads=" + std::to_string(threads);
          ExpectBitIdentical(got.counts, want.counts, label);
          EXPECT_EQ(got.estimated_num_wedges, want.estimated_num_wedges)
              << label;
          EXPECT_EQ(got.total_weight, want.total_weight) << label;
        }
      }
    }
  }
}

/// Every instance credited to its three member rows, by plain set algebra
/// over all O(|E|^3) triples.
PerEdgeCounts BruteForceRows(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<std::set<NodeId>> sets(m);
  for (EdgeId e = 0; e < m; ++e) {
    sets[e] = std::set<NodeId>(graph.edge(e).begin(), graph.edge(e).end());
  }
  PerEdgeCounts rows(m, std::array<double, kNumHMotifs>{});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      for (size_t k = j + 1; k < m; ++k) {
        const int id = testing::BruteForceClassify(sets[i], sets[j], sets[k]);
        if (id == 0) continue;
        for (size_t e : {i, j, k}) rows[e][id - 1] += 1.0;
      }
    }
  }
  return rows;
}

/// Engine per-edge rows at 1, 2 and 4 threads against BruteForceRows.
void ExpectPerEdgeRowsMatchBruteForce(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  const PerEdgeCounts want = BruteForceRows(graph);
  const MotifEngine engine = MotifEngine::Create(graph).value();
  for (size_t threads : {1u, 2u, 4u}) {
    EngineOptions options;
    options.num_threads = threads;
    const PerEdgeCounts got = engine.CountPerEdge(options).value().rows;
    ASSERT_EQ(got.size(), m);
    for (EdgeId e = 0; e < m; ++e) {
      for (int t = 0; t < kNumHMotifs; ++t) {
        EXPECT_EQ(got[e][t], want[e][t])
            << "m=" << m << " threads=" << threads << " edge " << e
            << " motif " << t + 1;
      }
    }
  }
}

TEST(KernelDiffTest, PerEdgeRowsMatchBruteForceWithDuplicates) {
  for (const Hypergraph& graph : DuplicateSweep()) {
    ExpectPerEdgeRowsMatchBruteForce(graph);
  }
}

/// Hyperedges drawn as subsets of a few large random parents (the first
/// of `parent_sizes` nodes each), duplicates retained: many neighbors
/// with no private nodes (ω_ij = |e_j|) and many pairs whose overlaps
/// with the hub exceed it (ω_ij + ω_ik > |e_i|), the corner cases of the
/// as-if-open classes. The parents themselves are edges too.
Hypergraph NestedWithDuplicates(size_t num_nodes, size_t num_edges,
                                std::vector<size_t> parent_sizes,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> parents;
  for (size_t size : parent_sizes) {
    const auto ids = rng.SampleDistinct(num_nodes, size);
    parents.emplace_back(ids.begin(), ids.end());
  }
  std::vector<std::vector<NodeId>> edges = parents;
  while (edges.size() < num_edges) {
    // One edge in five repeats an earlier one verbatim.
    if (rng.UniformInt(5) == 0) {
      edges.push_back(edges[rng.UniformInt(edges.size())]);
      continue;
    }
    const auto& parent = parents[rng.UniformInt(parents.size())];
    const uint64_t size =
        1 + rng.UniformInt(rng.UniformInt(2) == 0 ? 4 : parent.size());
    std::vector<NodeId> edge;
    for (uint64_t index : rng.SampleDistinct(parent.size(), size)) {
      edge.push_back(parent[index]);
    }
    edges.push_back(std::move(edge));
  }
  HypergraphBuilder builder;
  for (const auto& edge : edges) {
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  BuildOptions options;
  options.num_nodes = num_nodes;
  options.dedup_edges = false;
  return std::move(builder).Build(options).value();
}

/// Nested graphs with duplicates; the last has one hub with |e| >= 64 and
/// >= 100 neighbors.
std::vector<Hypergraph> NestedCorpus() {
  std::vector<Hypergraph> graphs;
  for (uint64_t seed : {3u, 19u}) {
    graphs.push_back(NestedWithDuplicates(24, 70, {14, 10, 8}, seed));
  }
  graphs.push_back(NestedWithDuplicates(90, 115, {72, 30, 20}, 57));
  return graphs;
}

TEST(KernelDiffTest, NestedAndDuplicateEdgesMatchOracles) {
  const std::vector<Hypergraph> graphs = NestedCorpus();
  {
    const Hypergraph& big = graphs.back();
    const auto projection = ProjectedGraph::Build(big, 1).value();
    ASSERT_GE(big.edge_size(0), 64u);
    ASSERT_GE(projection.degree(0), 100u);
  }
  for (const Hypergraph& graph : graphs) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    const MotifCounts want = reference::CountMotifsExact(graph, projection, 1);
    ASSERT_GT(want.Total(), 0.0);
    for (size_t threads : ThreadCounts()) {
      ExpectBitIdentical(
          CountMotifsExact(graph, projection, threads), want,
          "nested m=" + std::to_string(graph.num_edges()) + " threads=" +
              std::to_string(threads));
    }
    ExpectPerEdgeRowsMatchBruteForce(graph);
  }
}

/// The class of {a, b, c} from plain intersections of the edge lists.
int ClassifyTriple(const Hypergraph& graph, EdgeId a, EdgeId b, EdgeId c) {
  return ClassifyMotifOrZero(
      graph.edge_size(a), graph.edge_size(b), graph.edge_size(c),
      graph.IntersectionSize(a, b), graph.IntersectionSize(b, c),
      graph.IntersectionSize(c, a), graph.TripleIntersectionSize(a, b, c));
}

/// The members of N(a) ∪ N(b) other than a and b.
std::set<EdgeId> NeighborUnion(const ProjectedGraph& projection, EdgeId a,
                               EdgeId b) {
  std::set<EdgeId> out;
  for (EdgeId e : {a, b}) {
    for (const Neighbor& n : projection.neighbors(e)) out.insert(n.edge);
  }
  out.erase(a);
  out.erase(b);
  return out;
}

void ExpectCensusEqual(const internal::MotifCensus& got,
                       const internal::MotifCensus& want,
                       const std::string& label) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(got[t], want[t]) << label << ": motif " << t;
  }
}

TEST(KernelDiffTest, CensusPrimitivesMatchPerInstanceClassification) {
  std::vector<Hypergraph> graphs = DiffCorpus();
  for (Hypergraph& graph : NestedCorpus()) graphs.push_back(std::move(graph));
  for (const Hypergraph& graph : graphs) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    const internal::ProjectionSource source(graph, projection);
    const MotifClassifier classify;
    internal::OpenPairBuckets buckets(internal::MaxEdgeSize(source.size_of));
    ScratchArena& arena = internal::ArenaFor(graph);
    const std::string graph_label = "m=" + std::to_string(graph.num_edges());
    for (EdgeId ei = 0; ei < graph.num_edges(); ++ei) {
      // Every instance containing e_i: a second member from N(e_i), a
      // third from N(e_i) ∪ N(e_j), each unordered pair once.
      internal::MotifCensus want{};
      for (const Neighbor& nj : projection.neighbors(ei)) {
        for (EdgeId ek : NeighborUnion(projection, ei, nj.edge)) {
          if (projection.Weight(ei, ek) != 0 && ek < nj.edge) continue;
          ++want[ClassifyTriple(graph, ei, nj.edge, ek)];
        }
      }
      internal::MotifCensus got{};
      internal::ContainingCensus(source, classify, ei,
                                 projection.neighbors(ei), buckets, arena, got);
      ExpectCensusEqual(got, want,
                        graph_label + " containing e=" + std::to_string(ei));

      // Every instance containing the wedge {e_i, e_j}, e_i < e_j.
      for (const Neighbor& nj : projection.upper_neighbors(ei)) {
        const EdgeId ej = nj.edge;
        internal::MotifCensus wedge_want{};
        for (EdgeId ek : NeighborUnion(projection, ei, ej)) {
          ++wedge_want[ClassifyTriple(graph, ei, ej, ek)];
        }
        internal::MotifCensus wedge_got{};
        internal::WedgeCensus(source, classify, ei, ej, nj.weight,
                              projection.neighbors(ei),
                              projection.neighbors(ej), arena, wedge_got);
        ExpectCensusEqual(wedge_got, wedge_want,
                          graph_label + " wedge {" + std::to_string(ei) +
                              ", " + std::to_string(ej) + "}");
      }
    }
  }
}

/// A graph whose hubs take ForEachHubTriple's search path, where N(e_j)
/// is far longer than the pairs left after e_j and w_jk is looked up in
/// the sorted N(e_j) instead of scattered. Leaves L_t = {t, 200 + t}
/// (ids 0..119) hang off the big edge B = {0..119} (id 160), so |N(B)| >
/// 120. Hub H_h = {h, 300 + 2h, 301 + 2h} (ids 120..159) sees N(H_h) = [L_h,
/// B, C_h, ...]: at B one pair is left. Its closer C_h (ids 161..200) is
/// adjacent to B for even h — with a triple intersection for h = 0 mod 4 —
/// so the search both finds and misses w_jk, on closed triples hub H_h
/// counts itself.
Hypergraph HubSearchGraph() {
  constexpr NodeId kLeaves = 120;
  constexpr NodeId kHubs = 40;
  std::vector<std::vector<NodeId>> edges;
  for (NodeId t = 0; t < kLeaves; ++t) edges.push_back({t, 200 + t});
  for (NodeId h = 0; h < kHubs; ++h) edges.push_back({h, 300 + 2 * h, 301 + 2 * h});
  std::vector<NodeId> big;
  for (NodeId t = 0; t < kLeaves; ++t) big.push_back(t);
  edges.push_back(big);
  for (NodeId h = 0; h < kHubs; ++h) {
    if (h % 4 == 0) edges.push_back({300 + 2 * h, h});
    if (h % 4 == 2) edges.push_back({300 + 2 * h, h + 1});
    if (h % 2 == 1) edges.push_back({301 + 2 * h, 600 + h});
  }
  return MakeHypergraph(edges).value();
}

TEST(KernelDiffTest, HubTripleSearchPathMatchesReference) {
  const Hypergraph graph = HubSearchGraph();
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  // The graph must reach the search path (ForEachHubTriple's threshold),
  // with pairs whose w_jk it finds and pairs whose w_jk it misses.
  uint64_t found = 0;
  uint64_t missed = 0;
  for (EdgeId ei = 0; ei < graph.num_edges(); ++ei) {
    const auto nbrs = projection.neighbors(ei);
    for (size_t a = 0; a + 1 < nbrs.size(); ++a) {
      const EdgeId ej = nbrs[a].edge;
      if (projection.degree(ej) <= 16 + 4 * (nbrs.size() - a - 1)) continue;
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        ++(projection.Weight(ej, nbrs[b].edge) != 0 ? found : missed);
      }
    }
  }
  ASSERT_GT(found, 0u);
  ASSERT_GT(missed, 0u);

  const MotifCounts want = reference::CountMotifsExact(graph, projection, 1);
  ASSERT_GT(want.Total(), 0.0);
  for (size_t threads : ThreadCounts()) {
    std::vector<internal::PaddedCensus> parts(threads);
    internal::ForEachInstanceParallel(
        graph, projection, threads,
        [&](size_t worker, EdgeId, EdgeId, EdgeId, int id) {
          ++parts[worker].n[id];
        });
    ExpectBitIdentical(internal::SumCensus(parts), want,
                       "hub search threads=" + std::to_string(threads));
  }
}

TEST(KernelDiffTest, StreamingArrivalThenRemovalMatchesReference) {
  for (const Hypergraph& graph : DuplicateSweep()) {
    for (size_t threads : {1u, 4u}) {
      StreamingOptions options;
      options.num_threads = threads;
      options.parallel_work_threshold = 0;  // fan out every delta pass
      StreamingEngine engine(options);
      const auto expect_exact = [&](const std::string& label) {
        const Hypergraph snapshot = engine.graph().Snapshot().value();
        const auto projection = ProjectedGraph::Build(snapshot, 1).value();
        ExpectBitIdentical(engine.counts(),
                           reference::CountMotifsExact(snapshot, projection),
                           label + " m=" + std::to_string(graph.num_edges()) +
                               " threads=" + std::to_string(threads));
      };
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        ASSERT_TRUE(engine.AddEdge(graph.edge(e)).ok());
      }
      expect_exact("after arrivals");
      // Remove every other edge, then the rest, checking after each pass.
      for (EdgeId e = 0; e < graph.num_edges(); e += 2) {
        ASSERT_TRUE(engine.RemoveEdge(e).ok());
      }
      expect_exact("after half the removals");
      for (EdgeId e = 1; e < graph.num_edges(); e += 2) {
        ASSERT_TRUE(engine.RemoveEdge(e).ok());
      }
      expect_exact("after all removals");
    }
  }
}

TEST(KernelDiffTest, WorkChunkBoundariesCoverTheRange) {
  const std::vector<uint64_t> skewed = {0, 1, 100, 0, 0, 50, 2, 2,
                                        2,  2, 0,  9, 1, 0,  30};
  for (size_t chunks : {1u, 2u, 4u, 64u}) {
    const auto b = WorkChunkBoundaries(skewed, chunks);
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), skewed.size());
    for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  }
  EXPECT_EQ(WorkChunkBoundaries({}, 4).size(), 1u);
}

}  // namespace
}  // namespace mochy
