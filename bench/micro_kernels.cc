// Micro-benchmarks (google-benchmark) for the hot kernels and the design
// ablations DESIGN.md calls out: projection construction, pair-weight
// lookup strategy (flat hash map vs. binary search over adjacency),
// motif classification, triple intersection, wedge sampling, the Chung-Lu
// null model, and the ESU census.
#include <benchmark/benchmark.h>

#include <atomic>
#include <unordered_map>

#include "baseline/bipartite.h"
#include "baseline/graphlet.h"
#include "common/flat_map.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "gen/generators.h"
#include "hypergraph/projection.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/pattern.h"
#include "motif/reference.h"
#include "motif/stamp_kernels.h"
#include "random/chung_lu.h"

namespace {

using namespace mochy;

const Hypergraph& TestGraph() {
  static const Hypergraph graph = [] {
    GeneratorConfig config = DefaultConfig(Domain::kCoauthorship, 0.25);
    config.seed = 3;
    return GenerateDomainHypergraph(config).value();
  }();
  return graph;
}

const ProjectedGraph& TestProjection() {
  static const ProjectedGraph projection =
      ProjectedGraph::Build(TestGraph(), 2).value();
  return projection;
}

void BM_ProjectionBuild(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  for (auto _ : state) {
    auto projection =
        ProjectedGraph::Build(graph, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(projection);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_ProjectionBuild)->Arg(1)->Arg(4);

void BM_ProjectedDegreesOnly(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  for (auto _ : state) {
    auto degrees = ComputeProjectedDegrees(graph, 1);
    benchmark::DoNotOptimize(degrees);
  }
}
BENCHMARK(BM_ProjectedDegreesOnly);

void BM_ClassifyMotifKernel(benchmark::State& state) {
  Rng rng(1);
  // Pre-generate valid cardinality tuples from real instances.
  struct Tuple {
    uint64_t s[3], w[3], t;
  };
  std::vector<Tuple> tuples;
  const Hypergraph& graph = TestGraph();
  const ProjectedGraph& projection = TestProjection();
  for (EdgeId e = 0; e < graph.num_edges() && tuples.size() < 4096; e += 7) {
    const auto nbrs = projection.neighbors(e);
    for (size_t a = 0; a + 1 < nbrs.size() && tuples.size() < 4096; ++a) {
      const EdgeId j = nbrs[a].edge, k = nbrs[a + 1].edge;
      Tuple tuple;
      tuple.s[0] = graph.edge_size(e);
      tuple.s[1] = graph.edge_size(j);
      tuple.s[2] = graph.edge_size(k);
      tuple.w[0] = nbrs[a].weight;
      tuple.w[1] = projection.Weight(j, k);
      tuple.w[2] = nbrs[a + 1].weight;
      tuple.t = tuple.w[1] == 0 ? 0 : graph.TripleIntersectionSize(e, j, k);
      tuples.push_back(tuple);
    }
  }
  size_t index = 0;
  for (auto _ : state) {
    const Tuple& t = tuples[index++ % tuples.size()];
    benchmark::DoNotOptimize(ClassifyMotifOrZero(t.s[0], t.s[1], t.s[2],
                                                 t.w[0], t.w[1], t.w[2],
                                                 t.t));
  }
}
BENCHMARK(BM_ClassifyMotifKernel);

void BM_TripleIntersection(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  Rng rng(2);
  const size_t m = graph.num_edges();
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId c = static_cast<EdgeId>(rng.UniformInt(m));
    benchmark::DoNotOptimize(graph.TripleIntersectionSize(a, b, c));
  }
}
BENCHMARK(BM_TripleIntersection);

// Ablation: pair-weight lookup strategies. The projection keeps no pair
// table, so the flat map and the unordered map are private copies built
// here; ProjectedGraph::Weight is the binary search over the sorted
// neighbor list.
void BM_PairWeightFlatMap(benchmark::State& state) {
  const ProjectedGraph& projection = TestProjection();
  FlatMap64<uint32_t> map(projection.num_wedges());
  for (EdgeId e = 0; e < projection.num_edges(); ++e) {
    for (const Neighbor& n : projection.upper_neighbors(e)) {
      map.Put(PackPair(e, n.edge), n.weight);
    }
  }
  Rng rng(3);
  const size_t m = projection.num_edges();
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    benchmark::DoNotOptimize(map.GetOr(PackPair(a, b), 0));
  }
}
BENCHMARK(BM_PairWeightFlatMap);

void BM_PairWeightBinarySearch(benchmark::State& state) {
  const ProjectedGraph& projection = TestProjection();
  Rng rng(3);
  const size_t m = projection.num_edges();
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    benchmark::DoNotOptimize(projection.Weight(a, b));
  }
}
BENCHMARK(BM_PairWeightBinarySearch);

void BM_PairWeightUnorderedMap(benchmark::State& state) {
  const ProjectedGraph& projection = TestProjection();
  std::unordered_map<uint64_t, uint32_t> map;
  for (EdgeId e = 0; e < projection.num_edges(); ++e) {
    for (const Neighbor& n : projection.upper_neighbors(e)) {
      map[PackPair(e, n.edge)] = n.weight;
    }
  }
  Rng rng(3);
  const size_t m = projection.num_edges();
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    const auto it = map.find(PackPair(a, b));
    benchmark::DoNotOptimize(it == map.end() ? 0u : it->second);
  }
}
BENCHMARK(BM_PairWeightUnorderedMap);

// Stamp-array pair-weight lookup as the MoCHy-E inner loop performs it:
// scatter one neighborhood into the epoch-stamped array, then probe. The
// scatter is amortized over the probes of the pair loop; compare against
// BM_PairWeightFlatMap / BinarySearch / UnorderedMap above.
void BM_PairWeightStampArray(benchmark::State& state) {
  const ProjectedGraph& projection = TestProjection();
  const size_t m = projection.num_edges();
  StampedWeights weights;
  weights.EnsureSize(m);
  Rng rng(3);
  int64_t probes = 0;
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    weights.NewEpoch();
    for (const Neighbor& n : projection.neighbors(a)) {
      weights.Set(n.edge, n.weight);
    }
    // Probe the pattern of a pair loop: another edge's neighbor ids.
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    uint64_t sum = 0;
    for (const Neighbor& n : projection.neighbors(b)) {
      sum += weights.Get(n.edge);
      ++probes;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(probes);
}
BENCHMARK(BM_PairWeightStampArray);

void BM_TripleIntersectionHubMasks(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  ScratchArena arena;
  arena.EnsureEdges(graph.num_edges());
  const PositionMasks& masks = arena.hub_masks;
  Rng rng(2);
  const size_t m = graph.num_edges();
  for (auto _ : state) {
    const EdgeId a = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId b = static_cast<EdgeId>(rng.UniformInt(m));
    const EdgeId c = static_cast<EdgeId>(rng.UniformInt(m));
    internal::PrepareHubMasks(graph, a, /*upper_only=*/false, arena.hub_masks);
    benchmark::DoNotOptimize(masks.shared(masks.slot(b), masks.slot(c)));
  }
}
BENCHMARK(BM_TripleIntersectionHubMasks);

// Ablation: claiming overhead of the hub scheduler. Per-hub: one atomic
// fetch_add per item (the pre-PR3 design). Chunked: one fetch_add per
// Σd²-balanced chunk (WorkChunkBoundaries). The loop body is deliberately
// tiny so the claim cost dominates.
void BM_HubClaimPerHub(benchmark::State& state) {
  const size_t n = 1 << 16;
  for (auto _ : state) {
    std::atomic<size_t> next{0};
    uint64_t sum = 0;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      sum += i;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HubClaimPerHub);

void BM_HubClaimChunked(benchmark::State& state) {
  const size_t n = 1 << 16;
  // Skewed per-item work estimates, as projected degrees are.
  std::vector<uint64_t> cost(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) cost[i] = 1 + (rng.UniformInt(64) == 0 ? 640 : rng.UniformInt(8));
  const std::vector<size_t> chunks = WorkChunkBoundaries(cost, 64);
  const size_t num_chunks = chunks.size() - 1;
  for (auto _ : state) {
    std::atomic<size_t> next{0};
    uint64_t sum = 0;
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      for (size_t i = chunks[c]; i < chunks[c + 1]; ++i) sum += i;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HubClaimChunked);

void BM_MochyExact(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  const ProjectedGraph& projection = TestProjection();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMotifsExact(
        graph, projection, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_MochyExact)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The retained pre-stamp kernel (motif/reference.h) on the same input, so
// the stamp-array win is measurable end-to-end in isolation.
void BM_MochyExactReference(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  const ProjectedGraph& projection = TestProjection();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::CountMotifsExact(
        graph, projection, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_MochyExactReference)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MochyAPlusSampling(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  const ProjectedGraph& projection = TestProjection();
  MochyAPlusOptions options;
  options.num_samples = static_cast<uint64_t>(state.range(0));
  options.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CountMotifsWedgeSample(graph, projection, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MochyAPlusSampling)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_WedgeSampling(benchmark::State& state) {
  const ProjectedGraph& projection = TestProjection();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        projection.WedgeAt(rng.UniformInt(projection.num_wedges())));
  }
}
BENCHMARK(BM_WedgeSampling);

void BM_ChungLuSample(benchmark::State& state) {
  const Hypergraph& graph = TestGraph();
  uint64_t seed = 1;
  for (auto _ : state) {
    ChungLuOptions options;
    options.seed = seed++;
    benchmark::DoNotOptimize(GenerateChungLu(graph, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_ChungLuSample)->Unit(benchmark::kMillisecond);

void BM_EsuCensus(benchmark::State& state) {
  static const Graph star = [] {
    GeneratorConfig config = DefaultConfig(Domain::kContact, 0.15);
    config.seed = 3;
    return StarExpansion(GenerateDomainHypergraph(config).value());
  }();
  GraphletCensusOptions options;
  options.min_size = 3;
  options.max_size = static_cast<int>(state.range(0));
  options.sample_probability = state.range(0) == 5 ? 0.2 : 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountGraphlets(star, options));
  }
}
BENCHMARK(BM_EsuCensus)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CanonicalPatternTable(benchmark::State& state) {
  uint8_t bits = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MotifIdFromPattern(bits));
    bits = static_cast<uint8_t>((bits + 1) & 0x7f);
  }
}
BENCHMARK(BM_CanonicalPatternTable);

}  // namespace

BENCHMARK_MAIN();
