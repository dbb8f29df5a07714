// Not a paper figure: measures what batched multi-graph counting buys on
// the paper's headline application. One characteristic profile needs
// counts for the real hypergraph plus 5 null-model graphs; the baseline
// runs one MotifEngine per graph sequentially (generation, projection
// build, count — each graph alone on the machine), while the batched
// pipeline pushes all 6 graphs through one BatchRunner work queue on the
// shared pool, overlapping null-graph generation and projection builds
// with counting.
//
// Shape to verify: batched CP computation is >= 1.5x faster than
// one-engine-per-graph at 4+ threads, with bit-identical CP vectors
// (speedup requires >= 4 hardware cores; the binary prints the hardware
// concurrency so single-core CI runs are interpretable).
#include <cmath>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "motif/batch.h"
#include "motif/engine.h"
#include "profile/significance.h"
#include "random/chung_lu.h"

namespace {

using namespace mochy;

constexpr int kNullGraphs = 5;
constexpr uint64_t kSeed = 23;

// The pre-batch pipeline: every graph pays its own engine (projection
// build + count) with `threads`-way intra-graph parallelism, one graph at
// a time. Seed derivations match ComputeCharacteristicProfile exactly so
// the CP vectors must agree bit for bit.
ProfileVector BaselineProfile(const Hypergraph& graph, size_t threads) {
  EngineOptions count_options;
  count_options.algorithm = Algorithm::kExact;
  count_options.num_threads = threads;

  auto count_one = [&](const Hypergraph& g) {
    auto engine = MotifEngine::Create(g, count_options);
    MOCHY_CHECK(engine.ok()) << engine.status().ToString();
    auto result = engine.value().Count(count_options);
    MOCHY_CHECK(result.ok()) << result.status().ToString();
    return result.value().counts;
  };

  const MotifCounts real = count_one(graph);
  std::vector<MotifCounts> random_counts;
  for (int i = 0; i < kNullGraphs; ++i) {
    ChungLuOptions cl;
    cl.seed = kSeed + 0x9e3779b9u * static_cast<uint64_t>(i + 1);
    auto null_graph = GenerateChungLu(graph, cl);
    MOCHY_CHECK(null_graph.ok()) << null_graph.status().ToString();
    random_counts.push_back(count_one(null_graph.value()));
  }
  return NormalizeProfile(
      ComputeSignificance(real, MotifCounts::Mean(random_counts)));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Batched CP pipeline vs one-engine-per-graph (real + 5 null graphs)");
  std::printf("hardware threads: %zu   (speedup needs >= 4 cores)\n\n",
              DefaultThreadCount());

  GeneratorConfig config = DefaultConfig(Domain::kCoauthorship,
                                         bench::BenchScale());
  config.seed = 7;
  const Hypergraph graph =
      GenerateDomainHypergraph(config).value();
  std::printf("input: |V|=%zu |E|=%zu pins=%llu\n\n", graph.num_nodes(),
              graph.num_edges(),
              static_cast<unsigned long long>(graph.num_pins()));

  // Warm up the shared pool and page in the generators before timing.
  (void)BaselineProfile(graph, 2);

  std::printf("%8s %14s %12s %9s %13s\n", "threads", "baseline(s)",
              "batched(s)", "speedup", "utilization");

  bool identical = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Timer baseline_timer;
    const ProfileVector baseline_cp = BaselineProfile(graph, threads);
    const double baseline_seconds = baseline_timer.Seconds();

    CharacteristicProfileOptions options;
    options.num_random_graphs = kNullGraphs;
    options.seed = kSeed;
    options.num_threads = threads;
    Timer batched_timer;
    const CharacteristicProfile batched =
        ComputeCharacteristicProfile(graph, options).value();
    const double batched_seconds = batched_timer.Seconds();

    for (int i = 0; i < kNumHMotifs; ++i) {
      // Bit-identical, not approximately equal: both paths must run the
      // exact same deterministic computation.
      if (baseline_cp[i] != batched.cp[i]) identical = false;
    }

    std::printf("%8zu %14.3f %12.3f %8.2fx %12.0f%%\n", threads,
                baseline_seconds, batched_seconds,
                baseline_seconds / batched_seconds,
                100.0 * batched.batch.pool_utilization);
  }

  std::printf("\nCP vectors bit-identical across all runs: %s\n",
              identical ? "yes" : "NO — DETERMINISM BUG");
  return identical ? 0 : 1;
}
